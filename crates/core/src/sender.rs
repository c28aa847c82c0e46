//! Sender-side `senduipi` semantics (§3.2–3.3 steps (1)–(2)).
//!
//! `senduipi(index)` looks up the destination's UPID in the UITT, posts the
//! user vector into `PIR` with an atomic RMW, and — unless notifications
//! are suppressed (`SN`) or one is already outstanding (`ON`) — sets `ON`
//! and sends a conventional IPI to the core named by `NDST` with vector
//! `NV`.

use serde::{Deserialize, Serialize};
use xui_uipi_abi::Upid;

use crate::error::XuiError;
use crate::uitt::{Uitt, UittIndex, UpidAddr};
use crate::vectors::{ApicId, Vector};

/// A conventional inter-processor interrupt message travelling the system
/// bus from the sender's APIC to the receiver's APIC (§3.3 step (3)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpiMessage {
    /// Destination core.
    pub dest: ApicId,
    /// The notification vector (`NV` from the UPID); the receiver compares
    /// it against its `UINV` MSR to recognise a user-interrupt
    /// notification.
    pub vector: Vector,
}

/// What a successful `senduipi` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SendOutcome {
    /// Whether the posted vector was newly set in `PIR` (false if the same
    /// vector was already pending and coalesced).
    pub newly_posted: bool,
    /// The IPI to put on the bus, if any. `None` when `SN` suppressed the
    /// notification or `ON` indicated one is already outstanding.
    pub ipi: Option<IpiMessage>,
    /// True if `SN` was set (receiver context-switched out): the vector is
    /// posted for the kernel to deliver later, but no IPI is sent.
    pub suppressed: bool,
}

/// The shared memory holding UPIDs: a `Vec` kept sorted by address,
/// since a model maps only a handful of descriptors (sorting also makes
/// the derived `PartialEq` independent of insertion order).
///
/// `senduipi` and notification processing perform their RMWs on the
/// packed [`Upid`] in place through [`MapUpidMemory::get_mut`].
///
/// # Examples
///
/// ```
/// use xui_core::sender::MapUpidMemory;
/// use xui_core::uitt::UpidAddr;
/// use xui_uipi_abi::Upid;
///
/// let mut mem = MapUpidMemory::new();
/// mem.insert(UpidAddr(0x40), Upid::new());
/// assert!(mem.get(UpidAddr(0x40)).is_ok());
/// assert!(mem.get(UpidAddr(0x80)).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapUpidMemory {
    entries: Vec<(u64, Upid)>,
}

impl MapUpidMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `addr`, or where it would be inserted.
    fn slot(&self, addr: UpidAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&addr.as_u64(), |&(a, _)| a)
    }

    /// Maps a descriptor at `addr` (what the kernel's `register_handler`
    /// allocation does), replacing any descriptor already there.
    pub fn insert(&mut self, addr: UpidAddr, upid: Upid) {
        match self.slot(addr) {
            Ok(i) => self.entries[i].1 = upid,
            Err(i) => self.entries.insert(i, (addr.as_u64(), upid)),
        }
    }

    /// Removes the descriptor at `addr`, returning it if present.
    pub fn remove(&mut self, addr: UpidAddr) -> Option<Upid> {
        self.slot(addr).ok().map(|i| self.entries.remove(i).1)
    }

    /// Loads the descriptor at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownUpid`] if no descriptor lives at `addr`.
    pub fn get(&self, addr: UpidAddr) -> Result<Upid, XuiError> {
        self.slot(addr)
            .map(|i| self.entries[i].1)
            .map_err(|_| XuiError::UnknownUpid { addr: addr.as_u64() })
    }

    /// The descriptor at `addr`, for an in-place atomic RMW.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownUpid`] if no descriptor lives at `addr`.
    pub fn get_mut(&mut self, addr: UpidAddr) -> Result<&mut Upid, XuiError> {
        let i = self.slot(addr).map_err(|_| XuiError::UnknownUpid { addr: addr.as_u64() })?;
        Ok(&mut self.entries[i].1)
    }

    /// Unmaps every descriptor, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of mapped descriptors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no descriptor is mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Executes the architectural effects of `senduipi uitt[index]`.
///
/// Performs the UITT lookup, the posting RMW on the UPID, and decides
/// whether an IPI goes on the bus, per §3.2:
///
/// 1. set the `PIR` bit for the entry's user vector;
/// 2. if `SN` is set, stop — the kernel will deliver on resume;
/// 3. if `ON` is clear, set `ON` and emit an IPI to (`NDST`, `NV`);
///    if `ON` is already set an earlier notification still covers the
///    newly posted vector, so no duplicate IPI is needed.
///
/// # Errors
///
/// Returns [`XuiError::InvalidUittIndex`] for a bad index (hardware `#GP`)
/// or [`XuiError::UnknownUpid`] if the entry points at unmapped memory.
///
/// # Examples
///
/// ```
/// use xui_core::sender::{senduipi, MapUpidMemory};
/// use xui_core::uitt::{Uitt, UpidAddr};
/// use xui_core::vectors::{ApicId, UserVector};
/// use xui_uipi_abi::Upid;
///
/// let mut mem = MapUpidMemory::new();
/// let mut upid = Upid::new();
/// upid.nc.nv = 0xec;
/// upid.nc.ndst = 1;
/// mem.insert(UpidAddr(0x40), upid);
///
/// let mut uitt = Uitt::new();
/// let idx = uitt.register(UpidAddr(0x40), UserVector::new(7)?);
///
/// let outcome = senduipi(&uitt, &mut mem, idx)?;
/// let ipi = outcome.ipi.expect("first send raises an IPI");
/// assert_eq!(ipi.dest, ApicId::new(1));
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
pub fn senduipi(
    uitt: &Uitt,
    mem: &mut MapUpidMemory,
    index: UittIndex,
) -> Result<SendOutcome, XuiError> {
    let entry = uitt.lookup(index)?;
    let upid = mem.get_mut(UpidAddr(entry.target_upid_addr))?;
    let newly_posted = upid.post(entry.user_vec);
    let suppressed = upid.nc.sn();
    // `test_and_set_on` runs only when SN is clear: a suppressed send
    // leaves ON untouched.
    let ipi = (!suppressed && !upid.nc.test_and_set_on()).then(|| IpiMessage {
        dest: ApicId::new(upid.nc.ndst),
        vector: Vector::new(upid.nc.nv),
    });
    Ok(SendOutcome {
        newly_posted,
        ipi,
        suppressed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::UserVector;

    fn setup(sn: bool, on: bool) -> (Uitt, MapUpidMemory, UittIndex, UpidAddr) {
        let addr = UpidAddr(0x40);
        let mut upid = Upid::new();
        upid.nc.nv = 0xec;
        upid.nc.ndst = 3;
        upid.nc.set_sn(sn);
        upid.nc.set_on(on);
        let mut mem = MapUpidMemory::new();
        mem.insert(addr, upid);
        let mut uitt = Uitt::new();
        let idx = uitt.register(addr, UserVector::new(9).unwrap());
        (uitt, mem, idx, addr)
    }

    #[test]
    fn first_send_posts_and_raises_ipi() {
        let (uitt, mut mem, idx, addr) = setup(false, false);
        let outcome = senduipi(&uitt, &mut mem, idx).unwrap();
        assert!(outcome.newly_posted);
        assert!(!outcome.suppressed);
        assert_eq!(
            outcome.ipi,
            Some(IpiMessage {
                dest: ApicId::new(3),
                vector: Vector::new(0xec)
            })
        );
        let upid = mem.get(addr).unwrap();
        assert!(upid.nc.on());
        assert_eq!(upid.puir, 1 << 9);
    }

    #[test]
    fn outstanding_notification_coalesces_ipis() {
        let (uitt, mut mem, idx, addr) = setup(false, true);
        let outcome = senduipi(&uitt, &mut mem, idx).unwrap();
        assert!(outcome.newly_posted);
        assert_eq!(outcome.ipi, None, "ON already set: no duplicate IPI");
        assert!(mem.get(addr).unwrap().nc.on());
    }

    #[test]
    fn suppressed_notification_posts_without_ipi() {
        let (uitt, mut mem, idx, addr) = setup(true, false);
        let outcome = senduipi(&uitt, &mut mem, idx).unwrap();
        assert!(outcome.suppressed);
        assert_eq!(outcome.ipi, None);
        let upid = mem.get(addr).unwrap();
        assert_eq!(upid.puir, 1 << 9, "vector still posted for the slow path");
        assert!(!upid.nc.on(), "ON untouched while suppressed");
    }

    #[test]
    fn invalid_index_faults() {
        let (_, mut mem, _, _) = setup(false, false);
        let uitt = Uitt::new();
        assert_eq!(
            senduipi(&uitt, &mut mem, UittIndex(0)),
            Err(XuiError::InvalidUittIndex { index: 0 })
        );
    }

    #[test]
    fn dangling_upid_pointer_errors() {
        let mut uitt = Uitt::new();
        let idx = uitt.register(UpidAddr(0xdead), UserVector::new(1).unwrap());
        let mut mem = MapUpidMemory::new();
        assert_eq!(
            senduipi(&uitt, &mut mem, idx),
            Err(XuiError::UnknownUpid { addr: 0xdead })
        );
    }

    #[test]
    fn map_memory_is_keyed_by_address_in_any_insertion_order() {
        let (a, b, c) = (UpidAddr(0x80), UpidAddr(0x40), UpidAddr(0xc0));
        let mut one = Upid::new();
        one.nc.ndst = 1;
        let mut fwd = MapUpidMemory::new();
        let mut rev = MapUpidMemory::new();
        for addr in [a, b, c] {
            fwd.insert(addr, Upid::new());
        }
        for addr in [c, b, a] {
            rev.insert(addr, Upid::new());
        }
        assert_eq!(fwd, rev, "equality ignores insertion order");
        fwd.insert(b, one);
        assert_eq!(fwd.len(), 3, "re-inserting an address replaces its descriptor");
        assert_eq!(fwd.get(b).unwrap(), one);
        assert_ne!(fwd, rev);
        assert_eq!(fwd.remove(b), Some(one));
        assert_eq!(fwd.remove(b), None);
        assert_eq!(fwd.get_mut(b), Err(XuiError::UnknownUpid { addr: 0x40 }));
        assert_eq!(fwd.get(c).unwrap(), Upid::new());
        assert_eq!(fwd.len(), 2);
    }

    #[test]
    fn two_sends_same_vector_one_ipi() {
        let (uitt, mut mem, idx, _) = setup(false, false);
        let first = senduipi(&uitt, &mut mem, idx).unwrap();
        let second = senduipi(&uitt, &mut mem, idx).unwrap();
        assert!(first.ipi.is_some());
        assert!(second.ipi.is_none());
        assert!(!second.newly_posted);
    }
}
