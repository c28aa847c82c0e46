//! Interrupt forwarding: routing device interrupts to user threads (§4.5).
//!
//! The local APIC gains two 256-bit registers, `forwarding_enabled` and
//! `forwarded_active`, with one bit per conventional vector. When a device
//! interrupt arrives on a vector whose `forwarding_enabled` bit is set, the
//! APIC posts the mapped user vector into `UIRR`; if the vector's
//! `forwarded_active` bit is also set (the registered thread is the one
//! running), delivery proceeds straight to user level — the *fast path*,
//! which never touches shared memory. Otherwise the APIC raises a
//! conventional interrupt so the kernel can park the event in the DUPID
//! for the registered thread — the *slow path*.

use serde::{Deserialize, Serialize};

use crate::error::XuiError;
use crate::vectors::{UserVector, Vector};

/// A 256-bit bitmap indexed by conventional vector, as used by the two new
/// APIC registers.
///
/// # Examples
///
/// ```
/// use xui_core::forwarding::VectorBitmap;
/// use xui_core::vectors::Vector;
///
/// let mut bm = VectorBitmap::new();
/// bm.set(Vector::new(8));
/// assert!(bm.get(Vector::new(8)));
/// bm.clear(Vector::new(8));
/// assert!(bm.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct VectorBitmap {
    words: [u64; 4],
}

impl VectorBitmap {
    /// Creates an empty bitmap.
    #[must_use]
    pub const fn new() -> Self {
        Self { words: [0; 4] }
    }

    /// Sets the bit for `vector`.
    pub fn set(&mut self, vector: Vector) {
        self.words[vector.index() / 64] |= 1u64 << (vector.index() % 64);
    }

    /// Clears the bit for `vector`.
    pub fn clear(&mut self, vector: Vector) {
        self.words[vector.index() / 64] &= !(1u64 << (vector.index() % 64));
    }

    /// Tests the bit for `vector`.
    #[must_use]
    pub const fn get(&self, vector: Vector) -> bool {
        self.words[vector.index() / 64] & (1u64 << (vector.index() % 64)) != 0
    }

    /// True if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over the set vectors in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Vector> + '_ {
        (0u16..256)
            .map(|i| Vector::new(i as u8))
            .filter(move |v| self.get(*v))
    }

    /// Raw words, for MSR-style save/restore.
    #[must_use]
    pub const fn words(&self) -> [u64; 4] {
        self.words
    }

    /// Rebuilds from raw words.
    #[must_use]
    pub const fn from_words(words: [u64; 4]) -> Self {
        Self { words }
    }
}

/// Device User Interrupt Posted Descriptor (§4.5 "Multiplexing interrupt
/// forwarding"): a per-thread descriptor, "similar to the UPID", where the
/// kernel parks forwarded interrupts that arrive while the registered
/// thread is not running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Dupid {
    /// Posted forwarded interrupts, one bit per user vector (like PIR).
    pub pir: u64,
}

impl Dupid {
    /// Creates an empty descriptor.
    #[must_use]
    pub const fn new() -> Self {
        Self { pir: 0 }
    }

    /// Posts a forwarded user vector for later delivery.
    pub fn post(&mut self, uv: UserVector) {
        self.pir |= uv.bit();
    }

    /// Drains the posted set (the kernel's resume-time repost).
    pub fn take(&mut self) -> u64 {
        core::mem::take(&mut self.pir)
    }

    /// True if anything is parked.
    #[must_use]
    pub const fn has_posted(&self) -> bool {
        self.pir != 0
    }
}

/// Where a forwarded interrupt goes (§4.5 "Microarchitecture design").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ForwardDecision {
    /// `forwarding_enabled[v]` clear: not a forwarded vector; handled by
    /// the OS as a conventional interrupt.
    Legacy,
    /// Fast path: the registered thread is running; deliver the mapped
    /// user vector directly (no UPID/DUPID access).
    FastPath(UserVector),
    /// Slow path: forwarding is enabled but the registered thread is not
    /// in context; the kernel parks the mapped user vector in the thread's
    /// DUPID.
    SlowPath(UserVector),
}

/// The per-core forwarding state added to the local APIC: the two 256-bit
/// registers plus the vector→user-vector map the kernel programs at
/// registration time.
///
/// # Examples
///
/// ```
/// use xui_core::forwarding::{ApicForwarding, ForwardDecision};
/// use xui_core::vectors::{UserVector, Vector};
///
/// let mut fwd = ApicForwarding::new();
/// fwd.map(Vector::new(8), UserVector::new(2)?)?;
/// fwd.activate(Vector::new(8));
/// assert_eq!(
///     fwd.route(Vector::new(8)),
///     ForwardDecision::FastPath(UserVector::new(2)?),
/// );
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApicForwarding {
    enabled: VectorBitmap,
    active: VectorBitmap,
    /// Kernel-programmed translation from conventional vector to the user
    /// vector assigned at registration, sorted by conventional vector. A
    /// core forwards a handful of vectors at most, so a short list beats
    /// a 256-entry table that every core would allocate up front.
    map: Vec<(u8, UserVector)>,
}

impl Default for ApicForwarding {
    fn default() -> Self {
        Self::new()
    }
}

impl ApicForwarding {
    /// Creates forwarding state with no vectors forwarded.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: VectorBitmap::new(),
            active: VectorBitmap::new(),
            map: Vec::new(),
        }
    }

    /// Returns to the state [`ApicForwarding::new`] builds (nothing
    /// forwarded), keeping the map's capacity.
    pub fn reset(&mut self) {
        let Self { enabled, active, map } = self;
        *enabled = VectorBitmap::new();
        *active = VectorBitmap::new();
        map.clear();
    }

    /// Kernel side: maps a conventional vector to a user vector and
    /// enables forwarding for it.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::VectorAlreadyForwarded`] if the conventional
    /// vector is already mapped — the per-core vector space is shared
    /// (§4.5 closing limitation).
    pub fn map(&mut self, vector: Vector, uv: UserVector) -> Result<(), XuiError> {
        if self.enabled.get(vector) {
            return Err(XuiError::VectorAlreadyForwarded {
                vector: vector.as_u8(),
            });
        }
        self.enabled.set(vector);
        let at = self.map.partition_point(|&(v, _)| v < vector.as_u8());
        self.map.insert(at, (vector.as_u8(), uv));
        Ok(())
    }

    /// Kernel side: removes a mapping (device unregistered).
    pub fn unmap(&mut self, vector: Vector) {
        self.enabled.clear(vector);
        self.active.clear(vector);
        self.map.retain(|&(v, _)| v != vector.as_u8());
    }

    /// Marks the vector's registered thread as currently running on this
    /// core (sets `forwarded_active[v]`). Done by the kernel when the
    /// thread resumes.
    pub fn activate(&mut self, vector: Vector) {
        self.active.set(vector);
    }

    /// Clears `forwarded_active[v]` when the registered thread is switched
    /// out.
    pub fn deactivate(&mut self, vector: Vector) {
        self.active.clear(vector);
    }

    /// Bulk-loads the active set from a thread's saved 256-bit vector on
    /// context switch in (§4.5: "This vector is written to
    /// forwarded_active when a thread resumes execution").
    pub fn load_active(&mut self, active: VectorBitmap) {
        self.active = active;
    }

    /// Saves the active set for a context switch out.
    #[must_use]
    pub fn save_active(&self) -> VectorBitmap {
        self.active
    }

    /// The `forwarding_enabled` register.
    #[must_use]
    pub fn enabled(&self) -> &VectorBitmap {
        &self.enabled
    }

    /// The `forwarded_active` register.
    #[must_use]
    pub fn active(&self) -> &VectorBitmap {
        &self.active
    }

    /// Routes an arriving device interrupt (§4.5 worked example with
    /// vector 8).
    #[must_use]
    pub fn route(&self, vector: Vector) -> ForwardDecision {
        if !self.enabled.get(vector) {
            return ForwardDecision::Legacy;
        }
        let uv = self
            .map
            .iter()
            .find(|&&(v, _)| v == vector.as_u8())
            .map(|&(_, uv)| uv)
            .expect("enabled bit implies a kernel-programmed mapping");
        if self.active.get(vector) {
            ForwardDecision::FastPath(uv)
        } else {
            ForwardDecision::SlowPath(uv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    #[test]
    fn bitmap_boundaries() {
        let mut bm = VectorBitmap::new();
        for raw in [0u8, 63, 64, 127, 128, 191, 192, 255] {
            bm.set(Vector::new(raw));
            assert!(bm.get(Vector::new(raw)), "bit {raw}");
        }
        assert_eq!(bm.count(), 8);
        let listed: Vec<u8> = bm.iter().map(Vector::as_u8).collect();
        assert_eq!(listed, vec![0, 63, 64, 127, 128, 191, 192, 255]);
    }

    #[test]
    fn bitmap_word_round_trip() {
        let mut bm = VectorBitmap::new();
        bm.set(Vector::new(200));
        assert_eq!(VectorBitmap::from_words(bm.words()), bm);
    }

    #[test]
    fn unmapped_vector_is_legacy() {
        let fwd = ApicForwarding::new();
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::Legacy);
    }

    #[test]
    fn fast_path_when_active() {
        let mut fwd = ApicForwarding::new();
        fwd.map(Vector::new(8), uv(2)).unwrap();
        fwd.activate(Vector::new(8));
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::FastPath(uv(2)));
    }

    #[test]
    fn slow_path_when_thread_not_running() {
        let mut fwd = ApicForwarding::new();
        fwd.map(Vector::new(8), uv(2)).unwrap();
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::SlowPath(uv(2)));
        fwd.activate(Vector::new(8));
        fwd.deactivate(Vector::new(8));
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::SlowPath(uv(2)));
    }

    #[test]
    fn double_map_rejected() {
        let mut fwd = ApicForwarding::new();
        fwd.map(Vector::new(8), uv(2)).unwrap();
        assert_eq!(
            fwd.map(Vector::new(8), uv(3)),
            Err(XuiError::VectorAlreadyForwarded { vector: 8 })
        );
    }

    #[test]
    fn unmap_returns_vector_to_legacy() {
        let mut fwd = ApicForwarding::new();
        fwd.map(Vector::new(8), uv(2)).unwrap();
        fwd.unmap(Vector::new(8));
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::Legacy);
        // And the vector can be re-mapped.
        fwd.map(Vector::new(8), uv(5)).unwrap();
    }

    #[test]
    fn context_switch_save_load_active() {
        let mut fwd = ApicForwarding::new();
        fwd.map(Vector::new(8), uv(2)).unwrap();
        fwd.map(Vector::new(9), uv(3)).unwrap();
        fwd.activate(Vector::new(8));
        let saved = fwd.save_active();
        fwd.load_active(VectorBitmap::new()); // other thread: nothing active
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::SlowPath(uv(2)));
        fwd.load_active(saved);
        assert_eq!(fwd.route(Vector::new(8)), ForwardDecision::FastPath(uv(2)));
        assert_eq!(fwd.route(Vector::new(9)), ForwardDecision::SlowPath(uv(3)));
    }

    #[test]
    fn dupid_post_and_take() {
        let mut dupid = Dupid::new();
        assert!(!dupid.has_posted());
        dupid.post(uv(1));
        dupid.post(uv(5));
        assert!(dupid.has_posted());
        assert_eq!(dupid.take(), (1 << 1) | (1 << 5));
        assert!(!dupid.has_posted());
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Set/clear on arbitrary vectors leaves exactly the expected set.
        #[test]
        fn bitmap_matches_reference_set(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 0..200)) {
            let mut bm = VectorBitmap::new();
            let mut reference = std::collections::BTreeSet::new();
            for (raw, set) in ops {
                let v = Vector::new(raw);
                if set {
                    bm.set(v);
                    reference.insert(raw);
                } else {
                    bm.clear(v);
                    reference.remove(&raw);
                }
            }
            prop_assert_eq!(bm.count() as usize, reference.len());
            let listed: Vec<u8> = bm.iter().map(Vector::as_u8).collect();
            let expected: Vec<u8> = reference.into_iter().collect();
            prop_assert_eq!(listed, expected);
        }
    }
}
