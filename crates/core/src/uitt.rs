//! The User Interrupt Target Table (UITT).
//!
//! A UITT is a per-process, kernel-managed table granting the process
//! permission to send user interrupts. Each valid entry is a tuple
//! ⟨UPID address, user vector⟩ (§3.1). `senduipi` takes an index into this
//! table; an invalid index faults.
//!
//! Each slot is stored in its packed 16-byte [`abi::UittEntry`] memory
//! form, the one definition of the entry layout in the workspace.

use serde::{Deserialize, Serialize};
use xui_uipi_abi as abi;

use crate::error::XuiError;
use crate::vectors::UserVector;

/// Address of a UPID in (simulated) shared memory.
///
/// UITT entries reference UPIDs by address because the descriptor is a
/// memory-resident structure that sender microcode reads and RMWs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct UpidAddr(pub u64);

impl UpidAddr {
    /// Returns the raw address.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Index of an entry in a [`Uitt`], the operand of `senduipi`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct UittIndex(pub usize);

/// A per-process User Interrupt Target Table.
///
/// The kernel appends entries via `register_sender(...)`; the process sends
/// with `senduipi(index)`.
///
/// # Examples
///
/// ```
/// use xui_core::uitt::{Uitt, UpidAddr};
/// use xui_core::vectors::UserVector;
///
/// let mut uitt = Uitt::new();
/// let idx = uitt.register(UpidAddr(0x1000), UserVector::new(3)?);
/// let entry = uitt.lookup(idx)?;
/// assert_eq!(entry.target_upid_addr, 0x1000);
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Uitt {
    entries: Vec<abi::UittEntry>,
}

impl Uitt {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a valid entry, returning the index `senduipi` should use.
    pub fn register(&mut self, upid: UpidAddr, vector: UserVector) -> UittIndex {
        self.entries.push(abi::UittEntry::valid_entry(vector.as_u8(), upid.as_u64()));
        UittIndex(self.entries.len() - 1)
    }

    /// Writes a valid entry into a specific slot (the allocator-driven
    /// kernel path: a bitmap allocator picks the slot, so freed entries
    /// are reused instead of the table growing forever). The table is
    /// extended with invalid entries as needed.
    pub fn register_at(&mut self, index: UittIndex, upid: UpidAddr, vector: UserVector) {
        if index.0 >= self.entries.len() {
            self.entries.resize(index.0 + 1, abi::UittEntry::new());
        }
        self.entries[index.0] = abi::UittEntry::valid_entry(vector.as_u8(), upid.as_u64());
    }

    /// Looks up an entry for `senduipi`.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::InvalidUittIndex`] if the index is out of range
    /// or the entry has been invalidated — the conditions under which
    /// hardware raises `#GP`.
    pub fn lookup(&self, index: UittIndex) -> Result<abi::UittEntry, XuiError> {
        match self.entries.get(index.0) {
            Some(entry) if entry.is_valid() => Ok(*entry),
            _ => Err(XuiError::InvalidUittIndex { index: index.0 }),
        }
    }

    /// Invalidates an entry (e.g. the destination unregistered its
    /// handler). Subsequent `senduipi` through this index faults.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::InvalidUittIndex`] if the index is out of range.
    pub fn invalidate(&mut self, index: UittIndex) -> Result<(), XuiError> {
        match self.entries.get_mut(index.0) {
            Some(entry) => {
                entry.set_valid(false);
                Ok(())
            }
            None => Err(XuiError::InvalidUittIndex { index: index.0 }),
        }
    }

    /// Removes every slot, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of slots in the table (valid or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry was ever registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    #[test]
    fn register_then_lookup() {
        let mut uitt = Uitt::new();
        let a = uitt.register(UpidAddr(0x100), uv(1));
        let b = uitt.register(UpidAddr(0x200), uv(2));
        assert_eq!(a, UittIndex(0));
        assert_eq!(b, UittIndex(1));
        assert_eq!(uitt.lookup(a).unwrap().target_upid_addr, 0x100);
        assert_eq!(uitt.lookup(b).unwrap().user_vec, 2);
        assert_eq!(uitt.len(), 2);
        assert!(!uitt.is_empty());
    }

    #[test]
    fn lookup_out_of_range_faults() {
        let uitt = Uitt::new();
        assert_eq!(
            uitt.lookup(UittIndex(0)),
            Err(XuiError::InvalidUittIndex { index: 0 })
        );
    }

    #[test]
    fn invalidated_entry_faults_but_keeps_indices_stable() {
        let mut uitt = Uitt::new();
        let a = uitt.register(UpidAddr(0x100), uv(1));
        let b = uitt.register(UpidAddr(0x200), uv(2));
        uitt.invalidate(a).unwrap();
        assert_eq!(
            uitt.lookup(a),
            Err(XuiError::InvalidUittIndex { index: 0 })
        );
        assert_eq!(uitt.lookup(b).unwrap().target_upid_addr, 0x200);
    }

    #[test]
    fn invalidate_out_of_range_faults() {
        let mut uitt = Uitt::new();
        assert!(uitt.invalidate(UittIndex(3)).is_err());
    }

    #[test]
    fn register_at_fills_a_specific_slot_and_pads_with_invalid() {
        let mut uitt = Uitt::new();
        uitt.register_at(UittIndex(2), UpidAddr(0x3000), uv(7));
        assert_eq!(uitt.len(), 3);
        assert!(uitt.lookup(UittIndex(0)).is_err());
        assert!(uitt.lookup(UittIndex(1)).is_err());
        assert_eq!(uitt.lookup(UittIndex(2)).unwrap(), abi::UittEntry::valid_entry(7, 0x3000));
        // Reuse of a freed slot overwrites in place.
        uitt.invalidate(UittIndex(2)).unwrap();
        uitt.register_at(UittIndex(2), UpidAddr(0x4000), uv(1));
        assert_eq!(uitt.lookup(UittIndex(2)).unwrap().target_upid_addr, 0x4000);
        assert_eq!(uitt.len(), 3, "no growth on reuse");
    }
}
