//! Identifier newtypes for the interrupt system: APIC IDs, conventional
//! 8-bit interrupt vectors, and the 6-bit user-vector space introduced by
//! UIPI (§3.1 of the paper).

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::error::XuiError;

/// Physical APIC identifier of a core.
///
/// Interrupt routing in x86 addresses *cores* by APIC ID (§3.1: "Destinations
/// are cores (addressed by APICID)"). APIC IDs are assigned at startup and
/// rarely change; UIPI stores the destination core's APIC ID in the `NDST`
/// field of the [`Upid`](xui_uipi_abi::Upid) so senders can find the core a
/// thread currently runs on.
///
/// # Examples
///
/// ```
/// use xui_core::vectors::ApicId;
///
/// let id = ApicId::new(3);
/// assert_eq!(id.as_u32(), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ApicId(u32);

impl ApicId {
    /// Creates an APIC ID from its raw 32-bit value.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw 32-bit value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ApicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "apic{}", self.0)
    }
}

impl From<u32> for ApicId {
    fn from(raw: u32) -> Self {
        Self::new(raw)
    }
}

/// A conventional 8-bit interrupt vector (0–255).
///
/// This is the per-core vector space shared by devices, timers, IPIs and —
/// with UIPI — the notification vector (`UINV`) used to signal that a user
/// interrupt has been posted.
///
/// # Examples
///
/// ```
/// use xui_core::vectors::Vector;
///
/// let nv = Vector::new(0xec);
/// assert_eq!(nv.as_u8(), 0xec);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Vector(u8);

impl Vector {
    /// Creates a vector from its raw 8-bit value.
    #[must_use]
    pub const fn new(raw: u8) -> Self {
        Self(raw)
    }

    /// Returns the raw 8-bit value.
    #[must_use]
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// Returns the vector as a `usize` index (for bitmap addressing).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u8> for Vector {
    fn from(raw: u8) -> Self {
        Self::new(raw)
    }
}

/// Number of distinct user vectors (the paper's "6-bit user vector, or UV",
/// §3.1).
pub const USER_VECTOR_COUNT: u8 = 64;

/// A 6-bit user interrupt vector (0–63).
///
/// UIPI creates a vector space orthogonal to the per-core 8-bit space so
/// user interrupts do not compete with the kernel for scarce vectors
/// (§3.1 limitation (2)). The user vector is what the receiving handler
/// observes, and it indexes the 64-bit `PIR` field of the
/// [`Upid`](xui_uipi_abi::Upid) as well as the `UIRR` register.
///
/// Construction is checked: values ≥ 64 are rejected.
///
/// # Examples
///
/// ```
/// use xui_core::vectors::UserVector;
///
/// let uv = UserVector::new(5)?;
/// assert_eq!(uv.as_u8(), 5);
/// assert!(UserVector::new(64).is_err());
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct UserVector(u8);

impl UserVector {
    /// Creates a user vector, validating that it fits in 6 bits.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UserVectorOutOfRange`] if `raw >= 64`.
    pub const fn new(raw: u8) -> Result<Self, XuiError> {
        if raw < USER_VECTOR_COUNT {
            Ok(Self(raw))
        } else {
            Err(XuiError::UserVectorOutOfRange { raw })
        }
    }

    /// Creates a user vector from the low 6 bits of `raw`, discarding the
    /// high bits. Mirrors what hardware does when a wider field is
    /// truncated into the UV space.
    #[must_use]
    pub const fn from_truncated(raw: u8) -> Self {
        Self(raw % USER_VECTOR_COUNT)
    }

    /// Returns the raw 6-bit value.
    #[must_use]
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// Returns the vector as a `usize` index (for `PIR`/`UIRR` bit
    /// addressing).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the single-bit mask this vector occupies in a 64-bit
    /// posted-interrupt register.
    #[must_use]
    pub const fn bit(self) -> u64 {
        1u64 << self.0
    }

    /// Iterates over every user vector, in increasing priority order.
    pub fn all() -> impl Iterator<Item = Self> {
        (0..USER_VECTOR_COUNT).map(Self)
    }
}

impl fmt::Display for UserVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uv{}", self.0)
    }
}

impl TryFrom<u8> for UserVector {
    type Error = XuiError;

    fn try_from(raw: u8) -> Result<Self, Self::Error> {
        Self::new(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apic_id_round_trips() {
        let id = ApicId::new(42);
        assert_eq!(id.as_u32(), 42);
        assert_eq!(ApicId::from(42u32), id);
        assert_eq!(id.to_string(), "apic42");
    }

    #[test]
    fn vector_round_trips() {
        let v = Vector::new(0xec);
        assert_eq!(v.as_u8(), 0xec);
        assert_eq!(v.index(), 0xec);
        assert_eq!(Vector::from(0xecu8), v);
    }

    #[test]
    fn user_vector_accepts_six_bits() {
        for raw in 0..USER_VECTOR_COUNT {
            let uv = UserVector::new(raw).expect("in range");
            assert_eq!(uv.as_u8(), raw);
            assert_eq!(uv.bit(), 1u64 << raw);
        }
    }

    #[test]
    fn user_vector_rejects_out_of_range() {
        for raw in USER_VECTOR_COUNT..=u8::MAX {
            assert_eq!(
                UserVector::new(raw),
                Err(XuiError::UserVectorOutOfRange { raw })
            );
        }
    }

    #[test]
    fn user_vector_truncation_wraps_into_range() {
        assert_eq!(UserVector::from_truncated(64).as_u8(), 0);
        assert_eq!(UserVector::from_truncated(65).as_u8(), 1);
        assert_eq!(UserVector::from_truncated(255).as_u8(), 63);
    }

    #[test]
    fn user_vector_all_is_sorted_and_complete() {
        let all: Vec<_> = UserVector::all().collect();
        assert_eq!(all.len(), usize::from(USER_VECTOR_COUNT));
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ordering_matches_raw_values() {
        assert!(UserVector::new(3).unwrap() < UserVector::new(7).unwrap());
        assert!(Vector::new(1) < Vector::new(200));
    }
}
