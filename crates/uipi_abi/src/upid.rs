//! The 64-byte User Posted Interrupt Descriptor.

use core::mem::{align_of, offset_of, size_of};

use crate::nc::UintrNc;

/// The UPID's size in memory: one cache line.
pub const UPID_BYTES: usize = 64;

/// A User Posted Interrupt Descriptor, 64-byte aligned exactly as the
/// hardware requires (`IA32_UINTR_PD` ignores the low 6 address bits).
///
/// Only the first 16 bytes are architecturally defined — the
/// notification-control word and the 64-bit PUIR posted-interrupt
/// bitmap; the remaining 48 bytes of the cache line are reserved and
/// always zero in packed images.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Upid {
    /// Notification control: ON/SN/NV/NDST.
    pub nc: UintrNc,
    /// Posted user interrupt requests, one bit per user vector.
    pub puir: u64,
}

// Compile-time layout contract: one cache line, PUIR in the second
// quadword.
const _: () = assert!(size_of::<Upid>() == UPID_BYTES);
const _: () = assert!(align_of::<Upid>() == 64);
const _: () = assert!(offset_of!(Upid, nc) == 0);
const _: () = assert!(offset_of!(Upid, puir) == 8);

impl Upid {
    /// An all-zero descriptor.
    #[must_use]
    pub const fn new() -> Self {
        Self { nc: UintrNc::new(), puir: 0 }
    }

    /// Builds a descriptor from its two 64-bit memory words (low word =
    /// control, high word = PUIR), masking reserved bits.
    #[must_use]
    pub fn from_words(low: u64, high: u64) -> Self {
        Self { nc: UintrNc::from_u64(low), puir: high }
    }

    /// The control word as a 64-bit little-endian load.
    #[must_use]
    pub fn low_word(&self) -> u64 {
        self.nc.to_u64()
    }

    /// The PUIR word.
    #[must_use]
    pub const fn high_word(&self) -> u64 {
        self.puir
    }

    /// Posts user vector `uv` (0..64) into PUIR; returns `true` when the
    /// bit was newly set.
    pub fn post(&mut self, uv: u8) -> bool {
        let bit = 1u64 << (uv & 0x3f);
        let was = self.puir & bit != 0;
        self.puir |= bit;
        !was
    }

    /// Atomically drains PUIR, returning the posted set.
    pub fn take_puir(&mut self) -> u64 {
        core::mem::take(&mut self.puir)
    }

    /// Serializes into the 64-byte cache-line image. Reserved bytes
    /// 16..64 are zero.
    #[must_use]
    pub fn pack(&self) -> [u8; UPID_BYTES] {
        let mut bytes = [0u8; UPID_BYTES];
        bytes[0..8].copy_from_slice(&self.nc.pack());
        bytes[8..16].copy_from_slice(&self.puir.to_le_bytes());
        bytes
    }

    /// Deserializes from a 64-byte cache-line image, masking reserved
    /// bits deterministically (status bits 7:2, reserved bytes, and the
    /// reserved tail of the line).
    #[must_use]
    pub fn unpack(bytes: &[u8; UPID_BYTES]) -> Self {
        let mut head = [0u8; 8];
        head.copy_from_slice(&bytes[0..8]);
        let mut puir = [0u8; 8];
        puir.copy_from_slice(&bytes[8..16]);
        Self { nc: UintrNc::unpack(&head), puir: u64::from_le_bytes(puir) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_image_places_fields_per_sdm() {
        let mut upid = Upid::new();
        upid.nc.set_on(true);
        upid.nc.nv = 0xec;
        upid.nc.ndst = 7;
        assert!(upid.post(33));
        let bytes = upid.pack();
        assert_eq!(bytes[0], 1, "ON lives in bit 0 of byte 0");
        assert_eq!(bytes[2], 0xec, "NV lives in byte 2");
        assert_eq!(bytes[4], 7, "NDST starts at byte 4");
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 1 << 33);
        assert!(bytes[16..].iter().all(|&b| b == 0), "tail is reserved-zero");
    }

    #[test]
    fn word_round_trip_matches_pack() {
        let mut upid = Upid::new();
        upid.nc.set_sn(true);
        upid.nc.ndst = 0x1234_5678;
        upid.puir = 0xdead_beef_f00d_cafe;
        let rebuilt = Upid::from_words(upid.low_word(), upid.high_word());
        assert_eq!(rebuilt, upid);
        assert_eq!(rebuilt.pack(), upid.pack());
    }

    #[test]
    fn take_puir_drains() {
        let mut upid = Upid::new();
        upid.post(0);
        upid.post(63);
        assert_eq!(upid.take_puir(), (1 << 0) | (1 << 63));
        assert_eq!(upid.puir, 0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use crate::nc::STATUS_MASK;

    proptest! {
        /// Any 64-byte pattern survives unpack→pack for the defined
        /// fields; reserved bits and the reserved tail are masked to
        /// zero, and a second round trip is the identity.
        #[test]
        fn cache_line_round_trip(bytes in any::<[u8; 64]>()) {
            let upid = Upid::unpack(&bytes);
            let repacked = upid.pack();
            prop_assert_eq!(repacked[0], bytes[0] & STATUS_MASK);
            prop_assert_eq!(repacked[2], bytes[2]);
            prop_assert_eq!(&repacked[4..16], &bytes[4..16]);
            prop_assert_eq!(repacked[1], 0);
            prop_assert_eq!(repacked[3], 0);
            prop_assert!(repacked[16..].iter().all(|&b| b == 0));
            prop_assert_eq!(Upid::unpack(&repacked), upid);
        }

        /// The two-word view and the byte view agree for any state.
        #[test]
        fn words_and_bytes_agree(low in any::<u64>(), high in any::<u64>()) {
            let upid = Upid::from_words(low, high);
            let bytes = upid.pack();
            prop_assert_eq!(u64::from_le_bytes(bytes[0..8].try_into().unwrap()), upid.low_word());
            prop_assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), high);
        }

        /// Writing ON, NV, NDST or PUIR never disturbs the other fields
        /// (field isolation in the Table 1 layout; SN is
        /// `nc::proptests::set_sn_touches_only_bit1`).
        #[test]
        fn field_isolation(low in any::<u64>(), high in any::<u64>(), on in any::<bool>(),
                           nv in any::<u8>(), ndst in any::<u32>(), puir in any::<u64>()) {
            let base = Upid::from_words(low, high);

            let mut u = base;
            u.nc.set_on(on);
            prop_assert_eq!(u.low_word() & !1, base.low_word() & !1);
            prop_assert_eq!(u.puir, base.puir);
            prop_assert_eq!(u.nc.on(), on);

            let mut u = base;
            u.nc.nv = nv;
            prop_assert_eq!(u.low_word() & !(0xff << 16), base.low_word() & !(0xff << 16));
            prop_assert_eq!(u.puir, base.puir);
            prop_assert_eq!((u.low_word() >> 16) & 0xff, u64::from(nv));

            let mut u = base;
            u.nc.ndst = ndst;
            prop_assert_eq!(u.low_word() as u32, base.low_word() as u32);
            prop_assert_eq!(u.puir, base.puir);
            prop_assert_eq!(u.low_word() >> 32, u64::from(ndst));

            let mut u = base;
            u.puir = puir;
            prop_assert_eq!(u.low_word(), base.low_word());
            prop_assert_eq!(u.high_word(), puir);
        }

        /// Posting vectors accumulates exactly the posted set, and
        /// draining returns it (no interrupt lost or invented at the
        /// descriptor level).
        #[test]
        fn post_then_drain_is_lossless(vectors in proptest::collection::vec(0u8..64, 0..32)) {
            let mut upid = Upid::new();
            let mut expected = 0u64;
            for uv in vectors {
                upid.post(uv);
                expected |= 1 << uv;
            }
            prop_assert_eq!(upid.puir, expected);
            prop_assert_eq!(upid.take_puir(), expected);
            prop_assert_eq!(upid.puir, 0);
        }

        /// Arbitrary interleavings of sender posts, kernel suspends (SN
        /// set on context-switch-out) and resumes (SN cleared, then
        /// notification processing drains PUIR) never lose a pending
        /// vector: at every step PUIR equals exactly the model's
        /// posted-but-undrained set, and each drain hands the receiver
        /// that whole set.
        #[test]
        fn post_suspend_resume_interleavings_never_lose_a_vector(
            ops in proptest::collection::vec((0u8..4, 0u8..64), 1..48),
        ) {
            let mut upid = Upid::new();
            let mut pending = 0u64; // model: posted, not yet drained
            let mut delivered = 0u64;
            let mut posted = 0u64;
            for (op, uv) in ops {
                let bit = 1u64 << uv;
                match op {
                    // Sender posts: legal whether or not SN is set (the
                    // PUIR RMW happens regardless; SN only suppresses the
                    // notification IPI).
                    0 | 1 => {
                        let novel = upid.post(uv);
                        prop_assert_eq!(novel, pending & bit == 0,
                            "novelty must reflect the pending set");
                        pending |= bit;
                        posted |= bit;
                    }
                    // Kernel suspends: the SN race window. Flipping SN
                    // must not clobber concurrent posts.
                    2 => upid.nc.set_sn(true),
                    // Resume: clear SN, notification processing drains.
                    _ => {
                        upid.nc.set_sn(false);
                        let drained = upid.take_puir();
                        prop_assert_eq!(drained, pending,
                            "drain returns exactly the pending set");
                        delivered |= drained;
                        pending = 0;
                    }
                }
                prop_assert_eq!(upid.puir, pending, "PUIR tracks the model set");
            }
            let final_drain = upid.take_puir();
            prop_assert_eq!(final_drain, pending);
            prop_assert_eq!(delivered | final_drain, posted,
                "every posted vector is delivered by some drain, none lost");
        }
    }
}
