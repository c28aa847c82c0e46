//! # xui-uipi-abi
//!
//! The single bit-accurate definition of the Intel **UIPI** architectural
//! surface, shared by every model in the workspace: the protocol model
//! (`xui-core`) stores [`Upid`] and [`UittEntry`] directly, with no view
//! layer on top; the kernel model (`xui-kernel`) allocates its table
//! slots here; the cycle-level simulator's memory bridge (`xui-sim`)
//! derives its bit positions from these layouts; and the executable
//! reference oracle (`xui-oracle`) packs its flat state into [`Upid`]
//! images.
//!
//! Everything here is laid out exactly as the hardware stores it, so the
//! differential fuzzer can compare *serialized ABI bytes* between models
//! instead of abstract fields:
//!
//! - [`UintrNc`] — the packed notification-control word at the head of a
//!   UPID (ON bit 0, SN bit 1, NV byte 2, NDST dword 1).
//! - [`Upid`] — the 64-byte-aligned User Posted Interrupt Descriptor
//!   (`UintrNc` + the 64-bit PUIR posted-interrupt bitmap), with a
//!   lossless round-trip to and from its `[u8; 64]` memory image.
//! - [`UittEntry`] — the 16-byte User Interrupt Target Table entry
//!   (valid bit, user vector, target UPID address).
//! - [`MsrFile`] — the `IA32_UINTR_*` register file (0x985–0x98A) with
//!   typed read/write and reserved-bit masking. No model keeps MSR state
//!   yet, so this is the layout reference only.
//! - [`IndexAllocator`] — the deterministic bitmap allocator the kernel
//!   uses for receiver (UPID pool) and sender (UITT) table slots.
//!
//! Reserved bits are masked *deterministically*: every constructor and
//! every `unpack` clears them, so two models that agree on the defined
//! fields produce byte-identical images.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod msr;
pub mod nc;
pub mod uitt;
pub mod upid;

pub use alloc::IndexAllocator;
pub use msr::{MsrFile, UintrMsr};
pub use nc::UintrNc;
pub use uitt::UittEntry;
pub use upid::Upid;
