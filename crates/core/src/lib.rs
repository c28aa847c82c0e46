//! # xui-core
//!
//! An architectural model of Intel **UIPI** (user inter-processor
//! interrupts) and the **xUI** extensions from *"Extended User Interrupts
//! (xUI): Fast and Flexible Notification without Polling"* (ASPLOS '25):
//! tracked interrupts, the kernel-bypass timer (`KB_Timer`), hardware
//! safepoints, and interrupt forwarding.
//!
//! This crate contains the *protocol*: who reads and writes the
//! descriptors, and when. The UPID (Table 1) and UITT entry layouts are
//! defined once, in `xui-uipi-abi`; this crate stores those packed types
//! directly (the UITT is a table of `xui_uipi_abi::UittEntry`, the UPID
//! memory a map of `xui_uipi_abi::Upid`). It adds the DUPID, the
//! registers (UIF, UIRR, the APIC forwarding bitmaps, KB_Timer state),
//! the instruction semantics (`senduipi`, `uiret`,
//! `clui`/`stui`/`testui`, `set_timer`/`clear_timer`), and an executable
//! whole-system reference model ([`model::ProtocolModel`]). Timing lives in
//! the companion crates: `xui-sim` implements the same transitions at
//! cycle granularity in an out-of-order pipeline model, and `xui-des`-based
//! crates use the calibrated [`costs::CostModel`].
//!
//! ## Quick start
//!
//! ```
//! use xui_core::model::{CoreId, ProtocolModel};
//! use xui_core::vectors::UserVector;
//!
//! // A sender thread notifies a receiver thread with user vector 5.
//! let mut sys = ProtocolModel::new(2);
//! let sender = sys.create_thread();
//! let receiver = sys.create_thread();
//! sys.register_handler(receiver, 0x4000)?;
//! let route = sys.register_sender(sender, receiver, UserVector::new(5)?)?;
//! sys.schedule(sender, CoreId(0))?;
//! sys.schedule(receiver, CoreId(1))?;
//!
//! sys.senduipi(sender, route)?;
//! assert_eq!(sys.run_pending(receiver)?, vec![UserVector::new(5)?]);
//! # Ok::<(), xui_core::error::XuiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod error;
pub mod forwarding;
pub mod kb_timer;
pub mod model;
pub mod receiver;
pub mod recycle;
pub mod safepoint;
pub mod sender;
pub mod uif;
pub mod uirr;
pub mod uitt;
pub mod vectors;

pub use costs::{CostModel, NotifyMechanism};
pub use error::XuiError;
pub use vectors::{ApicId, UserVector, Vector};
