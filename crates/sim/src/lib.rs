//! # xui-sim
//!
//! A cycle-level, multi-core, out-of-order pipeline simulator purpose-built
//! to reproduce the microarchitectural results of *"Extended User
//! Interrupts (xUI)"* (ASPLOS '25): the cost anatomy of Intel UIPI (§3),
//! and the xUI mechanisms — **tracked interrupts** (§4.2), **hardware
//! safepoints** (§4.4), the **KB_Timer** (§4.3) and **interrupt
//! forwarding** fast-path delivery (§4.5).
//!
//! The model implements the phenomena the paper's numbers come from rather
//! than assuming them:
//!
//! - a Table 3 out-of-order backend (ROB/IQ/LQ/SQ, FU contention,
//!   squash-width-limited recovery) and a decoupled front-end with branch
//!   prediction and MSROM micro-sequencing;
//! - `senduipi` as a 57-µop MSROM routine with two serializing MSR writes
//!   (§3.5);
//! - three interrupt delivery strategies: **flush**, **drain**, and xUI
//!   **tracking** with re-injection after misprediction flushes;
//! - a MESI-lite memory system where UPID reads miss when a remote sender
//!   just posted — the shared-memory cost that the KB_Timer and interrupt
//!   forwarding avoid.
//!
//! See `xui-workloads` for the benchmark programs that run on this
//! simulator, and `xui-scenario` for the experiments that regenerate the
//! paper's figures and tables from it.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod config;
pub mod core;
pub mod interp;
pub mod isa;
pub mod mem;
pub mod microcode;
pub mod system;
pub mod trace;

pub use config::{CoreConfig, DeliveryStrategy, InterferenceConfig, MemConfig, SystemConfig};
pub use core::{Core, CoreStats, IrqTiming, SimUittEntry};
pub use isa::{Inst, Op, Pc, Program, Reg};
pub use system::{Device, System};
