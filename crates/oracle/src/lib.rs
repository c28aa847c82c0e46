//! `xui-oracle`: an executable, deliberately *flat* reference model of
//! the UIPI/xUI architecture, plus differential schedule fuzzing.
//!
//! The crate has three parts, mirroring the paper's §3 (baseline UIPI),
//! §4.3 (KB_Timer) and §4.5 (interrupt forwarding):
//!
//! - [`spec`] — the oracle itself: a line-for-line transliteration of
//!   SDM-style pseudocode. No caching, no batching, no cleverness; one
//!   big `match` per event. Correctness is meant to be checkable by
//!   reading it next to `docs/ORACLE.md`.
//! - [`schedule`] — seeded generation of randomized event
//!   interleavings (sends, context switches, migrations, masking,
//!   timer programs, forwarded device interrupts), serializable as
//!   JSON so any schedule is its own reproducer.
//! - [`diff`] — the differential driver: replays a schedule through
//!   the oracle and through the `ProtocolModel`, `UintrKernel` and
//!   cycle-level `xui_sim::System`, compares observable outcomes, and
//!   shrinks divergences to minimal reproducers with ddmin.
//!
//! The oracle is the arbiter: when a model disagrees with it, either
//! the model is wrong (fix it, add a regression test) or the oracle is
//! missing a documented fidelity gap (record it in `docs/ORACLE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod schedule;
pub mod spec;

pub use diff::{
    check, check_timed_sends, check_with, fuzz_one, reproducer_json, shrink, shrink_with,
    CheckOptions, Divergence, Reproducer,
};
pub use schedule::{Event, ForwardLine, Schedule};
pub use spec::{Oracle, Outcome, TimerState};
