//! Deterministic fault injection and delivery-invariant checking for
//! the xUI reproduction.
//!
//! The paper's delivery guarantees (§4.2–§4.5) are liveness claims: no
//! user interrupt may be lost or duplicated across UPID posting,
//! `SN`/`UIF` blocking, KB_Timer rearm and forwarding. This crate makes
//! those claims testable under adversarial conditions:
//!
//! - [`plan::FaultPlan`] — a serializable DSL of faults (drop / delay /
//!   duplicate / reorder posts, flip `SN`/`UIF` in time windows, stall
//!   the timer core, clamp NIC rings, reorder accelerator completions),
//!   replayable from `(seed, plan)`;
//! - [`inject::FaultInjector`] — the deterministic interpreter consulted
//!   by the fault-aware run paths in `runtime`, `net` and the scenario
//!   binaries;
//! - [`invariants`] — a checker over the `xui-telemetry` event stream
//!   asserting no-lost-wakeup, no-duplicate-delivery, PIR-drained-
//!   before-idle and bounded-delivery-latency-once-unblocked, plus
//!   parameterized per-vector-class latency obligations
//!   ([`invariants::LatencyObligation`]);
//! - [`jitter`] — the exact worst-case / jitter-CDF reducer the
//!   worst-case scenario band (`wc_*` presets) reports through;
//! - [`recovery::DegradeGuard`] — the fallback-to-polling policy used
//!   when injected faults exceed a plan's threshold;
//! - [`conformance`] — applies a plan to a send schedule and derives
//!   the deliveries the faulted schedule obliges (coalesced,
//!   highest-vector-first per batch); the conformance rows of the
//!   fault-injection suite replay it through `xui_oracle`'s differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod inject;
pub mod invariants;
pub mod jitter;
pub mod plan;
pub mod recovery;

pub use conformance::{check_schedule, effective_sends, expected_deliveries, ScheduledSend};
pub use inject::{FaultInjector, InjectionLog, PostAction};
pub use invariants::{
    check, check_with_obligations, InvariantConfig, InvariantKind, InvariantReport,
    LatencyObligation, Violation,
};
pub use jitter::{CdfPoint, JitterCdf, LatencySamples, CDF_GRID};
pub use plan::{FaultOp, FaultPlan};
pub use recovery::DegradeGuard;
