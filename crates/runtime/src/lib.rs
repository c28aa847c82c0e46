//! # xui-runtime
//!
//! An Aspen-like user-level runtime model (§5.3): user threads
//! ([`uthread`]), work-stealing run queues ([`stealing`]), and the
//! preemptive request server of Figure 7 ([`server`]), which compares
//! no-preemption, UIPI-software-timer, and xUI-KB_Timer scheduling of
//! the paper's bimodal RocksDB workload under open-loop Poisson load.
//! [`tenants`] scales the model out: N tenant runtimes multiplexed
//! onto shared cores (KB_Timer multiplexing, §4.3), driven by
//! batch-drawn million-client arrival streams on the DES engine.
//! [`worstcase`] stresses the latency envelope: mixed-criticality
//! senders sharing a receiver with bulk interferer tenants, verdicted
//! through the fault checker's bounded-latency obligations.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
pub mod stealing;
pub mod tenants;
pub mod uthread;
pub mod worstcase;

pub use server::{run_server, run_server_with, ServerConfig, ServerReport};
pub use stealing::StealQueues;
pub use tenants::{
    run_multi_tenant, run_multi_tenant_metrics, MultiTenantConfig, MultiTenantReport,
    TenantSummary,
};
pub use uthread::{Uthread, UthreadId};
pub use worstcase::{
    run_worst_case, CriticalityMix, InterferenceKind, WorstCaseConfig, WorstCaseReport,
    HIGH_VECTOR,
};
