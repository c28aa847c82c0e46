//! # xui-scenario
//!
//! The declarative scenario layer: one composition path for every
//! experiment in the reproduction. A [`Scenario`] is a
//! serde-serializable spec — banner text, an optional fault plan and
//! base seed, and one [`Experiment`] variant whose payload struct
//! carries the workloads, sweep axes and constants — that [`runner::run`] hands to its experiment module. The execution
//! backend and the telemetry a run can feed follow from the variant. The
//! [`registry`] names a preset for every paper figure/table, extension
//! experiment, and ablation, and the `xui` CLI at the workspace root
//! drives the same path for both presets and scenario files.
//!
//! Around the runner sit the pieces every run shares: the
//! [`executor`] (the deterministic sweep-point fan-out and the bounded
//! worker pool under the run [`queue`]), the strict [`cli`] parser, and
//! the [`report`] helpers that print tables and write artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod executor;
mod experiments;
pub mod queue;
pub mod registry;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;

pub use cli::{CliError, CliSpec, Parsed};
pub use executor::{Sweep, SweepCtx, WorkerPool};
pub use queue::{CancelError, RunId, RunQueue, RunState, RunStatus, SubmitError};
pub use report::{banner, pct, save_json, write_atomic, AsciiChart, Table};
pub use runner::{run, Artifact, BenchOpts, ProgressHook, RunOptions, RunProgress, RunReport};
pub use spec::{Backend, DsaMode, Experiment, NamedWorkload, Scenario};
pub use sweep::{
    manifest_outcomes, merge_manifests, run_points, run_points_resuming, PointOutcome, ShardSpec,
    SweepPoint, SweepRun, SweepSpec,
};
