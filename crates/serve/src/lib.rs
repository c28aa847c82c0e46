//! # xui-serve
//!
//! The live control plane of the reproduction: `xui serve` exposes the
//! declarative scenario layer over HTTP — browse the registry, enqueue
//! runs, watch a run's telemetry stream over server-sent events, and
//! fetch artifacts byte-identical to what the offline `xui run` path
//! writes.
//!
//! Everything is hand-rolled on `std::net` (the workspace builds
//! offline from vendored stubs; there is no async runtime to import):
//! an accept loop ([`Server`]) feeding a bounded worker pool, a
//! one-request HTTP/1.1 parser ([`http`]), and an SSE encoder ([`sse`])
//! over the telemetry crate's `BroadcastHub`. The core invariant is inherited
//! from the broadcast layer and tested end-to-end here: **streaming
//! never perturbs the run** — a slow subscriber loses events into an
//! explicit `dropped_events` counter, and on-disk/streamed artifacts
//! stay byte-identical whether zero or fifty clients watch.
//!
//! The [`load`] module turns the server on itself: an open-loop client
//! population (the same arrival model as the DES experiments) drives
//! request churn plus live SSE subscribers against an in-process
//! server, and the `serve_load` binary saves the measured
//! throughput/latency/loss as `results/serve_load.json`.
//!
//! See `docs/SERVE.md` for the endpoint reference and curl examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod load;
pub mod runs;
pub mod server;
pub mod sse;
pub mod sweeps;

pub use load::{consume_stream, http_request, run_load, LoadConfig, LoadReport, SubscriberReport};
pub use runs::{RunManager, RunShared, MAX_HOLD_MS};
pub use server::{Server, ServeConfig};
pub use sweeps::{SweepManager, SweepShared};
