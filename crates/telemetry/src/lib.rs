//! Unified telemetry for the xUI workspace: structured event tracing, a
//! sharded metrics registry, and Chrome-trace/Perfetto export.
//!
//! # Design
//!
//! - **Events are virtual-time only.** Every [`Event`] carries a cycle or
//!   DES-tick timestamp from the simulation clock, never wall-clock, so
//!   traces and metrics are byte-reproducible across runs, machines and
//!   `XUI_BENCH_THREADS` settings.
//! - **Zero cost when off.** Instrumented code is generic over
//!   [`Recorder`]; with [`NullRecorder`] the `enabled()` check is a
//!   compile-time `false` and the whole call site folds away.
//! - **Deterministic aggregation.** [`metrics::Registry`] merges
//!   per-worker shards in shard-index order, and the Chrome exporter
//!   sorts stably by `(ts, recording order)`, so parallel sweeps emit
//!   identical artifacts for any worker count.
//!
//! # Quick start
//!
//! ```
//! use xui_telemetry::{chrome, Recorder, RingRecorder};
//!
//! let mut rec = RingRecorder::default_sized();
//! rec.begin(100, 0, "uipi_handler");
//! rec.instant(120, 0, "senduipi");
//! rec.end(160, 0, "uipi_handler");
//! let doc = chrome::trace_json(&rec.events());
//! let check = chrome::validate(&doc).unwrap();
//! assert_eq!(check.span_pairs, 1);
//! ```
//!
//! See `docs/TELEMETRY.md` for the event-name taxonomy and how the
//! `xui run` exposes this through `--trace` / `--metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod chrome;
pub mod des_probe;
pub mod event;
pub mod metrics;
pub mod recorder;

pub use broadcast::{
    BroadcastHub, BroadcastRecorder, BroadcastSubscriber, StreamItem, SubscriberStats,
};
pub use chrome::{trace_json, trace_json_grouped, validate, TraceCheck, TraceGroup};
pub use des_probe::DesProbe;
pub use event::{Args, Event, Phase, MAX_ARGS};
pub use metrics::{Gauge, MetricsShard, MetricsSnapshot, Registry};
pub use recorder::{event_json_line, NullRecorder, Recorder, RingRecorder};
