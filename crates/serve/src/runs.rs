//! Run lifecycle management for the control plane: every submitted run
//! gets a [`BroadcastHub`] for live subscribers, a [`RingRecorder`]
//! holding the latest window of its lifecycle telemetry, and a metrics
//! shard — all fed from the scenario runner's progress hook through a
//! [`BroadcastRecorder`], so the artifacts stay byte-identical to an
//! offline `xui run` while any number of clients watch.
//!
//! Loss accounting is layered exactly like the rest of the telemetry
//! stack: the ring's overflow shows up as `telemetry.ring_dropped_events`
//! in every metrics snapshot and in the run status document, and each
//! SSE subscriber's own loss is tracked per-queue by the hub.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Serialize, Value};
use xui_scenario::{
    CancelError, ProgressHook, RunId, RunOptions, RunProgress, RunQueue, RunStatus, Scenario,
    SubmitError,
};
use xui_telemetry::{
    BroadcastHub, BroadcastRecorder, BroadcastSubscriber, Event, MetricsShard, Recorder,
    RingRecorder,
};

/// Upper bound on the pre-run hold a submission may request (the hold
/// exists so stream clients can attach before a fast run finishes; it
/// must never become a way to park a worker forever).
pub const MAX_HOLD_MS: u64 = 10_000;

/// Lifecycle telemetry ring capacity per run.
const RUN_RING_CAP: usize = 4096;

/// Per-run live state shared between the executing worker (producer)
/// and the HTTP handlers (consumers).
#[derive(Debug)]
pub struct RunShared {
    hub: BroadcastHub,
    rec: Mutex<BroadcastRecorder<RingRecorder>>,
    metrics: Mutex<MetricsShard>,
    /// Monotonic sequence used as the virtual timestamp of lifecycle
    /// events (a control plane has no simulation clock to borrow).
    seq: AtomicU64,
}

impl RunShared {
    fn new() -> Self {
        let hub = BroadcastHub::new();
        Self {
            rec: Mutex::new(BroadcastRecorder::new(
                RingRecorder::new(RUN_RING_CAP),
                hub.clone(),
            )),
            hub,
            metrics: Mutex::new(MetricsShard::scoped("serve")),
            seq: AtomicU64::new(0),
        }
    }

    /// The hub a stream handler subscribes through.
    #[must_use]
    pub fn hub(&self) -> &BroadcastHub {
        &self.hub
    }

    /// Attaches a live subscriber with the given queue capacity.
    #[must_use]
    pub fn subscribe(&self, cap: usize) -> BroadcastSubscriber {
        self.hub.subscribe(cap)
    }

    /// The retained lifecycle events (latest window, oldest first).
    #[must_use]
    pub fn ring_events(&self) -> Vec<Event> {
        self.rec.lock().expect("run recorder poisoned").inner().events()
    }

    /// Lifecycle events overwritten because the ring filled.
    #[must_use]
    pub fn ring_dropped_events(&self) -> u64 {
        self.rec
            .lock()
            .expect("run recorder poisoned")
            .inner()
            .dropped_events()
    }

    /// Records one lifecycle event: into the ring and out to every
    /// subscriber.
    fn record(&self, name: &'static str, args: &[(&'static str, u64)]) {
        let ts = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ev = Event::instant(ts, 0, name);
        for &(k, v) in args {
            ev = ev.with_arg(k, v);
        }
        self.rec.lock().expect("run recorder poisoned").record(ev);
    }

    /// The current metrics snapshot as compact JSON, with the ring's
    /// overflow counter spliced in as `telemetry.ring_dropped_events`.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let mut snap = self.metrics.lock().expect("run metrics poisoned").snapshot();
        snap.counters
            .insert("telemetry.ring_dropped_events".to_string(), self.ring_dropped_events());
        serde_json::to_string(&snap).unwrap_or_else(|_| "{}".to_string())
    }

    /// Publishes the current metrics snapshot to every subscriber.
    fn publish_metrics(&self) {
        let json = self.metrics_json();
        self.hub.publish_snapshot("metrics", &json);
    }

    fn bump(&self, name: &str, n: u64) {
        self.metrics.lock().expect("run metrics poisoned").inc(name, n);
    }
}

/// Renders a run status (plus live telemetry accounting when the run is
/// tracked) as the `/api/runs/<id>` JSON document.
fn status_with_live(status: &RunStatus, shared: Option<&Arc<RunShared>>) -> Value {
    let mut v = status.to_value();
    if let Value::Object(entries) = &mut v {
        if let Some(s) = shared {
            entries.push((
                "ring_dropped_events".to_string(),
                Value::UInt(u128::from(s.ring_dropped_events())),
            ));
            entries.push((
                "live_events".to_string(),
                Value::UInt(s.ring_events().len() as u128),
            ));
            let subs: Vec<Value> = s
                .hub()
                .subscriber_stats()
                .iter()
                .map(|st| {
                    Value::Object(vec![
                        (
                            "delivered_events".to_string(),
                            Value::UInt(u128::from(st.delivered_events())),
                        ),
                        (
                            "dropped_events".to_string(),
                            Value::UInt(u128::from(st.dropped_events())),
                        ),
                        ("detached".to_string(), Value::Bool(st.is_detached())),
                    ])
                })
                .collect();
            entries.push(("subscribers".to_string(), Value::Array(subs)));
        }
    }
    v
}

/// The run manager: a [`RunQueue`] plus the per-run live state the HTTP
/// layer serves from.
pub struct RunManager {
    queue: RunQueue,
    shared: Arc<Mutex<BTreeMap<RunId, Arc<RunShared>>>>,
}

impl std::fmt::Debug for RunManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunManager").field("queue", &self.queue).finish()
    }
}

impl RunManager {
    /// Creates a manager whose queue has `workers` workers and at most
    /// `depth` waiting runs.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `depth == 0`.
    #[must_use]
    pub fn new(workers: usize, depth: usize) -> Self {
        let shared: Arc<Mutex<BTreeMap<RunId, Arc<RunShared>>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let observed = Arc::clone(&shared);
        let queue = RunQueue::with_observer(
            workers,
            depth,
            Some(Arc::new(move |id, state| {
                // The submit path inserts the shared entry after the
                // queue assigns the id, so the `Queued` transition can
                // race the insert; every later transition sees it.
                let entry = observed.lock().expect("run shared map poisoned").get(&id).cloned();
                if let Some(s) = entry {
                    s.hub.publish_snapshot(
                        "state",
                        &format!(
                            "{{\"id\":{id},\"state\":{}}}",
                            serde_json::to_string(state.name()).unwrap_or_default()
                        ),
                    );
                    if state.is_terminal() {
                        s.publish_metrics();
                        s.hub.close();
                    }
                }
            })),
        );
        Self { queue, shared }
    }

    /// Validates and enqueues `scenario`. `hold_ms` delays the start of
    /// execution (capped at [`MAX_HOLD_MS`]) so stream clients can
    /// attach before a fast run finishes; `save` additionally writes
    /// artifacts under `results/` exactly like `xui run` does.
    ///
    /// # Errors
    ///
    /// Propagates [`SubmitError`] from the queue.
    pub fn submit(
        &self,
        scenario: Scenario,
        hold_ms: u64,
        save: bool,
    ) -> Result<RunId, SubmitError> {
        let shared = Arc::new(RunShared::new());
        let hook_shared = Arc::clone(&shared);
        let hold = Duration::from_millis(hold_ms.min(MAX_HOLD_MS));
        let progress = ProgressHook::new(move |p| {
            let s = &hook_shared;
            match p {
                RunProgress::Started { .. } => {
                    s.record("run_started", &[]);
                    s.bump("runs_started", 1);
                    s.publish_metrics();
                    if !hold.is_zero() {
                        std::thread::sleep(hold);
                    }
                }
                RunProgress::Artifact { id, bytes, index } => {
                    s.record(
                        "artifact_emitted",
                        &[("index", *index as u64), ("bytes", *bytes as u64)],
                    );
                    s.hub.publish_snapshot(
                        "artifact",
                        &format!(
                            "{{\"id\":{},\"index\":{index},\"bytes\":{bytes}}}",
                            serde_json::to_string(id).unwrap_or_default()
                        ),
                    );
                    s.bump("artifacts_emitted", 1);
                    s.bump("artifact_bytes", *bytes as u64);
                    s.publish_metrics();
                }
                RunProgress::Finished { passed, artifacts } => {
                    s.record(
                        "run_finished",
                        &[("passed", u64::from(*passed)), ("artifacts", *artifacts as u64)],
                    );
                    s.bump("runs_finished", 1);
                    s.publish_metrics();
                }
            }
        });
        let opts = RunOptions { save, progress, ..RunOptions::default() };
        let id = self.queue.submit(scenario, opts)?;
        self.shared
            .lock()
            .expect("run shared map poisoned")
            .insert(id, shared);
        Ok(id)
    }

    /// The live state of run `id`, if tracked.
    #[must_use]
    pub fn run_shared(&self, id: RunId) -> Option<Arc<RunShared>> {
        self.shared.lock().expect("run shared map poisoned").get(&id).cloned()
    }

    /// The queue's status snapshot for run `id`.
    #[must_use]
    pub fn status(&self, id: RunId) -> Option<RunStatus> {
        self.queue.status(id)
    }

    /// True once run `id` is `done` or `failed`.
    #[must_use]
    pub fn is_terminal(&self, id: RunId) -> bool {
        self.status(id)
            .is_some_and(|s| s.state.is_terminal())
    }

    /// The `/api/runs/<id>` JSON document: the queue status extended
    /// with ring overflow and per-subscriber loss accounting.
    #[must_use]
    pub fn status_value(&self, id: RunId) -> Option<Value> {
        let status = self.queue.status(id)?;
        Some(status_with_live(&status, self.run_shared(id).as_ref()))
    }

    /// The `/api/runs` JSON document: every run, oldest first.
    #[must_use]
    pub fn list_value(&self) -> Value {
        Value::Array(
            self.queue
                .list()
                .iter()
                .map(|st| status_with_live(st, self.run_shared(st.id).as_ref()))
                .collect(),
        )
    }

    /// The artifact body for `(run, artifact-id)`, byte-identical to
    /// what the offline runner produced, once the run finished.
    #[must_use]
    pub fn artifact(&self, id: RunId, artifact: &str) -> Option<String> {
        self.queue
            .report(id)
            .and_then(|r| r.artifact(artifact).map(str::to_string))
    }

    /// Cancels a still-queued run (the `DELETE /api/runs/<id>` verb).
    /// The queue pulls the job before any worker can claim it and marks
    /// the run `failed` with a cancellation error; the terminal
    /// transition flows through the usual observer, so stream clients
    /// see the state snapshot and the hub closes. Running and terminal
    /// runs are refused — the status history stays queryable.
    ///
    /// # Errors
    ///
    /// Propagates [`CancelError`] from the queue.
    pub fn delete(&self, id: RunId) -> Result<RunStatus, CancelError> {
        self.queue.cancel(id)
    }

    /// Blocks until run `id` is terminal or `timeout` passes.
    #[must_use]
    pub fn wait_terminal(&self, id: RunId, timeout: Duration) -> Option<RunStatus> {
        self.queue.wait_terminal(id, timeout)
    }

    /// Shuts the queue down (cancelling queued runs) and joins its
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.queue.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use xui_scenario::{registry, RunState};
    use xui_telemetry::StreamItem;

    use super::*;

    fn fast_scenario() -> Scenario {
        registry::find("fig2_timeline").expect("preset exists")
    }

    #[test]
    fn lifecycle_events_reach_ring_and_subscriber() {
        let mgr = RunManager::new(1, 4);
        // Hold long enough to attach a subscriber before execution.
        let id = mgr.submit(fast_scenario(), 300, false).expect("submitted");
        let shared = mgr.run_shared(id).expect("tracked");
        let sub = shared.subscribe(1024);
        let status = mgr.wait_terminal(id, Duration::from_secs(120)).expect("known");
        assert_eq!(status.state, RunState::Done);

        let ring = shared.ring_events();
        assert_eq!(ring.first().map(|e| e.name), Some("run_started"));
        assert_eq!(ring.last().map(|e| e.name), Some("run_finished"));
        assert!(ring.iter().any(|e| e.name == "artifact_emitted"));
        assert_eq!(shared.ring_dropped_events(), 0);

        // The subscriber saw artifacts, metrics and the terminal state.
        let items = sub.drain();
        let mut kinds: Vec<String> = Vec::new();
        for item in &items {
            match item {
                StreamItem::Event(e) => kinds.push(format!("ev:{}", e.name)),
                StreamItem::Snapshot { kind, .. } => kinds.push(format!("snap:{kind}")),
            }
        }
        assert!(kinds.iter().any(|k| k == "ev:artifact_emitted"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "snap:metrics"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "snap:state"), "{kinds:?}");
        assert!(sub.is_closed(), "hub closes when the run ends");
        mgr.shutdown();
    }

    #[test]
    fn status_value_surfaces_ring_and_subscriber_accounting() {
        let mgr = RunManager::new(1, 4);
        let id = mgr.submit(fast_scenario(), 0, false).expect("submitted");
        let _ = mgr.wait_terminal(id, Duration::from_secs(120));
        let v = mgr.status_value(id).expect("status");
        let Value::Object(entries) = &v else { panic!("expected object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        for key in ["id", "state", "artifacts", "ring_dropped_events", "subscribers"] {
            assert!(keys.contains(&key), "missing `{key}` in {keys:?}");
        }
        mgr.shutdown();
    }

    #[test]
    fn metrics_json_always_carries_the_ring_counter() {
        let shared = RunShared::new();
        let json = shared.metrics_json();
        assert!(
            json.contains("\"telemetry.ring_dropped_events\":0"),
            "{json}"
        );
    }
}
