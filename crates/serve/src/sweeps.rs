//! Sweep orchestration for the control plane: `POST /api/sweeps`
//! expands a [`SweepSpec`] grid and drives every point through the
//! shared [`RunManager`], while a sweep-level `BroadcastHub` streams
//! per-point progress (`point` snapshots as each point is queued and as
//! it finishes, a final `sweep` summary) over the same SSE machinery the
//! per-run streams use.
//!
//! Each submitted sweep gets one monitor thread: it feeds points into
//! the run queue in expansion order (backing off while the queue is
//! full, so a grid larger than the queue depth still drains the whole
//! pool without over-committing it), then watches each run to a
//! terminal state. Server teardown shuts the run manager down first —
//! cancelling queued points — so monitors always terminate, and
//! [`SweepManager::shutdown`] joins them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{DeError, Deserialize, Serialize, Value};
use xui_scenario::sweep::SweepPoint;
use xui_scenario::{SubmitError, SweepSpec};
use xui_telemetry::{BroadcastHub, BroadcastSubscriber};

use crate::runs::RunManager;

/// How long the monitor backs off when the run queue is full.
const FULL_BACKOFF: Duration = Duration::from_millis(25);

/// How long each terminal-wait slice blocks before re-checking; bounded
/// so monitors notice manager shutdown promptly.
const WAIT_SLICE: Duration = Duration::from_millis(200);

/// One point's lifecycle as the sweep sees it.
#[derive(Debug, Clone, Serialize)]
pub struct PointState {
    /// Point name (`<base>@k=v,...`).
    pub name: String,
    /// The run id once the point entered the queue.
    pub run_id: Option<u64>,
    /// `pending` → `queued` → `done`/`failed`/`cancelled`.
    pub state: String,
    /// The experiment's pass criterion, once terminal.
    pub passed: Option<bool>,
}

impl PointState {
    fn is_terminal(&self) -> bool {
        matches!(self.state.as_str(), "done" | "failed" | "cancelled")
    }
}

/// Per-sweep live state shared between the monitor thread (producer)
/// and the HTTP handlers (consumers).
#[derive(Debug)]
pub struct SweepShared {
    id: u64,
    name: String,
    hub: BroadcastHub,
    points: Mutex<Vec<PointState>>,
}

impl SweepShared {
    fn new(id: u64, name: String, points: &[SweepPoint]) -> Self {
        Self {
            id,
            name,
            hub: BroadcastHub::new(),
            points: Mutex::new(
                points
                    .iter()
                    .map(|p| PointState {
                        name: p.name.clone(),
                        run_id: None,
                        state: "pending".to_string(),
                        passed: None,
                    })
                    .collect(),
            ),
        }
    }

    /// Attaches a live subscriber with the given queue capacity.
    #[must_use]
    pub fn subscribe(&self, cap: usize) -> BroadcastSubscriber {
        self.hub.subscribe(cap)
    }

    /// Whether every point reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.points().iter().all(PointState::is_terminal)
    }

    /// The current per-point states, in expansion order.
    #[must_use]
    pub fn points(&self) -> Vec<PointState> {
        self.points.lock().expect("sweep points poisoned").clone()
    }

    /// The `/api/sweeps/<id>` JSON document.
    #[must_use]
    pub fn status_value(&self) -> Value {
        let points = self.points();
        let done = points.iter().filter(|p| p.is_terminal()).count();
        let passed = if done == points.len() {
            Value::Bool(points.iter().all(|p| p.passed == Some(true)))
        } else {
            Value::Null
        };
        Value::Object(vec![
            ("id".to_string(), Value::UInt(u128::from(self.id))),
            ("sweep".to_string(), Value::Str(self.name.clone())),
            ("total".to_string(), Value::UInt(points.len() as u128)),
            ("done".to_string(), Value::UInt(done as u128)),
            ("passed".to_string(), passed),
            ("points".to_string(), points.to_value()),
        ])
    }

    fn update_point(&self, index: usize, f: impl FnOnce(&mut PointState)) {
        let json = {
            let mut points = self.points.lock().expect("sweep points poisoned");
            f(&mut points[index]);
            serde_json::to_string(&points[index]).unwrap_or_default()
        };
        self.hub.publish_snapshot("point", &json);
    }

    fn finish(&self) {
        let points = self.points();
        let summary = Value::Object(vec![
            ("id".to_string(), Value::UInt(u128::from(self.id))),
            ("done".to_string(), Value::UInt(points.len() as u128)),
            (
                "passed".to_string(),
                Value::Bool(points.iter().all(|p| p.passed == Some(true))),
            ),
        ]);
        self.hub
            .publish_snapshot("sweep", &serde_json::to_string(&summary).unwrap_or_default());
        self.hub.close();
    }
}

/// The sweep manager: expanded sweeps, their monitor threads, and the
/// per-sweep live state the HTTP layer serves from.
#[derive(Debug, Default)]
pub struct SweepManager {
    next_id: AtomicU64,
    sweeps: Mutex<BTreeMap<u64, Arc<SweepShared>>>,
    monitors: Mutex<Vec<JoinHandle<()>>>,
}

impl SweepManager {
    /// Expands `spec` and starts a monitor thread driving every point
    /// through `manager`; returns the sweep id and point count.
    ///
    /// # Errors
    ///
    /// Propagates expansion errors (bad grids, unknown presets) without
    /// submitting anything.
    pub fn submit(
        &self,
        manager: &Arc<RunManager>,
        shutting_down: &Arc<AtomicBool>,
        spec: &SweepSpec,
        save: bool,
    ) -> Result<(u64, usize), String> {
        let points = spec.expand()?;
        let total = points.len();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let shared = Arc::new(SweepShared::new(id, spec.name.clone(), &points));
        self.sweeps
            .lock()
            .expect("sweep map poisoned")
            .insert(id, Arc::clone(&shared));

        let mgr = Arc::clone(manager);
        let stop = Arc::clone(shutting_down);
        let monitor = std::thread::Builder::new()
            .name(format!("xui-sweep-monitor-{id}"))
            .spawn(move || drive_sweep(&mgr, &stop, &shared, points, save))
            .map_err(|e| format!("cannot spawn sweep monitor: {e}"))?;
        self.monitors.lock().expect("sweep monitors poisoned").push(monitor);
        Ok((id, total))
    }

    /// The live state of sweep `id`, if tracked.
    #[must_use]
    pub fn shared(&self, id: u64) -> Option<Arc<SweepShared>> {
        self.sweeps.lock().expect("sweep map poisoned").get(&id).cloned()
    }

    /// The `/api/sweeps` JSON document: every sweep, oldest first.
    #[must_use]
    pub fn list_value(&self) -> Value {
        Value::Array(
            self.sweeps
                .lock()
                .expect("sweep map poisoned")
                .values()
                .map(|s| s.status_value())
                .collect(),
        )
    }

    /// Joins every monitor thread. Call *after* the run manager shut
    /// down (which cancels queued points), or monitors may still be
    /// waiting on live runs.
    pub fn shutdown(&self) {
        let monitors: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.monitors.lock().expect("sweep monitors poisoned"));
        for m in monitors {
            let _ = m.join();
        }
    }
}

/// The monitor body: submit every point (backing off while the queue is
/// full), then watch each to a terminal state, publishing progress.
fn drive_sweep(
    mgr: &Arc<RunManager>,
    stop: &Arc<AtomicBool>,
    shared: &Arc<SweepShared>,
    points: Vec<SweepPoint>,
    save: bool,
) {
    let mut submitted: Vec<(usize, u64)> = Vec::with_capacity(points.len());
    'submit: for (i, point) in points.into_iter().enumerate() {
        loop {
            if stop.load(Ordering::Relaxed) {
                cancel_rest(shared, i);
                break 'submit;
            }
            match mgr.submit(point.scenario.clone(), 0, save) {
                Ok(run_id) => {
                    shared.update_point(i, |p| {
                        p.run_id = Some(run_id);
                        p.state = "queued".to_string();
                    });
                    submitted.push((i, run_id));
                    break;
                }
                Err(SubmitError::Full { .. }) => std::thread::sleep(FULL_BACKOFF),
                Err(SubmitError::ShuttingDown) => {
                    cancel_rest(shared, i);
                    break 'submit;
                }
                Err(SubmitError::Invalid(msg)) => {
                    // Expansion validated every point, so this is a
                    // runner-level regression; record it and move on.
                    let _ = msg;
                    shared.update_point(i, |p| {
                        p.state = "failed".to_string();
                        p.passed = Some(false);
                    });
                    break;
                }
            }
        }
    }

    for (i, run_id) in submitted {
        loop {
            let Some(status) = mgr.wait_terminal(run_id, WAIT_SLICE) else {
                // Unknown id: the manager was torn down under us.
                shared.update_point(i, |p| {
                    p.state = "cancelled".to_string();
                });
                break;
            };
            if status.state.is_terminal() {
                shared.update_point(i, |p| {
                    p.state = status.state.name().to_string();
                    p.passed = Some(status.passed.unwrap_or(false));
                });
                break;
            }
        }
    }
    shared.finish();
}

/// Marks every not-yet-submitted point from `from` on as cancelled.
fn cancel_rest(shared: &Arc<SweepShared>, from: usize) {
    let total = shared.points().len();
    for i in from..total {
        shared.update_point(i, |p| {
            if p.run_id.is_none() {
                p.state = "cancelled".to_string();
            }
        });
    }
}

/// Parses the `POST /api/sweeps` body: `{"sweep": <preset name or spec
/// object>, "save": bool}`.
///
/// # Errors
///
/// Returns a user-facing message for malformed bodies.
pub fn parse_sweep_submission(body: &str) -> Result<(SweepSpec, bool), String> {
    let v = serde_json::value_from_str(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let de = |e: DeError| format!("invalid body: {e}");
    let spec = match serde::field(&v, "sweep submission", "sweep").map_err(de)? {
        Value::Str(name) => xui_scenario::sweep::find_preset(&name)
            .ok_or_else(|| format!("unknown sweep `{name}` (see `xui list`)"))?,
        spec @ Value::Object(_) => {
            SweepSpec::from_value(&spec).map_err(|e| format!("invalid sweep spec: {e}"))?
        }
        Value::Null => return Err("the body needs a `sweep` field".to_string()),
        other => {
            return Err(format!("`sweep` must be a preset name or a spec object, got {other:?}"))
        }
    };
    let save: Option<bool> = serde::field(&v, "sweep submission", "save").map_err(de)?;
    Ok((spec, save.unwrap_or(false)))
}

/// The `202` body for an accepted sweep.
#[must_use]
pub fn accepted_json(id: u64, name: &str, total: usize) -> String {
    format!(
        "{{\"id\":{id},\"sweep\":{},\"points\":{total},\"status\":\"/api/sweeps/{id}\",\"events\":\"/api/sweeps/{id}/events\"}}",
        serde_json::to_string(name).unwrap_or_default()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_parsing_accepts_presets_and_inline_specs() {
        let (spec, save) =
            parse_sweep_submission("{\"sweep\":\"sweep_fig2_grid\",\"save\":true}").expect("parses");
        assert_eq!(spec.name, "sweep_fig2_grid");
        assert!(save);

        let inline = xui_scenario::sweep::find_preset("sweep_fig2_grid").unwrap().to_json();
        let (spec, save) =
            parse_sweep_submission(&format!("{{\"sweep\":{inline}}}")).expect("inline parses");
        assert_eq!(spec.name, "sweep_fig2_grid");
        assert!(!save);
    }

    #[test]
    fn submission_parsing_rejects_garbage() {
        assert!(parse_sweep_submission("not json").is_err());
        assert!(parse_sweep_submission("{}").is_err());
        assert!(parse_sweep_submission("{\"sweep\":\"no_such_sweep\"}").is_err());
        assert!(parse_sweep_submission("{\"sweep\":3}").is_err());
        assert!(parse_sweep_submission("{\"sweep\":\"sweep_fig2_grid\",\"save\":3}").is_err());
    }

    #[test]
    fn a_sweep_drives_every_point_to_terminal_and_closes_its_hub() {
        let mgr = Arc::new(RunManager::new(2, 4));
        let stop = Arc::new(AtomicBool::new(false));
        let sweeps = SweepManager::default();
        // A 4-point grid through a depth-4 queue exercises the
        // backoff-on-full path without slowing the test down.
        let spec = SweepSpec::from_json(
            r#"{
                "name": "serve_test",
                "scenario": "fig2_timeline",
                "grid": {
                    "sender_countdown": [500, 600],
                    "receiver_countdown": [20000, 30000]
                }
            }"#,
        )
        .expect("spec parses");
        let (id, total) = sweeps.submit(&mgr, &stop, &spec, false).expect("submitted");
        assert_eq!(total, 4);
        let shared = sweeps.shared(id).expect("tracked");
        let sub = shared.subscribe(1024);

        sweeps.shutdown(); // joins the monitor: the sweep is over
        assert!(shared.is_terminal());
        let points = shared.points();
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.state == "done" && p.passed == Some(true)), "{points:?}");

        let items = sub.drain();
        assert!(sub.is_closed(), "hub closes when the sweep ends");
        let kinds: Vec<String> = items
            .iter()
            .filter_map(|i| match i {
                xui_telemetry::StreamItem::Snapshot { kind, .. } => Some(kind.to_string()),
                xui_telemetry::StreamItem::Event(_) => None,
            })
            .collect();
        assert!(kinds.iter().filter(|k| *k == "point").count() >= 8, "{kinds:?}");
        assert_eq!(kinds.last().map(String::as_str), Some("sweep"), "{kinds:?}");

        let v = shared.status_value();
        let Value::Object(entries) = &v else { panic!("expected object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        for key in ["id", "sweep", "total", "done", "passed", "points"] {
            assert!(keys.contains(&key), "missing `{key}` in {keys:?}");
        }
        mgr.shutdown();
    }

    #[test]
    fn shutdown_mid_sweep_cancels_pending_points() {
        let mgr = Arc::new(RunManager::new(1, 2));
        let stop = Arc::new(AtomicBool::new(true)); // already shutting down
        let sweeps = SweepManager::default();
        let spec = SweepSpec::from_json(
            r#"{
                "name": "serve_cancel",
                "scenario": "fig2_timeline",
                "grid": { "sender_countdown": [500, 600] }
            }"#,
        )
        .expect("spec parses");
        let (id, _) = sweeps.submit(&mgr, &stop, &spec, false).expect("submitted");
        sweeps.shutdown();
        let shared = sweeps.shared(id).expect("tracked");
        assert!(shared.is_terminal());
        assert!(
            shared.points().iter().all(|p| p.state == "cancelled"),
            "{:?}",
            shared.points()
        );
        mgr.shutdown();
    }
}
