//! A scenario run queue: validated scenarios are enqueued onto a
//! bounded [`WorkerPool`] and tracked through an explicit state machine
//! (`queued → running → done | failed`).
//!
//! This is the execution backbone of the `xui serve` control plane
//! (`POST /api/runs` submits here, `GET /api/runs/<id>` reads the state
//! machine), kept HTTP-free. Every run executes through
//! [`runner::run`], so artifacts are byte-identical to the offline
//! `xui run` path for the same scenario and options.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use crate::executor::WorkerPool;
use crate::runner::{self, RunOptions, RunReport};
use crate::spec::Scenario;

/// Identifier of one submitted run, unique within a queue.
pub type RunId = u64;

/// Where a run is in its lifecycle. Serializes as its lowercase
/// [`name`](RunState::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the experiment's own pass criterion may still be false
    /// (see [`RunStatus::passed`]).
    Done,
    /// The run errored (configuration rejected by the runner, a panic,
    /// or cancellation at shutdown).
    Failed,
}

impl RunState {
    /// Lowercase name, as reported by the HTTP API.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
        }
    }

    /// True for `Done` and `Failed`.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed)
    }
}

impl Serialize for RunState {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

/// A point-in-time view of one run, serializable for status endpoints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunStatus {
    /// The run's id.
    pub id: RunId,
    /// Scenario name.
    pub scenario: String,
    /// Lifecycle state.
    pub state: RunState,
    /// The experiment's own pass criterion, once terminal.
    pub passed: Option<bool>,
    /// Failure description, when `failed`.
    pub error: Option<String>,
    /// Ids of the artifacts produced, in emission order (empty until
    /// the run finishes).
    pub artifacts: Vec<String>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The scenario failed validation; the message is user-facing.
    Invalid(String),
    /// The queue already holds its maximum number of waiting runs.
    Full {
        /// The configured depth bound.
        depth: usize,
    },
    /// The queue is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "{msg}"),
            Self::Full { depth } => {
                write!(f, "run queue is full ({depth} runs already waiting)")
            }
            Self::ShuttingDown => f.write_str("run queue is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a [`RunQueue::cancel`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// The id was never assigned by this queue.
    NotFound,
    /// The run left the waiting queue: a worker is executing it (runs
    /// are not interruptible) or it already reached a terminal state.
    NotCancellable {
        /// The state the run was in (`running`/`done`/`failed`).
        state: RunState,
    },
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotFound => f.write_str("unknown run id"),
            Self::NotCancellable { state } => {
                write!(f, "only queued runs can be cancelled; this run is {}", state.name())
            }
        }
    }
}

impl std::error::Error for CancelError {}

/// A queue-level observer: called on every state transition with the
/// run's id and new state, from whichever thread made the transition.
/// Must be quick and non-blocking (the serve layer forwards into
/// bounded broadcast queues).
pub type StateObserver = Arc<dyn Fn(RunId, RunState) + Send + Sync>;

struct Job {
    id: RunId,
    scenario: Scenario,
    opts: RunOptions,
}

struct Entry {
    scenario: String,
    state: RunState,
    passed: Option<bool>,
    error: Option<String>,
    report: Option<RunReport>,
}

impl Entry {
    fn status(&self, id: RunId) -> RunStatus {
        RunStatus {
            id,
            scenario: self.scenario.clone(),
            state: self.state,
            passed: self.passed,
            error: self.error.clone(),
            artifacts: self
                .report
                .as_ref()
                .map(|r| r.artifacts.iter().map(|a| a.id.clone()).collect())
                .unwrap_or_default(),
        }
    }
}

struct Inner {
    entries: Mutex<BTreeMap<RunId, Entry>>,
    entry_changed: Condvar,
    observer: Option<StateObserver>,
}

impl Inner {
    fn set_state(
        &self,
        id: RunId,
        state: RunState,
        passed: Option<bool>,
        error: Option<String>,
        report: Option<RunReport>,
    ) {
        {
            let mut entries = self.entries.lock().expect("run entries poisoned");
            if let Some(e) = entries.get_mut(&id) {
                e.state = state;
                e.passed = passed;
                e.error = error;
                if report.is_some() {
                    e.report = report;
                }
            }
        }
        // Observer first, condvar second: anything the observer
        // publishes (state snapshots, hub close) is visible to a
        // `wait_terminal` caller by the time it wakes.
        if let Some(obs) = &self.observer {
            obs(id, state);
        }
        self.entry_changed.notify_all();
    }

    /// The pool handler: runs one job through its lifecycle.
    fn execute(&self, job: Job) {
        self.set_state(job.id, RunState::Running, None, None, None);
        match catch_unwind(AssertUnwindSafe(|| runner::run(&job.scenario, &job.opts))) {
            Ok(Ok(report)) => {
                let passed = report.passed;
                self.set_state(job.id, RunState::Done, Some(passed), None, Some(report));
            }
            Ok(Err(e)) => self.set_state(job.id, RunState::Failed, None, Some(e), None),
            Err(panic) => {
                let msg = panic_message(&*panic);
                self.set_state(job.id, RunState::Failed, None, Some(msg), None);
            }
        }
    }
}

/// The queue itself: owns the worker pool. Dropping it without
/// [`RunQueue::shutdown`] detaches the workers; call `shutdown` for a
/// clean join.
pub struct RunQueue {
    inner: Arc<Inner>,
    pool: WorkerPool<Job>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for RunQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunQueue").field("pool", &self.pool).finish()
    }
}

impl RunQueue {
    /// Creates a queue with `workers` worker threads and at most `depth`
    /// waiting (queued, not yet running) submissions.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `depth == 0`.
    #[must_use]
    pub fn new(workers: usize, depth: usize) -> Self {
        Self::with_observer(workers, depth, None)
    }

    /// Like [`RunQueue::new`], with an observer called on every state
    /// transition.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `depth == 0`.
    #[must_use]
    pub fn with_observer(workers: usize, depth: usize, observer: Option<StateObserver>) -> Self {
        assert!(workers > 0, "the run queue needs at least one worker");
        assert!(depth > 0, "the run queue needs a positive depth bound");
        let inner = Arc::new(Inner {
            entries: Mutex::new(BTreeMap::new()),
            entry_changed: Condvar::new(),
            observer,
        });
        let worker_inner = Arc::clone(&inner);
        let pool =
            WorkerPool::new("xui-run-worker", workers, depth, move |job| worker_inner.execute(job));
        Self { inner, pool, next_id: AtomicU64::new(1) }
    }

    /// Validates and enqueues a scenario; returns its run id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] when the scenario fails validation,
    /// [`SubmitError::Full`] when `depth` runs are already waiting, and
    /// [`SubmitError::ShuttingDown`] after [`RunQueue::shutdown`] began.
    pub fn submit(&self, scenario: Scenario, opts: RunOptions) -> Result<RunId, SubmitError> {
        if self.pool.is_shut_down() {
            return Err(SubmitError::ShuttingDown);
        }
        scenario.validate().map_err(SubmitError::Invalid)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let name = scenario.name.clone();
        // The entries lock is held across the hand-off and the `Queued`
        // observer call: a worker that claims the job at once blocks on
        // it before reporting `Running` (observers must therefore never
        // call back into the queue), and a refused job leaves no entry.
        let mut entries = self.inner.entries.lock().expect("run entries poisoned");
        if self.pool.submit(Job { id, scenario, opts }).is_err() {
            return Err(if self.pool.is_shut_down() {
                SubmitError::ShuttingDown
            } else {
                SubmitError::Full { depth: self.pool.bound() }
            });
        }
        entries.insert(
            id,
            Entry {
                scenario: name,
                state: RunState::Queued,
                passed: None,
                error: None,
                report: None,
            },
        );
        if let Some(obs) = &self.inner.observer {
            obs(id, RunState::Queued);
        }
        Ok(id)
    }

    /// A snapshot of one run's status.
    #[must_use]
    pub fn status(&self, id: RunId) -> Option<RunStatus> {
        self.inner
            .entries
            .lock()
            .expect("run entries poisoned")
            .get(&id)
            .map(|e| e.status(id))
    }

    /// Snapshots of every run this queue has seen, oldest first.
    #[must_use]
    pub fn list(&self) -> Vec<RunStatus> {
        self.inner
            .entries
            .lock()
            .expect("run entries poisoned")
            .iter()
            .map(|(&id, e)| e.status(id))
            .collect()
    }

    /// The full report of a finished run (artifact bodies included).
    #[must_use]
    pub fn report(&self, id: RunId) -> Option<RunReport> {
        self.inner
            .entries
            .lock()
            .expect("run entries poisoned")
            .get(&id)
            .and_then(|e| e.report.clone())
    }

    /// Blocks until run `id` reaches a terminal state or `timeout`
    /// elapses; returns the final (or last observed) status.
    #[must_use]
    pub fn wait_terminal(&self, id: RunId, timeout: Duration) -> Option<RunStatus> {
        let deadline = Instant::now() + timeout;
        let mut entries = self.inner.entries.lock().expect("run entries poisoned");
        loop {
            let status = entries.get(&id)?.status(id);
            let now = Instant::now();
            if status.state.is_terminal() || now >= deadline {
                return Some(status);
            }
            let (guard, _) = self
                .inner
                .entry_changed
                .wait_timeout(entries, deadline - now)
                .expect("run entries poisoned");
            entries = guard;
        }
    }

    /// Cancels a run that is still *waiting* in the queue: the job is
    /// pulled out before any worker can claim it and the run becomes
    /// `failed` with a cancellation error, exactly as a shutdown-time
    /// cancellation would. Running scenarios are not interruptible and
    /// terminal runs are history, so both are refused.
    ///
    /// # Errors
    ///
    /// [`CancelError::NotFound`] for an id this queue never assigned;
    /// [`CancelError::NotCancellable`] (naming the state) once the run
    /// left the waiting queue.
    pub fn cancel(&self, id: RunId) -> Result<RunStatus, CancelError> {
        if self.pool.remove(|j| j.id == id).is_some() {
            self.inner.set_state(
                id,
                RunState::Failed,
                None,
                Some("cancelled: deleted while queued, before a worker picked this run up".into()),
                None,
            );
            return Ok(self.status(id).expect("cancelled runs stay tracked"));
        }
        match self.status(id) {
            None => Err(CancelError::NotFound),
            Some(s) => Err(CancelError::NotCancellable { state: s.state }),
        }
    }

    /// Stops accepting work, lets running scenarios finish, joins the
    /// workers, and cancels the runs that were still waiting (they
    /// become `failed` with a cancellation error). Idempotent; statuses
    /// and reports stay queryable afterwards.
    pub fn shutdown(&self) {
        for job in self.pool.shutdown() {
            self.inner.set_state(
                job.id,
                RunState::Failed,
                None,
                Some("cancelled: the queue shut down before a worker picked this run up".into()),
                None,
            );
        }
    }
}

/// `run panicked: <message>` for a panic caught around [`runner::run`].
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".to_string());
    format!("run panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex as StdMutex;

    use super::*;
    use crate::registry;
    use crate::runner::{ProgressHook, RunProgress};

    fn fast_scenario() -> Scenario {
        registry::find("fig2_timeline").expect("preset exists")
    }

    #[test]
    fn run_reaches_done_and_artifacts_match_direct_execution() {
        let q = RunQueue::new(2, 8);
        let id = q.submit(fast_scenario(), RunOptions::default()).expect("submit");
        let status = q.wait_terminal(id, Duration::from_secs(120)).expect("known run");
        assert_eq!(status.state, RunState::Done);
        assert_eq!(status.passed, Some(true));
        assert!(!status.artifacts.is_empty());

        let queued = q.report(id).expect("report kept");
        let direct = runner::run(&fast_scenario(), &RunOptions::default()).expect("direct run");
        assert_eq!(queued.artifacts.len(), direct.artifacts.len());
        for (a, b) in queued.artifacts.iter().zip(&direct.artifacts) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.json, b.json, "queued artifact bytes differ from direct run");
        }
        q.shutdown();
    }

    #[test]
    fn invalid_scenario_is_rejected_at_submit() {
        let q = RunQueue::new(1, 2);
        let mut sc = fast_scenario();
        let crate::spec::Experiment::Fig2Timeline(p) = &mut sc.experiment else {
            panic!("wrong experiment")
        };
        (p.sender_countdown, p.receiver_countdown) = (1_000, 500);
        let err = q.submit(sc, RunOptions::default()).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("spinning"), "{err}");
        assert!(q.list().is_empty(), "a rejected submission leaves no entry");
        q.shutdown();
    }

    #[test]
    fn depth_bound_rejects_overflow_and_shutdown_cancels_queued_runs() {
        // One worker, depth 1: keep submitting until the depth bound
        // rejects, then shut down and check nothing was silently lost.
        let q = RunQueue::new(1, 1);
        let mut ids = Vec::new();
        let mut saw_full = false;
        for _ in 0..50 {
            match q.submit(fast_scenario(), RunOptions::default()) {
                Ok(id) => ids.push(id),
                Err(SubmitError::Full { depth }) => {
                    assert_eq!(depth, 1);
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(saw_full, "the depth bound never triggered");
        assert_eq!(q.list().len(), ids.len(), "a refused submission leaves no entry");
        q.shutdown();
        for id in ids {
            let s = q.status(id).expect("accepted runs stay tracked");
            match s.state {
                RunState::Done => assert_eq!(s.passed, Some(true)),
                RunState::Failed => {
                    assert!(s.error.as_deref().unwrap_or("").contains("cancelled"), "{s:?}");
                }
                other => panic!("non-terminal state after shutdown: {other:?}"),
            }
        }
        assert!(matches!(
            q.submit(fast_scenario(), RunOptions::default()),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn cancel_unqueues_waiting_runs_and_refuses_everything_else() {
        assert_eq!(RunQueue::new(1, 2).cancel(77), Err(CancelError::NotFound));

        // One worker held busy by a slow progress hook: the second
        // submission stays queued long enough to cancel.
        let gate = Arc::new(StdMutex::new(()));
        let held = gate.lock().unwrap();
        let hook_gate = Arc::clone(&gate);
        let opts = RunOptions {
            progress: ProgressHook::new(move |p| {
                if matches!(p, RunProgress::Started { .. }) {
                    drop(hook_gate.lock().unwrap());
                }
            }),
            ..RunOptions::default()
        };
        let q = RunQueue::new(1, 2);
        let busy = q.submit(fast_scenario(), opts).expect("submit busy");
        let waiting = q.submit(fast_scenario(), RunOptions::default()).expect("submit waiting");

        let status = q.cancel(waiting).expect("queued runs cancel");
        assert_eq!(status.state, RunState::Failed);
        assert!(status.error.as_deref().unwrap_or("").contains("cancelled"), "{status:?}");
        assert_eq!(
            q.cancel(waiting),
            Err(CancelError::NotCancellable { state: RunState::Failed }),
            "terminal runs are history"
        );

        drop(held);
        let done = q.wait_terminal(busy, Duration::from_secs(120)).expect("known run");
        assert_eq!(done.state, RunState::Done, "cancellation must not touch the busy worker");
        assert_eq!(
            q.cancel(busy),
            Err(CancelError::NotCancellable { state: RunState::Done })
        );
        q.shutdown();
    }

    #[test]
    fn panicking_run_fails_and_keeps_its_worker() {
        let opts = RunOptions {
            progress: ProgressHook::new(|p| {
                if matches!(p, RunProgress::Started { .. }) {
                    panic!("hook bug");
                }
            }),
            ..RunOptions::default()
        };
        let q = RunQueue::new(1, 2);
        let bad = q.submit(fast_scenario(), opts).expect("submit panicking run");
        let status = q.wait_terminal(bad, Duration::from_secs(120)).expect("known run");
        assert_eq!(status.state, RunState::Failed);
        assert_eq!(status.error.as_deref(), Some("run panicked: hook bug"));
        // The one worker survived the unwind and runs the next job.
        let good = q.submit(fast_scenario(), RunOptions::default()).expect("submit");
        let status = q.wait_terminal(good, Duration::from_secs(120)).expect("known run");
        assert_eq!(status.state, RunState::Done);
        q.shutdown();
    }

    #[test]
    fn state_observer_sees_the_full_lifecycle() {
        let seen: Arc<StdMutex<Vec<(RunId, RunState)>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let q = RunQueue::with_observer(
            1,
            4,
            Some(Arc::new(move |id, st| sink.lock().unwrap().push((id, st)))),
        );
        let id = q.submit(fast_scenario(), RunOptions::default()).expect("submit");
        let _ = q.wait_terminal(id, Duration::from_secs(120));
        q.shutdown();
        let seen = seen.lock().unwrap();
        let states: Vec<RunState> = seen.iter().filter(|(i, _)| *i == id).map(|&(_, s)| s).collect();
        assert_eq!(states, vec![RunState::Queued, RunState::Running, RunState::Done]);
    }

    /// `/api/runs` bodies carry the state as its lowercase name.
    #[test]
    fn run_state_serializes_as_its_lowercase_name() {
        for st in [RunState::Queued, RunState::Running, RunState::Done, RunState::Failed] {
            let json = serde_json::to_string(&st).expect("serializes");
            assert_eq!(json, format!("\"{}\"", st.name()));
        }
    }

    #[test]
    fn progress_hook_reports_artifacts_in_emission_order() {
        let seen: Arc<StdMutex<Vec<RunProgress>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let opts = RunOptions {
            progress: ProgressHook::new(move |p| sink.lock().unwrap().push(p.clone())),
            ..RunOptions::default()
        };
        let q = RunQueue::new(1, 2);
        let id = q.submit(fast_scenario(), opts).expect("submit");
        let status = q.wait_terminal(id, Duration::from_secs(120)).expect("known run");
        q.shutdown();
        assert_eq!(status.state, RunState::Done);
        let seen = seen.lock().unwrap();
        assert!(matches!(seen.first(), Some(RunProgress::Started { .. })));
        assert!(matches!(seen.last(), Some(RunProgress::Finished { passed: true, .. })));
        let indices: Vec<usize> = seen
            .iter()
            .filter_map(|p| match p {
                RunProgress::Artifact { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, (0..indices.len()).collect::<Vec<_>>());
        assert_eq!(indices.len(), status.artifacts.len());
    }
}
