//! Deterministic parallel execution of a figure's sweep points.
//!
//! Every figure/ablation experiment enumerates a grid of independent
//! sweep points (a workload × a load level × a mechanism, …), evaluates
//! each point, and prints a table. [`Sweep`] runs those points across a
//! fixed-size scoped worker pool while keeping the output
//! **bit-identical to a serial run**:
//!
//! - points are enumerated up front in a fixed order;
//! - each point's RNG seed is derived only from the sweep's base seed and
//!   the point's index (`splitmix64(base_seed ^ index)`), never from
//!   thread identity or timing;
//! - results are reassembled in point order before anything is printed or
//!   saved.
//!
//! The worker count comes from the `XUI_BENCH_THREADS` environment
//! variable (default: `std::thread::available_parallelism`), so
//! `XUI_BENCH_THREADS=1` and `XUI_BENCH_THREADS=64` produce byte-identical
//! stdout and `results/*.json` artifacts.
//!
//! [`WorkerPool`] is the long-lived counterpart for the control plane:
//! named threads draining a bounded FIFO backlog of `'static` jobs
//! through one handler. The run queue executes scenarios on it and
//! `xui serve` handles connections on it. `Sweep` stays separate
//! because its closures borrow the points, which a pool of `'static`
//! jobs cannot.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "XUI_BENCH_THREADS";

/// Default base seed for sweeps that don't set one (arbitrary constant,
/// frozen for reproducibility).
pub const DEFAULT_BASE_SEED: u64 = 0x5EED_0000_0B5E_55ED;

/// Per-point execution context handed to the sweep closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCtx {
    /// This point's index in enumeration order.
    pub index: usize,
    /// This point's derived RNG seed: `splitmix64(base_seed ^ index)`.
    /// Depends only on the base seed and the index — never on which
    /// worker thread runs the point.
    pub seed: u64,
}

/// Derives the RNG seed for point `index` of a sweep with `base_seed`.
#[must_use]
pub fn derive_seed(base_seed: u64, index: usize) -> u64 {
    let mut s = base_seed ^ index as u64;
    rand::splitmix64(&mut s)
}

/// Resolves the worker-pool size: explicit override, else
/// `XUI_BENCH_THREADS`, else available parallelism.
#[must_use]
pub fn worker_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A deterministic sweep over independent points.
///
/// # Examples
///
/// ```
/// use xui_scenario::Sweep;
///
/// let squares = Sweep::new((0u64..8).collect::<Vec<_>>())
///     .threads(4)
///     .run(|&p, _ctx| p * p);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug)]
pub struct Sweep<P> {
    points: Vec<P>,
    base_seed: u64,
    threads: Option<usize>,
}

impl<P: Sync> Sweep<P> {
    /// Creates a sweep over `points` (evaluated in this order).
    #[must_use]
    pub fn new(points: Vec<P>) -> Self {
        Self {
            points,
            base_seed: DEFAULT_BASE_SEED,
            threads: None,
        }
    }

    /// Sets the base seed from which every point's seed is derived.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the worker count (otherwise `XUI_BENCH_THREADS` /
    /// available parallelism decides).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Runs every point and returns the results **in point order**.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&P, SweepCtx) -> R + Sync,
    {
        let n = self.points.len();
        let threads = worker_threads(self.threads).min(n.max(1));
        if threads <= 1 {
            // Serial path: same enumeration, same seeds, no pool.
            self.points
                .iter()
                .enumerate()
                .map(|(index, p)| {
                    f(
                        p,
                        SweepCtx {
                            index,
                            seed: derive_seed(self.base_seed, index),
                        },
                    )
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<R>>> =
                Mutex::new((0..n).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let ctx = SweepCtx {
                            index,
                            seed: derive_seed(self.base_seed, index),
                        };
                        let r = f(&self.points[index], ctx);
                        slots.lock().expect("sweep worker poisoned lock")[index] = Some(r);
                    });
                }
            });
            slots
                .into_inner()
                .expect("sweep worker poisoned lock")
                .into_iter()
                .map(|slot| slot.expect("every sweep point was claimed by a worker"))
                .collect()
        }
    }
}

/// A fixed set of named worker threads running one handler on each job
/// of a bounded FIFO backlog. A job that panics is contained: its worker
/// keeps serving the backlog.
///
/// Dropping the pool without [`WorkerPool::shutdown`] detaches the
/// workers; call `shutdown` for a clean join.
///
/// # Examples
///
/// ```
/// use std::sync::mpsc;
/// use xui_scenario::WorkerPool;
///
/// let (tx, rx) = mpsc::channel();
/// let pool = WorkerPool::new("doc-worker", 2, 4, move |n: u64| tx.send(n * n).unwrap());
/// pool.submit(7).expect("room in the backlog");
/// assert_eq!(rx.recv().unwrap(), 49);
/// assert!(pool.shutdown().is_empty());
/// ```
pub struct WorkerPool<J> {
    shared: Arc<PoolShared<J>>,
    /// Behind a mutex so [`WorkerPool::shutdown`] can join through a
    /// shared reference (its owners tear down via an `Arc`).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

struct PoolShared<J> {
    backlog: Mutex<Backlog<J>>,
    job_ready: Condvar,
    bound: usize,
}

struct Backlog<J> {
    jobs: VecDeque<J>,
    /// False once shutdown began: no job is taken in after that.
    open: bool,
}

impl<J> PoolShared<J> {
    fn lock(&self) -> MutexGuard<'_, Backlog<J>> {
        self.backlog.lock().expect("pool backlog poisoned")
    }

    fn work(&self, handler: &impl Fn(J)) {
        loop {
            let job = {
                let mut backlog = self.lock();
                loop {
                    if let Some(job) = backlog.jobs.pop_front() {
                        break job;
                    }
                    if !backlog.open {
                        return;
                    }
                    backlog = self.job_ready.wait(backlog).expect("pool backlog poisoned");
                }
            };
            // An unwinding job must not kill the worker thread: a
            // handful of bad jobs would otherwise drain the whole pool.
            if catch_unwind(AssertUnwindSafe(|| handler(job))).is_err() {
                let name = std::thread::current().name().unwrap_or("?").to_string();
                eprintln!("[{name}] a job panicked; the worker continues");
            }
        }
    }
}

impl<J> std::fmt::Debug for WorkerPool<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.lock().map_or(0, |w| w.len()))
            .field("bound", &self.shared.bound)
            .finish()
    }
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads named `{name}-{i}` that run `handler` on
    /// each submitted job, oldest first, with room for `bound` jobs
    /// waiting beyond the ones being handled.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `bound == 0`.
    #[must_use]
    pub fn new<F>(name: &str, workers: usize, bound: usize, handler: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        assert!(workers > 0, "a worker pool needs at least one worker");
        assert!(bound > 0, "a worker pool needs a positive backlog bound");
        let shared = Arc::new(PoolShared {
            backlog: Mutex::new(Backlog { jobs: VecDeque::new(), open: true }),
            job_ready: Condvar::new(),
            bound,
        });
        // Only the workers hold the handler, so it (and whatever it
        // captures) is released once shutdown joins them.
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || shared.work(&*handler))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(handles) }
    }

    /// Queues `job` for a worker.
    ///
    /// # Errors
    ///
    /// Hands `job` back when `bound` jobs are already waiting or
    /// [`WorkerPool::shutdown`] began.
    pub fn submit(&self, job: J) -> Result<(), J> {
        let mut backlog = self.shared.lock();
        if !backlog.open || backlog.jobs.len() >= self.shared.bound {
            return Err(job);
        }
        backlog.jobs.push_back(job);
        drop(backlog);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Takes out the oldest waiting job matching `pred`, if no worker
    /// has claimed it yet.
    pub fn remove(&self, pred: impl FnMut(&J) -> bool) -> Option<J> {
        let mut backlog = self.shared.lock();
        let pos = backlog.jobs.iter().position(pred)?;
        backlog.jobs.remove(pos)
    }

    /// The backlog bound given to [`WorkerPool::new`].
    #[must_use]
    pub fn bound(&self) -> usize {
        self.shared.bound
    }

    /// True once [`WorkerPool::shutdown`] began.
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        !self.shared.lock().open
    }

    /// Stops intake and takes out every waiting job, then joins the
    /// workers after their current jobs finish. Returns the jobs no
    /// worker claimed; calling it again does nothing and returns none.
    pub fn shutdown(&self) -> Vec<J> {
        let waiting: Vec<J> = {
            let mut backlog = self.shared.lock();
            backlog.open = false;
            backlog.jobs.drain(..).collect()
        };
        self.shared.job_ready.notify_all();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("pool workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
        waiting
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    /// A pool job in these tests: an id to match on and the work to do.
    type Task = (u32, Box<dyn FnOnce() + Send>);

    fn task_pool(workers: usize, bound: usize) -> WorkerPool<Task> {
        WorkerPool::new("test-worker", workers, bound, |(_, work): Task| work())
    }

    fn accept(pool: &WorkerPool<Task>, id: u32, work: impl FnOnce() + Send + 'static) {
        assert!(pool.submit((id, Box::new(work))).is_ok(), "job {id} refused");
    }

    /// Parks the pool's only worker on a job until the returned sender
    /// fires (or is dropped).
    fn park_worker(pool: &WorkerPool<Task>) -> mpsc::Sender<()> {
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        accept(pool, 0, move || {
            started_tx.send(()).unwrap();
            release_rx.recv().ok();
        });
        started_rx.recv_timeout(Duration::from_secs(30)).expect("worker started");
        release_tx
    }

    #[test]
    fn jobs_run_and_shutdown_joins() {
        let pool = task_pool(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..6u32 {
            let tx = tx.clone();
            accept(&pool, i, move || {
                let name = std::thread::current().name().map(str::to_string);
                tx.send((i, name)).unwrap();
            });
        }
        let mut got: Vec<(u32, Option<String>)> = (0..6)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("job ran"))
            .collect();
        got.sort_unstable();
        assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        for (_, name) in &got {
            let name = name.as_deref().unwrap_or("");
            assert!(matches!(name, "test-worker-0" | "test-worker-1"), "{name}");
        }
        assert!(pool.shutdown().is_empty());
        assert!(pool.shutdown().is_empty(), "idempotent");
        assert!(pool.is_shut_down());
        assert!(pool.submit((6, Box::new(|| {}))).is_err(), "no intake after shutdown");
    }

    #[test]
    fn panicking_job_neither_kills_the_worker_nor_leaks_busy() {
        let pool = task_pool(1, 8);
        // With one worker, every panic landing on it must leave it alive.
        for i in 0..4 {
            accept(&pool, i, || panic!("handler bug"));
        }
        let (tx, rx) = mpsc::channel();
        accept(&pool, 4, move || tx.send(42u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(42), "worker survived panics");
        // And it is free again: nothing is left waiting at shutdown.
        assert!(pool.shutdown().is_empty());
    }

    #[test]
    fn saturated_pool_refuses_instead_of_queueing() {
        let pool = task_pool(1, 1);
        let release = park_worker(&pool);
        // Worker busy: one backlog slot, then refusal that hands the job back.
        accept(&pool, 1, || {});
        match pool.submit((2, Box::new(|| {}))) {
            Err((id, _)) => assert_eq!(id, 2),
            Ok(()) => panic!("a saturated pool took a job"),
        }
        release.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn remove_and_shutdown_hand_back_waiting_jobs() {
        let pool = task_pool(1, 4);
        let release = park_worker(&pool);
        let (ran_tx, ran_rx) = mpsc::channel();
        for id in 1..=3 {
            let ran_tx = ran_tx.clone();
            accept(&pool, id, move || ran_tx.send(id).unwrap());
        }
        assert_eq!(pool.remove(|&(id, _)| id == 2).map(|(id, _)| id), Some(2));
        assert!(pool.remove(|&(id, _)| id == 2).is_none(), "removed jobs are gone");
        std::thread::scope(|s| {
            // Release the parked job only once intake has stopped, so
            // the waiting jobs are still there for shutdown to return.
            s.spawn(|| {
                while !pool.is_shut_down() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                release.send(()).unwrap();
            });
            let left: Vec<u32> = pool.shutdown().into_iter().map(|(id, _)| id).collect();
            assert_eq!(left, vec![1, 3]);
        });
        drop(ran_tx);
        assert_eq!(ran_rx.iter().count(), 0, "a returned or removed job never runs");
    }

    #[test]
    fn results_come_back_in_point_order() {
        let points: Vec<u64> = (0..257).collect();
        let out = Sweep::new(points.clone())
            .threads(8)
            .run(|&p, ctx| (ctx.index as u64, p * 3));
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx, i as u64);
            assert_eq!(v, i as u64 * 3);
        }
    }

    #[test]
    fn seeds_depend_only_on_base_and_index() {
        let serial = Sweep::new((0..64).collect::<Vec<u32>>())
            .threads(1)
            .run(|_, ctx| ctx.seed);
        let parallel = Sweep::new((0..64).collect::<Vec<u32>>())
            .threads(7)
            .run(|_, ctx| ctx.seed);
        assert_eq!(serial, parallel);
        // And they're spread out, not sequential.
        assert_ne!(serial[0] + 1, serial[1]);
    }

    #[test]
    fn base_seed_changes_derived_seeds() {
        let a = Sweep::new(vec![(); 4]).base_seed(1).run(|(), ctx| ctx.seed);
        let b = Sweep::new(vec![(); 4]).base_seed(2).run(|(), ctx| ctx.seed);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u8> = Sweep::new(Vec::<u8>::new()).run(|_, _| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_respects_override_and_floor() {
        assert_eq!(worker_threads(Some(0)), 1);
        assert_eq!(worker_threads(Some(5)), 5);
    }
}
