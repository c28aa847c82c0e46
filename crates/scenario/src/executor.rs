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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

#[cfg(test)]
mod tests {
    use super::*;

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
