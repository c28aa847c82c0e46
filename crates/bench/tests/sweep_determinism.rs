//! Regression tests: a parallel sweep must produce byte-identical results
//! to a serial sweep of the same points and base seed. Exercised against
//! the kernels behind two figure presets (fig6's timer-core model and
//! fig8's l3fwd model) plus a DES-backed experiment with per-point RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_bench::Sweep;
use xui_des::engine::Engine;
use xui_des::stats::Histogram;
use xui_kernel::{TimeSource, TimerCoreSim};
use xui_net::{run_l3fwd, IoMode, L3fwdConfig};

/// Runs the same sweep serially and with a fixed worker pool and asserts
/// the rendered JSON is bit-identical.
fn assert_serial_parallel_identical<P, R, F>(points: Vec<P>, f: F)
where
    P: Sync + Clone,
    R: Send + serde::Serialize,
    F: Fn(&P, xui_bench::SweepCtx) -> R + Sync,
{
    let base = 0xD15C_0B5E_55ED_5EEDu64;
    let serial = Sweep::new(points.clone()).base_seed(base).threads(1).run(&f);
    let parallel = Sweep::new(points).base_seed(base).threads(4).run(&f);
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap(),
        "parallel sweep diverged from serial"
    );
}

/// The fig6 kernel: timer-core utilization across (interval, receivers).
#[test]
fn fig6_kernel_parallel_matches_serial() {
    let intervals_us = [5.0f64, 100.0];
    let receivers = [0usize, 8, 24];
    let points: Vec<(f64, usize)> = intervals_us
        .iter()
        .flat_map(|&us| receivers.iter().map(move |&n| (us, n)))
        .collect();
    assert_serial_parallel_identical(points, |&(us, n), _ctx| {
        let interval = (us * 2_000.0) as u64;
        let set = TimerCoreSim::new(TimeSource::Setitimer, interval, n).run(10_000);
        let xui = TimerCoreSim::new(TimeSource::XuiKbTimer, interval, n).run(10_000);
        (set.busy_fraction, xui.cpu_utilization)
    });
}

/// The fig8 kernel: l3fwd cycle accounting across (nics, load, mode).
#[test]
fn fig8_kernel_parallel_matches_serial() {
    let points: Vec<(usize, f64, IoMode)> = [1usize, 4]
        .iter()
        .flat_map(|&nics| {
            [0.2f64, 0.6].iter().flat_map(move |&load| {
                [IoMode::Polling, IoMode::XuiInterrupt]
                    .iter()
                    .map(move |&mode| (nics, load, mode))
            })
        })
        .collect();
    assert_serial_parallel_identical(points, |&(nics, load, mode), _ctx| {
        let r = run_l3fwd(&L3fwdConfig::paper(nics, load, mode));
        (r.free_fraction, r.latency.p95, r.throughput_pps)
    });
}

/// A DES experiment that consumes the per-point derived seed: each point
/// schedules randomly-timed events and reports a latency percentile. The
/// derived seed depends only on (base_seed, index), so worker count and
/// completion order must not leak into the result.
#[test]
fn des_experiment_parallel_matches_serial() {
    let points: Vec<u64> = (0..32).collect();
    assert_serial_parallel_identical(points, |&load, ctx| {
        let mut rng = StdRng::seed_from_u64(ctx.seed);
        let mut engine: Engine<Histogram> = Engine::new();
        for _ in 0..500 + load * 10 {
            let t = rng.gen_range(0..1_000_000u64);
            let service = rng.gen_range(1..5_000u64);
            engine.schedule_at(t, move |h: &mut Histogram, eng| {
                h.record(eng.now() + service - t);
            });
        }
        let mut hist = Histogram::new();
        engine.run(&mut hist);
        (hist.percentile(50.0), hist.percentile(99.0), hist.count())
    });
}

/// Seeds derived for the same (base, index) are stable across processes
/// and runs — the contract the JSON byte-identity rests on.
#[test]
fn derived_seeds_are_stable() {
    let s = Sweep::new(vec![0u64; 4]).base_seed(7);
    let serial: Vec<u64> = s.run(|_, ctx| ctx.seed);
    let parallel: Vec<u64> = Sweep::new(vec![0u64; 4]).base_seed(7).threads(4).run(|_, ctx| ctx.seed);
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), 4);
    // All distinct (splitmix64 of distinct inputs).
    let mut sorted = serial.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4);
}
