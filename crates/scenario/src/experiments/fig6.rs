//! Figure 6: the cost of a dedicated timer core — CPU consumption of
//! `setitimer`/`nanosleep`-driven timer threads that preempt N
//! application cores with UIPIs, versus xUI's per-core KB_Timer.

use std::time::Instant;

use serde::Serialize;

use xui_bench::{pct, run_sweep, BenchOpts, Sweep, Table};
use xui_kernel::{TimeSource, TimerCoreSim};
use xui_telemetry::{NullRecorder, RingRecorder};

use crate::runner::Sink;

#[derive(Serialize)]
struct Row {
    interval_us: f64,
    receivers: usize,
    setitimer_util: f64,
    nanosleep_util: f64,
    rdtsc_spin_busy: f64,
    xui_util: f64,
}

pub(crate) fn run(
    intervals_us: &[f64],
    receiver_counts: &[usize],
    ticks: u64,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let points: Vec<(f64, usize)> = intervals_us
        .iter()
        .flat_map(|&us| receiver_counts.iter().map(move |&n| (us, n)))
        .collect();
    let rows = run_sweep("fig6_timer_core", Sweep::new(points), bench, |&(us, n), _ctx| {
        let interval = (us * 2_000.0) as u64;
        let set = TimerCoreSim::new(TimeSource::Setitimer, interval, n).run(ticks);
        let nano = TimerCoreSim::new(TimeSource::Nanosleep, interval, n).run(ticks);
        let spin = TimerCoreSim::new(TimeSource::RdtscSpin, interval, n).run(ticks);
        let xui = TimerCoreSim::new(TimeSource::XuiKbTimer, interval, n).run(ticks);
        Row {
            interval_us: us,
            receivers: n,
            setitimer_util: set.busy_fraction,
            nanosleep_util: nano.busy_fraction,
            rdtsc_spin_busy: spin.busy_fraction,
            xui_util: xui.cpu_utilization,
        }
    });

    let mut table = Table::new(vec![
        "interval",
        "receivers",
        "setitimer",
        "nanosleep",
        "rdtsc-spin (useful)",
        "xUI",
    ]);
    for r in &rows {
        table.row(vec![
            format!("{}µs", r.interval_us),
            r.receivers.to_string(),
            pct(r.setitimer_util),
            pct(r.nanosleep_util),
            pct(r.rdtsc_spin_busy),
            pct(r.xui_util),
        ]);
    }
    table.print();

    let spin5 = TimerCoreSim::new(TimeSource::RdtscSpin, 10_000, 0);
    println!(
        "\n  rdtsc-spin capacity at 5 µs: {} receivers (paper: 22); \
         the spinning thread burns 100% of its core regardless",
        spin5.max_receivers()
    );
    println!("  xUI: every core owns a KB_Timer — the timer core is eliminated entirely");

    sink.emit("fig6_timer_core", &rows);

    if bench.bench_meta {
        let (null_ms, ring_ms) = telemetry_overhead(ticks);
        sink.saved(xui_bench::record_telemetry_overhead("fig6_timer_core", null_ms, ring_ms));
        println!(
            "\n  telemetry cost on one fig6 point ({ticks} ticks): \
             NullRecorder {null_ms:.2} ms vs RingRecorder {ring_ms:.2} ms \
             ({:.2}× the untraced run)",
            if null_ms > 0.0 { ring_ms / null_ms } else { 1.0 }
        );
    }

    if let Some(path) = &bench.trace {
        // One representative point (5 µs, 8 receivers, setitimer):
        // enough spans to see the tick cadence in Perfetto without a
        // multi-megabyte file.
        let mut rec = RingRecorder::new(16 * 1024);
        let _ = TimerCoreSim::new(TimeSource::Setitimer, 10_000, 8).run_traced(4_000, &mut rec);
        xui_bench::save_trace(path, &rec.events());
    }
}

/// Times one representative sweep point (5 µs interval, 8 receivers,
/// `setitimer`) with a `NullRecorder` and with an active `RingRecorder`,
/// repeated enough to rise above timer noise. Returns (null_ms, ring_ms).
fn telemetry_overhead(ticks: u64) -> (f64, f64) {
    let sim = TimerCoreSim::new(TimeSource::Setitimer, 10_000, 8);
    const REPS: u32 = 50;
    // Warm up both paths so neither pays first-touch costs.
    let mut warm = RingRecorder::new(128 * 1024);
    let _ = sim.run_traced(ticks, &mut NullRecorder);
    let _ = sim.run_traced(ticks, &mut warm);

    let t = Instant::now();
    for _ in 0..REPS {
        let r = sim.run_traced(ticks, &mut NullRecorder);
        std::hint::black_box(r);
    }
    let null_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);

    let mut rec = RingRecorder::new(128 * 1024);
    let t = Instant::now();
    for _ in 0..REPS {
        rec.clear();
        let r = sim.run_traced(ticks, &mut rec);
        std::hint::black_box(r);
    }
    let ring_ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(REPS);
    std::hint::black_box(rec.len());
    (null_ms, ring_ms)
}
