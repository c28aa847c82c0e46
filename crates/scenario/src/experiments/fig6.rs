//! Figure 6: the cost of a dedicated timer core — CPU consumption of
//! `setitimer`/`nanosleep`-driven timer threads that preempt N
//! application cores with UIPIs, versus xUI's per-core KB_Timer.

use serde::Serialize;

use xui_kernel::{TimeSource, TimerCoreSim};
use xui_telemetry::RingRecorder;

use super::run_sweep;
use crate::report::save_trace;
use crate::{pct, BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::Fig6TimerCore;

#[derive(Serialize)]
struct Row {
    interval_us: f64,
    receivers: usize,
    setitimer_util: f64,
    nanosleep_util: f64,
    rdtsc_spin_busy: f64,
    xui_util: f64,
}

pub(crate) fn run(p: &Fig6TimerCore, bench: &BenchOpts, sink: &mut Sink) {
    let Fig6TimerCore { ref intervals_us, ref receiver_counts, ticks } = *p;
    let points: Vec<(f64, usize)> = intervals_us
        .iter()
        .flat_map(|&us| receiver_counts.iter().map(move |&n| (us, n)))
        .collect();
    let rows = run_sweep(Sweep::new(points), bench, |&(us, n), _ctx| {
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

    if let Some(path) = &bench.trace {
        // One representative point (5 µs, 8 receivers, setitimer):
        // enough spans to see the tick cadence in Perfetto without a
        // multi-megabyte file.
        let mut rec = RingRecorder::new(16 * 1024);
        let _ = TimerCoreSim::new(TimeSource::Setitimer, 10_000, 8).run_traced(4_000, &mut rec);
        sink.saved(save_trace(path, &rec.events()));
    }
}
