//! Figure 4: receiver-side overheads of periodic interrupts (5 µs
//! interval) into the benchmark suite, for three mechanisms: UIPI SW
//! timer (flush), xUI SW timer + tracking, and xUI KB_Timer + tracking.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_workloads::harness::{run_workload, IrqSource};
use xui_workloads::programs::{Instrument, Workload, WorkloadSpec};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::Fig4ReceiverOverhead;

#[derive(Serialize)]
struct Row {
    benchmark: &'static str,
    uipi_per_event: f64,
    tracked_per_event: f64,
    kb_timer_per_event: f64,
    uipi_overhead_pct: f64,
    tracked_overhead_pct: f64,
    kb_timer_overhead_pct: f64,
}

pub(crate) fn run(p: &Fig4ReceiverOverhead, bench: &BenchOpts, sink: &mut Sink) {
    let Fig4ReceiverOverhead { ref benchmarks, period, send_latency, max_cycles: max } = *p;
    let points: Vec<WorkloadSpec> = benchmarks.to_vec();
    let rows = run_sweep(Sweep::new(points), bench, |spec, _ctx| {
        let w: Workload = spec.build(Instrument::None);
        let base = run_workload(SystemConfig::uipi(), &w, IrqSource::None, max);
        let uipi = run_workload(
            SystemConfig::uipi(),
            &w,
            IrqSource::UipiSwTimer { period, send_latency },
            max,
        );
        let tracked = run_workload(
            SystemConfig::xui(),
            &w,
            IrqSource::UipiSwTimer { period, send_latency },
            max,
        );
        let kb = run_workload(SystemConfig::xui(), &w, IrqSource::KbTimer { period }, max);
        Row {
            benchmark: spec.name(),
            uipi_per_event: uipi.per_event_cost(&base),
            tracked_per_event: tracked.per_event_cost(&base),
            kb_timer_per_event: kb.per_event_cost(&base),
            uipi_overhead_pct: uipi.overhead_pct(&base),
            tracked_overhead_pct: tracked.overhead_pct(&base),
            kb_timer_overhead_pct: kb.overhead_pct(&base),
        }
    });

    let mut table = Table::new(vec![
        "benchmark",
        "UIPI/ev",
        "xUI track/ev",
        "xUI KB/ev",
        "UIPI ovh",
        "track ovh",
        "KB ovh",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.to_string(),
            format!("{:.0}", r.uipi_per_event),
            format!("{:.0}", r.tracked_per_event),
            format!("{:.0}", r.kb_timer_per_event),
            format!("{:.2}%", r.uipi_overhead_pct),
            format!("{:.2}%", r.tracked_overhead_pct),
            format!("{:.2}%", r.kb_timer_overhead_pct),
        ]);
    }
    table.print();

    let avg = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let uipi_avg = avg(|r| r.uipi_per_event);
    let kb_avg = avg(|r| r.kb_timer_per_event);
    println!(
        "\n  averages: UIPI {uipi_avg:.0} (paper 645), tracking {:.0} (paper 231), \
         KB_Timer {kb_avg:.0} (paper 105)",
        avg(|r| r.tracked_per_event)
    );
    println!(
        "  overhead reduction at 5 µs: {:.2}% → {:.2}% = {:.1}× (paper: 6.86% → 1.06% = 6.9×)",
        avg(|r| r.uipi_overhead_pct),
        avg(|r| r.kb_timer_overhead_pct),
        avg(|r| r.uipi_overhead_pct) / avg(|r| r.kb_timer_overhead_pct)
    );

    sink.emit("fig4_receiver_overhead", &rows);
}
