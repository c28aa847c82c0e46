//! The four ablation studies: multi-worker scaling, polling vs tracked
//! notification, delivery-strategy shoot-out, and speculation-window
//! scaling.

use serde::Serialize;

use xui_kernel::PreemptMechanism;
use xui_runtime::{run_server, ServerConfig};
use xui_sim::config::{DeliveryStrategy, SystemConfig};
use xui_workloads::harness::{run_workload, IrqSource, RunResult};
use xui_workloads::programs::{Instrument, WorkloadSpec, POLL_FLAG_ADDR};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::{AblationMultiworker, AblationPolling, AblationStrategies, AblationWindow};

#[derive(Serialize)]
struct MultiworkerRow {
    workers: usize,
    offered_krps: f64,
    get_p999_us: f64,
    busy_fraction: f64,
    steals: u64,
    stable: bool,
}

/// Ablation: scaling the Aspen-like runtime across workers with work
/// stealing (§5.3) — an extension beyond the paper's single-worker
/// Figure 7.
pub(crate) fn multiworker(p: &AblationMultiworker, bench: &BenchOpts, sink: &mut Sink) {
    let AblationMultiworker { per_worker_krps, ref worker_counts, duration } = *p;
    let points = worker_counts.to_vec();
    let rows = run_sweep(Sweep::new(points), bench, |&workers, _ctx| {
        let mut cfg = ServerConfig::paper(
            PreemptMechanism::XuiKbTimer,
            per_worker_krps * 1_000.0 * workers as f64,
        );
        cfg.workers = workers;
        cfg.duration = duration;
        let r = run_server(&cfg);
        MultiworkerRow {
            workers,
            offered_krps: per_worker_krps * workers as f64,
            get_p999_us: r.get_p999_us(),
            busy_fraction: r.busy_fraction,
            steals: r.steals,
            stable: r.stable,
        }
    });

    let mut t = Table::new(vec![
        "workers",
        "offered (krps)",
        "GET p99.9",
        "busy/worker",
        "steals",
        "stable",
    ]);
    for r in &rows {
        t.row(vec![
            r.workers.to_string(),
            format!("{:.0}", r.offered_krps),
            format!("{:.0}µs", r.get_p999_us),
            format!("{:.1}%", r.busy_fraction * 100.0),
            r.steals.to_string(),
            r.stable.to_string(),
        ]);
    }
    t.print();

    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!(
            "\n  4× the workers absorb 4× the load at similar per-worker utilization \
             ({:.1}% → {:.1}%),\n  with {} steals keeping the queues balanced — \
             xUI preemption composes with work stealing.",
            first.busy_fraction * 100.0,
            last.busy_fraction * 100.0,
            last.steals
        );
    }

    sink.emit("ablation_multiworker", &rows);
}

#[derive(Serialize)]
struct PollingRow {
    benchmark: &'static str,
    notification_period: u64,
    poll_total_overhead_pct: f64,
    poll_per_event: f64,
    tracked_total_overhead_pct: f64,
    tracked_per_event: f64,
}

/// Ablation: shared-memory polling vs tracked interrupts, per-event
/// (§4.2 "Cheaper than shared memory notification?").
pub(crate) fn polling_vs_tracked(p: &AblationPolling, bench: &BenchOpts, sink: &mut Sink) {
    let AblationPolling { ref benchmarks, ref periods, max_cycles: max } = *p;
    let points: Vec<(WorkloadSpec, u64)> = benchmarks
        .iter()
        .flat_map(|&spec| periods.iter().map(move |&p| (spec, p)))
        .collect();
    let rows = run_sweep(
        Sweep::new(points),
        bench,
        |&(spec, period), _ctx| {
            let plain = spec.build(Instrument::None);
            let polled = spec.build(Instrument::Poll { flag_addr: POLL_FLAG_ADDR });
            let base = run_workload(SystemConfig::xui(), &plain, IrqSource::None, max);
            let poll = run_workload(
                SystemConfig::xui(),
                &polled,
                IrqSource::PollFlag { period, addr: POLL_FLAG_ADDR },
                max,
            );
            let tracked = run_workload(
                SystemConfig::xui(),
                &plain,
                IrqSource::ForwardedDevice { period },
                max,
            );
            PollingRow {
                benchmark: spec.name(),
                notification_period: period,
                poll_total_overhead_pct: poll.overhead_pct(&base),
                poll_per_event: poll.per_event_cost(&base),
                tracked_total_overhead_pct: tracked.overhead_pct(&base),
                tracked_per_event: tracked.per_event_cost(&base),
            }
        },
    );

    let mut t = Table::new(vec![
        "benchmark",
        "period",
        "poll ovh",
        "poll/event*",
        "tracked ovh",
        "tracked/event",
    ]);
    for r in &rows {
        t.row(vec![
            r.benchmark.to_string(),
            format!("{}cy", r.notification_period),
            format!("{:.2}%", r.poll_total_overhead_pct),
            format!("{:.0}", r.poll_per_event),
            format!("{:.2}%", r.tracked_total_overhead_pct),
            format!("{:.0}", r.tracked_per_event),
        ]);
    }
    t.print();
    println!(
        "\n  *poll/event amortizes the standing instrumentation tax over events: \
         polling's cost scales with\n  checks performed, not notifications \
         received (§2) — halving the event rate roughly doubles its\n  \
         per-event figure, while tracked stays a constant ~100 cycles."
    );

    sink.emit("ablation_polling_vs_tracked", &rows);
}

#[derive(Serialize)]
struct StrategyRow {
    benchmark: String,
    strategy: &'static str,
    per_event: f64,
    mean_delivery_latency: f64,
    max_delivery_latency: u64,
    squashed_per_irq: f64,
}

fn strategy_name(s: DeliveryStrategy) -> &'static str {
    match s {
        DeliveryStrategy::Flush => "flush",
        DeliveryStrategy::Drain => "drain",
        DeliveryStrategy::Tracked => "tracked",
    }
}

/// Ablation: the three interrupt-handling strategies head to head —
/// flush (Sapphire Rapids, §3.5), drain (stock gem5, §5.2), and xUI
/// tracking (§4.2) — on per-event cost, delivery latency, and wasted
/// work.
pub(crate) fn strategies(p: &AblationStrategies, bench: &BenchOpts, sink: &mut Sink) {
    let AblationStrategies { ref benchmarks, ref strategies, period, max_cycles: max } = *p;

    // One point per workload: the baseline run is shared across the
    // strategy runs, so a point yields one row per strategy.
    let points = benchmarks.to_vec();
    let strategies = strategies.to_vec();
    let rows: Vec<StrategyRow> =
        run_sweep(Sweep::new(points), bench, |named, _ctx| {
            let w = named.workload.build(Instrument::None);
            let base = run_workload(SystemConfig::uipi(), &w, IrqSource::None, max);
            strategies
                .iter()
                .map(|&strategy| {
                    let mut cfg = SystemConfig::uipi();
                    cfg.strategy.0 = strategy;
                    let r: RunResult = run_workload(
                        cfg,
                        &w,
                        IrqSource::UipiSwTimer { period, send_latency: 380 },
                        max,
                    );
                    StrategyRow {
                        benchmark: named.label.clone(),
                        strategy: strategy_name(strategy),
                        per_event: r.per_event_cost(&base),
                        mean_delivery_latency: r.mean_delivery_latency(),
                        max_delivery_latency: r.max_delivery_latency(),
                        squashed_per_irq: r.squashed.saturating_sub(base.squashed) as f64
                            / r.delivered.max(1) as f64,
                    }
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    let mut t = Table::new(vec![
        "benchmark",
        "strategy",
        "cost/event",
        "mean latency",
        "max latency",
        "squashed/IRQ",
    ]);
    for r in &rows {
        t.row(vec![
            r.benchmark.clone(),
            r.strategy.to_string(),
            format!("{:.0}", r.per_event),
            format!("{:.0}", r.mean_delivery_latency),
            r.max_delivery_latency.to_string(),
            format!("{:.0}", r.squashed_per_irq),
        ]);
    }
    t.print();

    println!(
        "\n  tracking pairs the lowest per-event cost with flush-class latency; \
         drain's latency explodes on the\n  memory-bound chase (it must wait for \
         every in-flight miss), which is why the paper patched gem5 (§5.2)."
    );

    sink.emit("ablation_strategies", &rows);
}

#[derive(Serialize)]
struct WindowRow {
    rob_size: usize,
    flush_per_event: f64,
    tracked_per_event: f64,
    flush_squashed_per_irq: f64,
}

fn scaled(mut cfg: SystemConfig, scale: f64) -> SystemConfig {
    let base = &mut cfg.core;
    base.rob_size = (384.0 * scale) as usize;
    base.iq_size = (168.0 * scale) as usize;
    base.lq_size = (128.0 * scale) as usize;
    base.sq_size = (72.0 * scale) as usize;
    base.fetch_queue_size = (64.0 * scale) as usize;
    cfg
}

/// Ablation: interrupt cost versus speculation-window size (§2: the
/// flush penalty grows with the window; §4.2: tracking throws nothing
/// away).
pub(crate) fn window(p: &AblationWindow, bench: &BenchOpts, sink: &mut Sink) {
    let AblationWindow { ref workload, ref scales, period, max_cycles: max } = *p;
    let w = workload.build(Instrument::None);

    let points = scales.to_vec();
    let rows = run_sweep(Sweep::new(points), bench, |&scale, _ctx| {
        let base_run =
            run_workload(scaled(SystemConfig::uipi(), scale), &w, IrqSource::None, max);
        let flush = run_workload(
            scaled(SystemConfig::uipi(), scale),
            &w,
            IrqSource::UipiSwTimer { period, send_latency: 380 },
            max,
        );
        let tracked = run_workload(
            scaled(SystemConfig::xui(), scale),
            &w,
            IrqSource::UipiSwTimer { period, send_latency: 380 },
            max,
        );
        WindowRow {
            rob_size: (384.0 * scale) as usize,
            flush_per_event: flush.per_event_cost(&base_run),
            tracked_per_event: tracked.per_event_cost(&base_run),
            flush_squashed_per_irq: flush.squashed.saturating_sub(base_run.squashed) as f64
                / flush.delivered.max(1) as f64,
        }
    });

    let mut t = Table::new(vec![
        "ROB size",
        "flush/event",
        "tracked/event",
        "squashed µops/IRQ (flush)",
    ]);
    for r in &rows {
        t.row(vec![
            r.rob_size.to_string(),
            format!("{:.0}", r.flush_per_event),
            format!("{:.0}", r.tracked_per_event),
            format!("{:.0}", r.flush_squashed_per_irq),
        ]);
    }
    t.print();

    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!(
            "\n  ROB {}→{}: flush per-event {:+.0}% | tracked {:+.0}% — the flush \
             penalty scales with the window, tracking does not",
            first.rob_size,
            last.rob_size,
            (last.flush_per_event / first.flush_per_event - 1.0) * 100.0,
            (last.tracked_per_event / first.tracked_per_event - 1.0) * 100.0,
        );
    }

    sink.emit("ablation_window", &rows);
}
