//! §3.5 reverse-engineering forensics: (1) UIPI end-to-end latency is flat
//! as the pointer-chase working set (and hence in-flight drain time)
//! grows — evidence of a flush strategy, not drain; (2) squashed µops
//! grow linearly with interrupt count.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_workloads::harness::{run_workload, IrqSource};
use xui_workloads::programs::{pointer_chase, Instrument};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::X2FlushForensics;

#[derive(Serialize)]
struct LatencyRow {
    nodes: usize,
    flush_mean_latency: f64,
    drain_mean_latency: f64,
}

#[derive(Serialize)]
struct SquashRow {
    interrupts: u64,
    squashed_uops: u64,
    per_interrupt: f64,
}

pub(crate) fn run(p: &X2FlushForensics, bench: &BenchOpts, sink: &mut Sink) {
    let X2FlushForensics {
        ref chase_nodes,
        chase_iters,
        timer_period,
        ref squash_workload,
        ref squash_periods,
        max_cycles,
    } = *p;
    let max = max_cycles;

    // Part 1: UIPI delivery latency vs pointer-chase working set.
    println!("-- delivery latency vs working set (flush flat, drain grows) --");
    let points = chase_nodes.to_vec();
    let lat_rows = run_sweep(Sweep::new(points), bench, |&nodes, _ctx| {
        let w = pointer_chase(nodes, chase_iters, Instrument::None);
        let flush = run_workload(
            SystemConfig::uipi(),
            &w,
            IrqSource::UipiSwTimer { period: timer_period, send_latency: 380 },
            max,
        );
        let drain = run_workload(
            SystemConfig::drain(),
            &w,
            IrqSource::UipiSwTimer { period: timer_period, send_latency: 380 },
            max,
        );
        LatencyRow {
            nodes,
            flush_mean_latency: flush.mean_delivery_latency(),
            drain_mean_latency: drain.mean_delivery_latency(),
        }
    });
    let mut t = Table::new(vec!["chase nodes", "flush mean (cy)", "drain mean (cy)"]);
    for r in &lat_rows {
        t.row(vec![
            r.nodes.to_string(),
            format!("{:.0}", r.flush_mean_latency),
            format!("{:.0}", r.drain_mean_latency),
        ]);
    }
    t.print();
    let f_spread = lat_rows
        .iter()
        .map(|r| r.flush_mean_latency)
        .fold(f64::MIN, f64::max)
        / lat_rows
            .iter()
            .map(|r| r.flush_mean_latency)
            .fold(f64::MAX, f64::min);
    let d_spread = lat_rows
        .iter()
        .map(|r| r.drain_mean_latency)
        .fold(f64::MIN, f64::max)
        / lat_rows
            .iter()
            .map(|r| r.drain_mean_latency)
            .fold(f64::MAX, f64::min);
    println!(
        "\n  latency spread across working sets: flush {f_spread:.2}× (≈flat), \
         drain {d_spread:.2}× (grows with in-flight misses)"
    );

    // Part 2: squashed µops scale linearly with interrupt count (flush).
    println!("\n-- flushed µops vs interrupts received --");
    let w = squash_workload.build(Instrument::None);
    let base = run_workload(SystemConfig::uipi(), &w, IrqSource::None, max);
    let periods = squash_periods.to_vec();
    let squash_rows =
        run_sweep(Sweep::new(periods), bench, |&period, _ctx| {
            let r = run_workload(
                SystemConfig::uipi(),
                &w,
                IrqSource::UipiSwTimer { period, send_latency: 380 },
                max,
            );
            let extra = r.squashed.saturating_sub(base.squashed);
            SquashRow {
                interrupts: r.delivered,
                squashed_uops: extra,
                per_interrupt: extra as f64 / r.delivered.max(1) as f64,
            }
        });
    let mut t = Table::new(vec!["interrupts", "extra squashed µops", "per interrupt"]);
    for r in &squash_rows {
        t.row(vec![
            r.interrupts.to_string(),
            r.squashed_uops.to_string(),
            format!("{:.0}", r.per_interrupt),
        ]);
    }
    t.print();
    println!("\n  ≈constant per-interrupt squash ⇒ flushed µops linear in interrupt count");

    sink.emit("x2_flush_forensics_latency", &lat_rows);
    sink.emit("x2_flush_forensics_squash", &squash_rows);
}
