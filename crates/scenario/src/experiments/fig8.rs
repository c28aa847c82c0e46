//! Figure 8: l3fwd efficiency — cycle accounting (networking / polling /
//! free) and p95 latency for busy polling vs xUI device interrupts. An
//! optional [`FaultPlan`] from the scenario runs every point through the
//! faulted router path.

use serde::Serialize;

use xui_faults::FaultPlan;
use xui_net::{run_l3fwd_with, IoMode, L3fwdConfig};

use super::run_sweep;
use crate::{pct, AsciiChart, BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::Fig8L3fwd;

#[derive(Serialize)]
struct Row {
    nics: usize,
    load_pct: f64,
    mode: &'static str,
    networking_frac: f64,
    polling_or_irq_frac: f64,
    free_frac: f64,
    p95_latency_cycles: u64,
    throughput_mpps: f64,
}

fn mode_name(m: IoMode) -> &'static str {
    match m {
        IoMode::Polling => "polling",
        IoMode::XuiInterrupt => "xUI",
    }
}

pub(crate) fn run(
    p: &Fig8L3fwd,
    faults: Option<&FaultPlan>,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let Fig8L3fwd { ref loads, ref nic_counts, ref modes } = *p;
    let mut points: Vec<(usize, f64, IoMode, &'static str)> = Vec::new();
    for &nics in nic_counts {
        for &load in loads {
            for &mode in modes {
                points.push((nics, load, mode, mode_name(mode)));
            }
        }
    }
    let rows = run_sweep(
        Sweep::new(points),
        bench,
        |&(nics, load, mode, name), _ctx| {
            let cfg = L3fwdConfig::paper(nics, load, mode);
            let r = run_l3fwd_with(&cfg, faults);
            let total = r.account.total().max(1) as f64;
            Row {
                nics,
                load_pct: load * 100.0,
                mode: name,
                networking_frac: r.account.get("networking") as f64 / total,
                polling_or_irq_frac: (r.account.get("polling") + r.account.get("interrupt"))
                    as f64
                    / total,
                free_frac: r.free_fraction,
                p95_latency_cycles: r.latency.p95,
                throughput_mpps: r.throughput_pps / 1e6,
            }
        },
    );

    let mut table = Table::new(vec![
        "NICs",
        "load",
        "mode",
        "networking",
        "poll/irq",
        "free",
        "p95",
        "Mpps",
    ]);
    for r in &rows {
        table.row(vec![
            r.nics.to_string(),
            format!("{:.0}%", r.load_pct),
            r.mode.to_string(),
            pct(r.networking_frac),
            pct(r.polling_or_irq_frac),
            pct(r.free_frac),
            format!("{}cy", r.p95_latency_cycles),
            format!("{:.2}", r.throughput_mpps),
        ]);
    }
    table.print();

    // Headline claims (skipped quietly when a custom scenario sweeps
    // different axes and a reference point is absent).
    let find = |nics: usize, load: f64, mode: &str| {
        rows.iter()
            .find(|r| r.nics == nics && (r.load_pct - load).abs() < 0.5 && r.mode == mode)
    };
    if let Some(x40) = find(1, 40.0, "xUI") {
        println!(
            "\n  1 queue @40% load: xUI free cycles = {} (paper: 45%); polling = 0%",
            pct(x40.free_frac)
        );
    }
    for load in [40.0, 80.0] {
        for &nics in &[1usize, 4, 8] {
            if let (Some(p), Some(x)) = (find(nics, load, "polling"), find(nics, load, "xUI")) {
                let delta =
                    (x.p95_latency_cycles as f64 / p.p95_latency_cycles as f64 - 1.0) * 100.0;
                println!(
                    "  {nics} NIC(s) @{load:.0}%: p95 xUI vs polling = {delta:+.0}% \
                     (paper @peak: 1→+2%, 4→−8%, 8→+65%)"
                );
            }
        }
    }
    if let (Some(p), Some(x)) = (find(2, 80.0, "polling"), find(2, 80.0, "xUI")) {
        let (tp, tx) = (p.throughput_mpps, x.throughput_mpps);
        println!(
            "  throughput parity @80%: {:.2} vs {:.2} Mpps ({:+.2}%; paper −0.08%)",
            tp,
            tx,
            (tx / tp - 1.0) * 100.0
        );
    }

    println!();
    let mut chart = AsciiChart::new("load%", "free cycles (1 NIC)");
    for mode in ["polling", "xUI"] {
        chart.series(
            mode,
            rows.iter()
                .filter(|r| r.nics == 1 && r.mode == mode)
                .map(|r| (r.load_pct, r.free_frac))
                .collect(),
        );
    }
    chart.print();

    sink.emit("fig8_l3fwd", &rows);
}
