//! §2 "Polling: unpredictable, inefficient, unscalable" — the standing
//! cost of compiler-inserted preemption checks, with no preemption ever
//! requested.
//!
//! The paper's data points: Wasmtime's polling preemption costs up to
//! ~50% on tight-loop benchmarks (linpack2); Go measured a ~7% geomean
//! and up to 96% worst case when it considered adding loop checks; and
//! hardware safepoints make the same marker effectively free.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_sim::System;
use xui_workloads::harness::{run_workload, IrqSource};
use xui_workloads::programs::{tight_loop, Instrument, WorkloadSpec, POLL_FLAG_ADDR};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::X4PollingTax;

#[derive(Serialize)]
struct Row {
    benchmark: &'static str,
    polling_tax_pct: f64,
    safepoint_tax_pct: f64,
}

pub(crate) fn run(p: &X4PollingTax, bench: &BenchOpts, sink: &mut Sink) {
    let X4PollingTax { ref benchmarks, tight_iters, max_cycles } = *p;
    let max = max_cycles;

    // The suite: instrumented vs plain, with NO flag writer (the tax is
    // pure instrumentation) — plus the tight-loop worst case as a final
    // sweep point (`None`).
    let points: Vec<Option<WorkloadSpec>> =
        benchmarks.iter().map(|&s| Some(s)).chain(std::iter::once(None)).collect();
    let n_bench = benchmarks.len();
    let rows: Vec<Row> = run_sweep(Sweep::new(points), bench, |point, _ctx| {
        let Some(spec) = point else {
            // The tight-loop worst case, measured directly.
            let run_tight = |polled| {
                let mut sys =
                    System::new(SystemConfig::xui(), vec![tight_loop(tight_iters, polled)]);
                sys.run_until_core_halted(0, 2_000_000_000).expect("halts") as f64
            };
            let tight_tax = (run_tight(true) / run_tight(false) - 1.0) * 100.0;
            return Row {
                benchmark: "tight-loop (worst case)",
                polling_tax_pct: tight_tax,
                safepoint_tax_pct: 0.0,
            };
        };
        let plain = spec.build(Instrument::None);
        let polled = spec.build(Instrument::Poll { flag_addr: POLL_FLAG_ADDR });
        let safep = spec.build(Instrument::Safepoint);
        let base = run_workload(SystemConfig::xui(), &plain, IrqSource::None, max);
        let poll = run_workload(SystemConfig::xui(), &polled, IrqSource::None, max);
        let sp = run_workload(SystemConfig::xui(), &safep, IrqSource::None, max);
        Row {
            benchmark: spec.name(),
            polling_tax_pct: poll.overhead_pct(&base),
            safepoint_tax_pct: sp.overhead_pct(&base),
        }
    });
    let tight_tax = rows.last().expect("rows").polling_tax_pct;

    let mut t = Table::new(vec!["benchmark", "polling tax", "safepoint tax"]);
    for r in &rows {
        t.row(vec![
            r.benchmark.to_string(),
            format!("{:.2}%", r.polling_tax_pct),
            format!("{:.2}%", r.safepoint_tax_pct),
        ]);
    }
    t.print();

    let geo: f64 = rows[..n_bench]
        .iter()
        .map(|r| (1.0 + r.polling_tax_pct / 100.0).ln())
        .sum::<f64>()
        / n_bench as f64;
    println!(
        "\n  polling tax geomean {:.1}% (Go measured ~7%), worst case {:.0}% \
         (Wasmtime: up to ~50%, Go: up to 96%); safepoints ≤{:.2}% everywhere",
        (geo.exp() - 1.0) * 100.0,
        tight_tax,
        rows[..n_bench]
            .iter()
            .map(|r| r.safepoint_tax_pct)
            .fold(0.0f64, f64::max)
    );

    sink.emit("x4_polling_tax", &rows);
}
