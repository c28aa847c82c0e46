//! Figure 5: preemption overhead of two precise mechanisms — hardware
//! safepoints (xUI tracking + KB_Timer) and Concord-style compiler
//! polling — plus imprecise UIPI, across preemption quanta.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_workloads::harness::{run_workload, run_workload_with, IrqSource};
use xui_workloads::programs::{Instrument, WorkloadSpec, POLL_FLAG_ADDR};

use super::run_sweep;
use crate::{AsciiChart, BenchOpts, Sweep, Table};
use crate::runner::Sink;

#[derive(Serialize)]
struct Row {
    benchmark: &'static str,
    quantum_us: f64,
    safepoint_pct: f64,
    uipi_pct: f64,
    polling_pct: f64,
}

pub(crate) fn run(
    benchmarks: &[WorkloadSpec],
    quanta_us: &[f64],
    max: u64,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    // One sweep point per benchmark: the baseline run is shared across
    // the quantum sweep for that benchmark, so it lives inside the point.
    let points: Vec<WorkloadSpec> = benchmarks.to_vec();
    let quanta = quanta_us.to_vec();
    let rows: Vec<Row> = run_sweep(Sweep::new(points), bench, |spec, _ctx| {
        let plain = spec.build(Instrument::None);
        let polled = spec.build(Instrument::Poll { flag_addr: POLL_FLAG_ADDR });
        let safep = spec.build(Instrument::Safepoint);

        let base = run_workload(SystemConfig::xui(), &plain, IrqSource::None, max);

        let mut out = Vec::new();
        for &q in &quanta {
            let period = (q * 2_000.0) as u64;
            // Hardware safepoints: KB_Timer + tracking + safepoint mode.
            let sp = run_workload_with(
                SystemConfig::xui(),
                &safep,
                IrqSource::KbTimer { period },
                max,
                true,
            );
            // UIPI: SW timer core, flush delivery, imprecise.
            let uipi = run_workload(
                SystemConfig::uipi(),
                &plain,
                IrqSource::UipiSwTimer { period, send_latency: 380 },
                max,
            );
            // Concord-style polling: instrumented loop + remote flag.
            let poll = run_workload(
                SystemConfig::uipi(),
                &polled,
                IrqSource::PollFlag { period, addr: POLL_FLAG_ADDR },
                max,
            );
            out.push(Row {
                benchmark: spec.name(),
                quantum_us: q,
                safepoint_pct: sp.overhead_pct(&base),
                uipi_pct: uipi.overhead_pct(&base),
                polling_pct: poll.overhead_pct(&base),
            });
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();

    let mut table = Table::new(vec![
        "benchmark",
        "quantum",
        "HW safepoints",
        "UIPI",
        "polling (Concord)",
    ]);
    for r in &rows {
        table.row(vec![
            r.benchmark.to_string(),
            format!("{}µs", r.quantum_us),
            format!("{:.2}%", r.safepoint_pct),
            format!("{:.2}%", r.uipi_pct),
            format!("{:.2}%", r.polling_pct),
        ]);
    }
    table.print();

    let at5: Vec<&Row> = rows.iter().filter(|r| r.quantum_us == 5.0).collect();
    let sp5 = at5.iter().map(|r| r.safepoint_pct).sum::<f64>() / at5.len() as f64;
    let poll5 = at5.iter().map(|r| r.polling_pct).sum::<f64>() / at5.len() as f64;
    println!(
        "\n  at 5 µs: safepoints {sp5:.2}% (paper 1.2–1.5%), polling {poll5:.2}% \
         (paper 8.5–11%), ratio {:.1}× (paper ~7–10×)",
        poll5 / sp5.max(1e-9)
    );

    println!();
    let mut chart = AsciiChart::new("quantum µs", "overhead % (base64)");
    let pick = |f: fn(&Row) -> f64| {
        rows.iter()
            .filter(|r| r.benchmark == "base64")
            .map(|r| (r.quantum_us, f(r)))
            .collect::<Vec<_>>()
    };
    chart.series("HW safepoints", pick(|r| r.safepoint_pct));
    chart.series("UIPI", pick(|r| r.uipi_pct));
    chart.series("polling", pick(|r| r.polling_pct));
    chart.print();

    sink.emit("fig5_safepoints", &rows);
}
