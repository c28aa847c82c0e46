//! §6.1 "Maximum interrupt latency": the pathological workload — a long
//! chain of cache-missing loads that ultimately produces the stack
//! pointer — delays tracked delivery (whose PushSp store needs SP), while
//! flushing just squashes the chain.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_workloads::harness::{run_workload, IrqSource};
use xui_workloads::programs::{sp_dependent_chain, Instrument, WorkloadSpec};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;

#[derive(Serialize)]
struct Row {
    chain_len: usize,
    tracked_max_latency: u64,
    flush_max_latency: u64,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    chain_lens: &[usize],
    nodes: usize,
    iters: u64,
    device_period: u64,
    typical: &WorkloadSpec,
    max_cycles: u64,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let max = max_cycles;
    let points = chain_lens.to_vec();
    let rows = run_sweep(Sweep::new(points), bench, |&chain, _ctx| {
        let w = sp_dependent_chain(chain, nodes, iters);
        let tracked = run_workload(
            SystemConfig::xui(),
            &w,
            IrqSource::ForwardedDevice { period: device_period },
            max,
        );
        let flush = run_workload(
            SystemConfig::uipi(),
            &w,
            IrqSource::ForwardedDevice { period: device_period },
            max,
        );
        Row {
            chain_len: chain,
            tracked_max_latency: tracked.max_delivery_latency(),
            flush_max_latency: flush.max_delivery_latency(),
        }
    });

    let mut table = Table::new(vec!["chain length", "tracked max (cy)", "flush max (cy)"]);
    for r in &rows {
        table.row(vec![
            r.chain_len.to_string(),
            r.tracked_max_latency.to_string(),
            r.flush_max_latency.to_string(),
        ]);
    }
    table.print();

    if let Some(worst) = rows.last() {
        println!(
            "\n  at chain ≥50: tracked worst {} vs flush {} — {:.1}× \
             (paper: ≈7000 vs an order of magnitude less)",
            worst.tracked_max_latency,
            worst.flush_max_latency,
            worst.tracked_max_latency as f64 / worst.flush_max_latency.max(1) as f64
        );
    }

    // The anomaly check: on a typical benchmark, tracking's delivery
    // latency is *better* than flushing.
    let typical_name = typical.name();
    let typical = typical.build(Instrument::None);
    let t = run_workload(
        SystemConfig::xui(),
        &typical,
        IrqSource::ForwardedDevice { period: device_period },
        max,
    );
    let f = run_workload(
        SystemConfig::uipi(),
        &typical,
        IrqSource::ForwardedDevice { period: device_period },
        max,
    );
    println!(
        "  typical ({}): tracked mean {:.0} vs flush mean {:.0} — tracking wins \
         when no pathological dependence exists",
        typical_name,
        t.mean_delivery_latency(),
        f.mean_delivery_latency()
    );

    sink.emit("x1_worst_case", &rows);
}
