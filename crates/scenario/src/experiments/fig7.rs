//! Figure 7: RocksDB-on-Aspen tail latency vs offered load, comparing
//! preemption mechanisms at a 5 µs quantum. An optional [`FaultPlan`]
//! from the scenario runs every point through the faulted server path.

use serde::Serialize;

use xui_faults::FaultPlan;
use xui_kernel::PreemptMechanism;
use xui_runtime::{run_server_with, ServerConfig};
use xui_telemetry::NullRecorder;

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::Fig7Rocksdb;

#[derive(Serialize)]
struct Row {
    mechanism: &'static str,
    offered_krps: f64,
    get_p999_us: f64,
    scan_p99_us: f64,
    stable: bool,
}

fn mech_name(m: PreemptMechanism) -> &'static str {
    match m {
        PreemptMechanism::None => "no-preemption",
        PreemptMechanism::UipiSwTimer => "UIPI (SW timer)",
        PreemptMechanism::XuiKbTimer => "xUI (KB_Timer)",
        PreemptMechanism::Signal => "signals",
    }
}

pub(crate) fn run(
    p: &Fig7Rocksdb,
    faults: Option<&FaultPlan>,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let Fig7Rocksdb { ref loads_krps, ref mechanisms, slo_us } = *p;
    let points: Vec<(PreemptMechanism, f64)> = mechanisms
        .iter()
        .flat_map(|&m| loads_krps.iter().map(move |&krps| (m, krps)))
        .collect();
    let rows = run_sweep(Sweep::new(points), bench, |&(m, krps), _ctx| {
        let cfg = ServerConfig::paper(m, krps * 1_000.0);
        let r = run_server_with(&cfg, faults, &mut NullRecorder);
        Row {
            mechanism: mech_name(m),
            offered_krps: krps,
            get_p999_us: r.get_p999_us(),
            scan_p99_us: r.scan_p99_us(),
            stable: r.stable,
        }
    });

    let mut table = Table::new(vec![
        "mechanism",
        "offered (krps)",
        "GET p99.9",
        "SCAN p99",
        "stable",
    ]);
    for r in &rows {
        table.row(vec![
            r.mechanism.to_string(),
            format!("{:.0}", r.offered_krps),
            format!("{:.0}µs", r.get_p999_us),
            format!("{:.0}µs", r.scan_p99_us),
            r.stable.to_string(),
        ]);
    }
    table.print();

    // Max load meeting the GET SLO, per mechanism.
    let capacity = |name: &str| {
        rows.iter()
            .filter(|r| r.mechanism == name && r.stable && r.get_p999_us <= slo_us)
            .map(|r| r.offered_krps)
            .fold(0.0f64, f64::max)
    };
    let uipi = capacity("UIPI (SW timer)");
    let xui = capacity("xUI (KB_Timer)");
    let none = capacity("no-preemption");
    let sig = capacity("signals");
    println!("\n  GET throughput at 1 ms p99.9 SLO:");
    println!("    no-preemption : {none:>6.0} krps");
    println!("    signals       : {sig:>6.0} krps (§2: 2.4 µs per delivery)");
    println!("    UIPI          : {uipi:>6.0} krps (+1 dedicated timer core, not shown)");
    println!(
        "    xUI           : {xui:>6.0} krps  ({:+.1}% vs UIPI; paper: ≈ +10%)",
        (xui / uipi - 1.0) * 100.0
    );

    sink.emit("fig7_rocksdb", &rows);
}
