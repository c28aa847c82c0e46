//! Multi-tenant capacity: N tenant runtimes multiplexed onto shared
//! cores via the per-core KB_Timer (§4.3), each tenant driven by the
//! batch-drawn open-loop stream of a large modeled client population.
//! The artifact id is the scenario name, so several presets (the
//! tenancy sweep and the million-client configuration) can share this
//! experiment without colliding in `results/`.

use serde::Serialize;

use xui_kernel::PreemptMechanism;
use xui_runtime::tenants::{run_multi_tenant_metrics, MultiTenantConfig};
use xui_telemetry::MetricsSnapshot;
use xui_workloads::ClientPopulation;

use super::run_sweep;
use crate::report::save_metrics;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;

#[derive(Serialize)]
struct Row {
    mechanism: &'static str,
    tenants: usize,
    cores: usize,
    clients: u64,
    offered_krps: f64,
    achieved_krps: f64,
    completed: u64,
    mean_sojourn_us: f64,
    worst_p99_us: f64,
    fairness_p99: f64,
    preemptions: u64,
    arrival_batches: u64,
    engine_events: u64,
    peak_pending: usize,
    queue_tier: String,
    busy_pct: f64,
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

fn us(cycles: f64) -> f64 {
    cycles / 2_000.0
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    id: &str,
    tenant_counts: &[usize],
    cores: usize,
    clients_per_tenant: u64,
    rps_per_client: f64,
    mechanisms: &[PreemptMechanism],
    quantum: u64,
    duration: u64,
    arrival_batch: usize,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let points: Vec<(PreemptMechanism, usize)> = mechanisms
        .iter()
        .flat_map(|&m| tenant_counts.iter().map(move |&n| (m, n)))
        .collect();
    let population = ClientPopulation { clients: clients_per_tenant, rps_per_client };
    let results: Vec<(Row, MetricsSnapshot)> =
        run_sweep(Sweep::new(points), bench, |&(m, n), _ctx| {
            let mut cfg = MultiTenantConfig::paper(n, cores, population, m);
            cfg.quantum = quantum;
            cfg.duration = duration;
            cfg.arrival_batch = arrival_batch;
            let (r, snapshot) = run_multi_tenant_metrics(&cfg);
            let sojourns: u64 = r.tenants.iter().map(|t| t.sojourn.count).sum();
            let mean: f64 = r
                .tenants
                .iter()
                .map(|t| t.sojourn.mean * t.sojourn.count as f64)
                .sum::<f64>()
                / sojourns.max(1) as f64;
            let worst_p99 = r.tenants.iter().map(|t| t.sojourn.p99).max().unwrap_or(0);
            let row = Row {
                mechanism: mech_name(m),
                tenants: n,
                cores,
                clients: clients_per_tenant * n as u64,
                offered_krps: population.aggregate_rps() * n as f64 / 1_000.0,
                achieved_krps: r.achieved_rps / 1_000.0,
                completed: r.completed,
                mean_sojourn_us: us(mean),
                worst_p99_us: us(worst_p99 as f64),
                fairness_p99: r.fairness_p99,
                preemptions: r.preemptions,
                arrival_batches: r.arrival_batches,
                engine_events: r.engine_events,
                peak_pending: r.peak_pending,
                queue_tier: r.queue_tier,
                busy_pct: r.busy_fraction * 100.0,
                stable: r.stable,
            };
            (row, snapshot)
        });

    let mut table = Table::new(vec![
        "mechanism",
        "tenants",
        "clients",
        "offered",
        "achieved",
        "mean",
        "worst p99",
        "fair",
        "busy",
        "tier",
        "stable",
    ]);
    for (r, _) in &results {
        table.row(vec![
            r.mechanism.to_string(),
            r.tenants.to_string(),
            r.clients.to_string(),
            format!("{:.0}k", r.offered_krps),
            format!("{:.0}k", r.achieved_krps),
            format!("{:.1}µs", r.mean_sojourn_us),
            format!("{:.0}µs", r.worst_p99_us),
            format!("{:.2}", r.fairness_p99),
            format!("{:.0}%", r.busy_pct),
            r.queue_tier.clone(),
            r.stable.to_string(),
        ]);
    }
    table.print();

    let total_events: u64 = results.iter().map(|(r, _)| r.engine_events).sum();
    let total_arrivals: u64 = results.iter().map(|(r, _)| r.completed).sum();
    let batches: u64 = results.iter().map(|(r, _)| r.arrival_batches).sum();
    println!(
        "\n  arrival generation: {batches} batch events fed {total_arrivals} served \
         requests across {total_events} engine events (one schedule per batch, \
         not per packet)"
    );
    if let Some((headline, _)) = results.last() {
        println!(
            "  headline point: {} tenants × {} clients on {} cores via {} — \
             {:.0} krps achieved, queue tier `{}`",
            headline.tenants,
            headline.clients / headline.tenants as u64,
            headline.cores,
            headline.mechanism,
            headline.achieved_krps,
            headline.queue_tier,
        );
    }

    let rows: Vec<&Row> = results.iter().map(|(r, _)| r).collect();
    sink.emit(id, &rows);

    if bench.metrics {
        if let Some((_, snapshot)) = results.last() {
            sink.saved(save_metrics(id, snapshot));
        }
    }
}
