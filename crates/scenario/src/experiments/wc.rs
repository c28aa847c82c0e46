//! Worst-case-latency scenario band: interference injection,
//! bounded-tail obligations, and jitter CDFs.
//!
//! Each sweep point crosses (interference kind × interferer count ×
//! criticality mix × isolation arm). The run has two phases:
//!
//! 1. **Probe (cycle sim).** For every (kind, count) pair the cycle
//!    simulator runs a KB_Timer-interrupted benchmark with the matching
//!    `InterferenceConfig` knobs installed, measuring how much the
//!    delivery path really inflates. The *clean* probe's mean delivery
//!    latency calibrates the DES model's base delivery cost, so the two
//!    layers agree on the uninterfered anchor.
//! 2. **Sweep (DES).** Every point runs the mixed-criticality
//!    worst-case model (`xui_runtime::worstcase`): one high-criticality
//!    sender on vector 63 against a flood of low senders, co-located
//!    interferer occupancy bursts, periodic block windows, and the
//!    scenario's optional `FaultPlan` layered on top. The verdict —
//!    including the *bounded-latency-once-unblocked* obligation on the
//!    high vector — comes from the fault crate's invariant checker over
//!    the emitted telemetry, and the jitter CDFs from its exact
//!    worst-case reducer.
//!
//! Two artifacts are emitted: the per-scenario detail (probes + full
//! per-arm reports, id = scenario name) and the shared
//! `x1_worst_case` summary extending the §6.1 artifact with exact
//! worst-case latency, per-percentile jitter CDFs, and inversion
//! counts.

use serde::Serialize;

use xui_faults::{FaultPlan, JitterCdf};
use xui_runtime::worstcase::{
    run_worst_case, CriticalityMix, InterferenceKind, WorstCaseConfig, WorstCaseReport,
};
use xui_sim::config::{InterferenceConfig, SystemConfig};
use xui_workloads::harness::{run_workload, IrqSource};
use xui_workloads::programs::{Instrument, WorkloadSpec};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;

/// KB_Timer period of the calibration probes, in cycles.
const PROBE_PERIOD: u64 = 2_000;

/// One calibration probe on the cycle simulator.
#[derive(Serialize)]
struct ProbeRow {
    kind: &'static str,
    interferers: u32,
    cache_pct: u64,
    pipeline_pct: u64,
    mean_delivery_latency: f64,
    max_delivery_latency: u64,
}

/// One DES sweep point: the axes plus the full worst-case report.
#[derive(Serialize)]
struct ArmRow {
    kind: &'static str,
    interferers: u32,
    mix: String,
    isolated: bool,
    report: WorstCaseReport,
}

/// The shared `x1_worst_case` summary row (one per arm).
#[derive(Serialize)]
struct SummaryRow {
    kind: &'static str,
    interferers: u32,
    mix: String,
    isolated: bool,
    worst_case: u64,
    inversions: u64,
    deadline_violations: u64,
    high: JitterCdf,
    low: JitterCdf,
}

#[derive(Serialize)]
struct Detail {
    scenario: String,
    deadline: u64,
    base_delivery_cost: u64,
    probes: Vec<ProbeRow>,
    arms: Vec<ArmRow>,
}

#[derive(Serialize)]
struct Summary {
    scenario: String,
    deadline: u64,
    worst_case: u64,
    passed: bool,
    arms: Vec<SummaryRow>,
}

/// Runs one cycle-sim probe with the given interference knobs and
/// returns (mean, max) delivery latency.
fn probe(knobs: InterferenceConfig, max_cycles: u64) -> (f64, u64) {
    let mut sys = SystemConfig::xui();
    sys.core.interference = knobs;
    let w = WorkloadSpec::Fib { iters: 30_000 }.build(Instrument::None);
    let r = run_workload(sys, &w, IrqSource::KbTimer { period: PROBE_PERIOD }, max_cycles);
    (r.mean_delivery_latency(), r.max_delivery_latency())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    id: &str,
    kinds: &[InterferenceKind],
    interferer_counts: &[u32],
    mixes: &[CriticalityMix],
    isolation: &[bool],
    duration: u64,
    deadline: u64,
    probe_max_cycles: u64,
    faults: Option<&FaultPlan>,
    bench: &BenchOpts,
    sink: &mut Sink,
) -> bool {
    // Phase 1: calibration probes. The clean probe anchors the DES
    // model's base delivery cost; the interfered probes document how
    // the cycle-level delivery path responds to the same knobs the DES
    // arms sweep.
    let (clean_mean, _) = probe(InterferenceConfig::default(), probe_max_cycles);
    let base_delivery_cost = clean_mean.round() as u64;

    let probe_points: Vec<(InterferenceKind, u32)> = kinds
        .iter()
        .flat_map(|&k| interferer_counts.iter().map(move |&n| (k, n)))
        .collect();
    let probes: Vec<ProbeRow> =
        run_sweep(Sweep::new(probe_points), bench, |&(kind, n), _ctx| {
            let (cache_pct, pipeline_pct) = kind.knobs(n);
            let (mean, max) =
                probe(InterferenceConfig { cache_pct, pipeline_pct }, probe_max_cycles);
            ProbeRow {
                kind: kind.label(),
                interferers: n,
                cache_pct,
                pipeline_pct,
                mean_delivery_latency: mean,
                max_delivery_latency: max,
            }
        });

    // Phase 2: the DES worst-case sweep over every arm.
    let arm_points: Vec<(InterferenceKind, u32, CriticalityMix, bool)> = kinds
        .iter()
        .flat_map(|&k| {
            interferer_counts.iter().flat_map(move |&n| {
                mixes.iter().flat_map(move |mix| {
                    isolation.iter().map(move |&iso| (k, n, mix.clone(), iso))
                })
            })
        })
        .collect();
    let arms: Vec<ArmRow> =
        run_sweep(Sweep::new(arm_points), bench, |(kind, n, mix, iso), ctx| {
            let mut cfg = WorstCaseConfig::paper(*kind, *n, mix.clone(), *iso);
            cfg.seed = ctx.seed;
            cfg.duration = duration;
            cfg.deadline = deadline;
            cfg.base_delivery_cost = base_delivery_cost;
            cfg.plan = faults.cloned();
            let report = run_worst_case(&cfg);
            ArmRow {
                kind: kind.label(),
                interferers: *n,
                mix: mix.label.clone(),
                isolated: *iso,
                report,
            }
        });

    let mut table = Table::new(vec![
        "kind",
        "interferers",
        "mix",
        "isolated",
        "high p50",
        "high p99",
        "high max",
        "worst",
        "inversions",
        "violations",
        "pass",
    ]);
    let pct = |cdf: &JitterCdf, p: f64| {
        cdf.points
            .iter()
            .find(|pt| (pt.percentile - p).abs() < f64::EPSILON)
            .map_or(0, |pt| pt.latency)
    };
    for a in &arms {
        table.row(vec![
            a.kind.to_string(),
            a.interferers.to_string(),
            a.mix.clone(),
            a.isolated.to_string(),
            pct(&a.report.high, 50.0).to_string(),
            pct(&a.report.high, 99.0).to_string(),
            a.report.high.max.to_string(),
            a.report.worst_case.to_string(),
            a.report.inversions.to_string(),
            a.report.deadline_violations.to_string(),
            a.report.pass.to_string(),
        ]);
    }
    table.print();

    let passed = arms.iter().all(|a| a.report.pass);
    let worst_case = arms.iter().map(|a| a.report.worst_case).max().unwrap_or(0);
    if let Some(bad) = arms.iter().find(|a| !a.report.pass) {
        let detail = bad.report.first_violation.as_deref().unwrap_or("(no detail)");
        println!(
            "\n  FAIL: arm ({} × {} × {}, isolated={}) violated its latency bound {} \
             times — first: {detail}",
            bad.kind, bad.interferers, bad.mix, bad.isolated, bad.report.deadline_violations,
        );
    } else {
        println!(
            "\n  worst case {worst_case} ticks across {} arms, deadline {deadline} — \
             every bounded-latency obligation held",
            arms.len()
        );
    }
    if isolation.contains(&true) && isolation.contains(&false) {
        let max_of = |iso: bool| {
            arms.iter().filter(|a| a.isolated == iso).map(|a| a.report.high.max).max().unwrap_or(0)
        };
        println!(
            "  isolation arm: shared-core high-lane max {} vs pinned {} ticks",
            max_of(false),
            max_of(true)
        );
    }

    let summary_arms: Vec<SummaryRow> = arms
        .iter()
        .map(|a| SummaryRow {
            kind: a.kind,
            interferers: a.interferers,
            mix: a.mix.clone(),
            isolated: a.isolated,
            worst_case: a.report.worst_case,
            inversions: a.report.inversions,
            deadline_violations: a.report.deadline_violations,
            high: a.report.high.clone(),
            low: a.report.low.clone(),
        })
        .collect();

    sink.emit(
        id,
        &Detail {
            scenario: id.to_string(),
            deadline,
            base_delivery_cost,
            probes,
            arms,
        },
    );
    sink.emit(
        "x1_worst_case",
        &Summary { scenario: id.to_string(), deadline, worst_case, passed, arms: summary_arms },
    );
    passed
}
