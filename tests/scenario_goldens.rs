//! Golden tests for the scenario layer: every preset must reproduce the
//! pre-refactor binary output byte for byte, serially and with a
//! 4-thread sweep pool, and the `xui` CLI must reject bad input loudly.
//!
//! The always-on subset keeps tier-1 inside its budget; the full
//! preset matrix (including the slow cycle-level sweeps) runs under
//! `cargo test -- --ignored`.

use std::process::Command;

use xui_scenario::spec::Experiment;
use xui_scenario::{registry, runner, BenchOpts, RunOptions, RunReport, Scenario};

fn golden(id: &str) -> String {
    let path = format!("{}/tests/goldens/{id}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

fn run_with_threads(sc: &Scenario, threads: usize) -> RunReport {
    let opts = RunOptions {
        bench: BenchOpts { threads: Some(threads), ..BenchOpts::default() },
        save: false,
        ..RunOptions::default()
    };
    runner::run(sc, &opts).expect("scenario runs")
}

fn assert_matches_goldens(sc: &Scenario, report: &RunReport, label: &str) {
    assert!(!report.artifacts.is_empty(), "{}: no artifacts", sc.name);
    for artifact in &report.artifacts {
        assert_eq!(
            artifact.json,
            golden(&artifact.id),
            "{} ({label}): artifact `{}` diverged from the pre-refactor golden",
            sc.name,
            artifact.id,
        );
    }
}

/// Runs `name` serially and with a 4-worker pool; both must match the
/// golden bytes (the sweep reassembles results in point order, so worker
/// count must be invisible in the output).
fn check_preset(name: &str) {
    let sc = registry::find(name).expect("preset exists");
    let serial = run_with_threads(&sc, 1);
    assert_matches_goldens(&sc, &serial, "serial");
    let parallel = run_with_threads(&sc, 4);
    assert_matches_goldens(&sc, &parallel, "4 threads");
}

#[test]
fn fig2_timeline_matches_golden() {
    check_preset("fig2_timeline");
}

#[test]
fn fig6_timer_core_matches_golden() {
    check_preset("fig6_timer_core");
}

#[test]
fn fig7_rocksdb_matches_golden() {
    check_preset("fig7_rocksdb");
}

#[test]
fn fig8_l3fwd_matches_golden() {
    check_preset("fig8_l3fwd");
}

#[test]
fn fig9_dsa_matches_golden() {
    check_preset("fig9_dsa");
}

#[test]
fn table2_uipi_metrics_matches_golden() {
    check_preset("table2_uipi_metrics");
}

#[test]
fn ablation_multiworker_matches_golden() {
    check_preset("ablation_multiworker");
}

/// The squash-heavy preset: flush delivery on pointer chases of every
/// size, with flushed-µop counts per interrupt.
#[test]
fn x2_flush_forensics_matches_golden() {
    check_preset("x2_flush_forensics");
}

/// The preset that scales the ROB (and IQ/LQ/SQ) from 192 to 1536
/// entries.
#[test]
fn ablation_window_matches_golden() {
    check_preset("ablation_window");
}

/// Fig 4: receiver overheads at a 5 µs interrupt interval.
#[test]
fn fig4_receiver_overhead_matches_golden() {
    check_preset("fig4_receiver_overhead");
}

/// Flush, drain and tracked delivery side by side.
#[test]
fn ablation_strategies_matches_golden() {
    check_preset("ablation_strategies");
}

/// Fig 5: matmul and base64 under HW safepoints, UIPI and compiler
/// polling across the quantum sweep — the slowest cycle-level preset
/// in tier-1.
#[test]
fn fig5_safepoints_matches_golden() {
    check_preset("fig5_safepoints");
}

#[test]
fn x1_worst_case_matches_golden() {
    check_preset("x1_worst_case");
}

/// Polling versus tracked delivery on the cycle-level sim.
#[test]
fn ablation_polling_vs_tracked_matches_golden() {
    check_preset("ablation_polling_vs_tracked");
}

#[test]
fn x3_signal_costs_matches_golden() {
    check_preset("x3_signal_costs");
}

#[test]
fn x4_polling_tax_matches_golden() {
    check_preset("x4_polling_tax");
}

#[test]
fn mt_tenants_matches_golden() {
    check_preset("mt_tenants");
}

#[test]
fn mt_million_clients_matches_golden() {
    check_preset("mt_million_clients");
}

#[test]
fn faults_suite_matches_golden_and_passes() {
    let sc = registry::find("faults_scenarios").expect("preset exists");
    let report = run_with_threads(&sc, 1);
    assert!(report.passed, "faults suite must pass");
    assert_matches_goldens(&sc, &report, "serial");
    let parallel = run_with_threads(&sc, 4);
    assert_matches_goldens(&sc, &parallel, "4 threads");
}

#[test]
fn oracle_smoke_corpus_matches_golden() {
    let mut sc = registry::find("oracle_fuzz").expect("preset exists");
    let Experiment::OracleFuzz { full, sim } = &mut sc.experiment else {
        panic!("oracle_fuzz preset carries the wrong experiment")
    };
    (*full, *sim) = (400, 50);
    let report = run_with_threads(&sc, 1);
    assert!(report.passed, "smoke corpus must agree across models");
    assert_eq!(report.artifact("oracle_fuzz"), Some(golden("oracle_fuzz_smoke").as_str()));
    let parallel = run_with_threads(&sc, 4);
    assert_eq!(parallel.artifact("oracle_fuzz"), Some(golden("oracle_fuzz_smoke").as_str()));
}

/// A preset serialized to JSON and parsed back runs to the same bytes:
/// the scenario-file path through `xui run <path.json>` is equivalent to
/// the preset path.
#[test]
fn scenario_file_round_trip_matches_golden() {
    let sc = registry::find("fig6_timer_core").expect("preset exists");
    let parsed = Scenario::from_json(&sc.to_json()).expect("round-trips");
    assert_eq!(parsed, sc);
    let report = run_with_threads(&parsed, 1);
    assert_matches_goldens(&parsed, &report, "from JSON");
}

#[test]
fn runner_rejects_unsupported_telemetry_and_misplaced_faults() {
    // fig9 declares no trace/metrics capability.
    let sc = registry::find("fig9_dsa").expect("preset exists");
    let opts = RunOptions {
        bench: BenchOpts { trace: Some("t.json".into()), ..BenchOpts::default() },
        save: false,
        ..RunOptions::default()
    };
    let err = runner::run(&sc, &opts).expect_err("trace must be rejected");
    assert!(err.contains("--trace"), "unexpected error: {err}");

    let opts = RunOptions {
        bench: BenchOpts { metrics: true, ..BenchOpts::default() },
        save: false,
        ..RunOptions::default()
    };
    let err = runner::run(&sc, &opts).expect_err("metrics must be rejected");
    assert!(err.contains("--metrics"), "unexpected error: {err}");

    // Fault plans only attach to the faultable DES experiments.
    let mut sc = registry::find("fig6_timer_core").expect("preset exists");
    sc.faults = Some(xui_faults::FaultPlan::named("nope").drop_every(2, 1));
    let err = runner::run(&sc, &RunOptions::default()).expect_err("faults must be rejected");
    assert!(err.contains("fault"), "unexpected error: {err}");
}

// --- the slow full matrix -----------------------------------------------

/// Every preset, default parameters, against its golden. Several presets
/// sweep the cycle-level simulator for tens of seconds each, so this
/// runs outside tier-1: `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: full preset matrix (minutes); run with -- --ignored"]
fn full_matrix_matches_goldens() {
    for sc in registry::all() {
        // The worst-case band shares the `x1_worst_case` artifact id
        // with the §6.1 experiment (different schema) and includes a
        // deliberate-failure preset; its goldens live under wc_* names
        // and are checked by tests/worst_case.rs.
        if sc.name.starts_with("wc_") {
            continue;
        }
        let report = run_with_threads(&sc, 4);
        assert_matches_goldens(&sc, &report, "full matrix");
    }
}

// --- xui CLI behaviour --------------------------------------------------

fn xui() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xui"))
}

#[test]
fn cli_list_names_every_preset() {
    let out = xui().arg("list").output().expect("xui runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in registry::names() {
        assert!(stdout.contains(&name), "xui list missing `{name}`");
    }
}

#[test]
fn cli_show_prints_scenario_json() {
    let out = xui().args(["show", "fig9_dsa"]).output().expect("xui runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let parsed = Scenario::from_json(&stdout).expect("valid scenario JSON");
    assert_eq!(parsed, registry::find("fig9_dsa").expect("preset exists"));
}

#[test]
fn cli_rejects_unknown_scenario_command_and_flag() {
    let out = xui().args(["run", "no_such_scenario"]).output().expect("xui runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));

    let out = xui().args(["frobnicate"]).output().expect("xui runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // The misspelled flag that the old binaries silently ignored.
    let out = xui().args(["run", "fig6_timer_core", "--bench-mata"]).output().expect("xui runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");

    let out = xui().args(["run", "fig6_timer_core", "--threads", "many"]).output().expect("xui");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_rejects_unsupported_trace_request() {
    // fig9_dsa has no trace capability: the CLI must fail fast, not
    // silently drop the request.
    let out = xui()
        .args(["run", "fig9_dsa", "--trace", "/tmp/unused-trace.json"])
        .output()
        .expect("xui runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
}
