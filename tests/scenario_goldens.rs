//! The golden check, and the `xui` CLI's strictness.
//!
//! [`report`] runs the golden check of `tests/support` once per test
//! binary over every registry preset, the `oracle_fuzz` smoke corpus
//! and a scenario-file run, and adds one more check: some run writes
//! every golden. [`every_preset_matches_goldens`] fails on any
//! mismatch; each `*_matches_golden` test fails on the mismatches of
//! its own job, so a failure names the preset at fault. A preset is
//! checked as soon as it is in the registry. Tier-1 runs `oracle_fuzz`
//! at its smoke corpus only; the ignored variant adds the full corpus:
//! `cargo test --release --test scenario_goldens -- --ignored`.

mod support;

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::OnceLock;

use support::{xui, Job, Report, SCENARIO_FILE, SHARED};
use xui_scenario::{registry, runner, BenchOpts, RunOptions, Scenario};

/// `oracle_fuzz` at its smoke corpus, checked against
/// `oracle_fuzz_smoke.json` and not against the committed results.
const ORACLE_SMOKE: [&str; 5] = ["oracle_fuzz", "--full", "400", "--sim", "50"];

/// The job keys of the smoke-corpus and scenario-file runs.
const SMOKE_KEY: &str = "oracle_fuzz_smoke";
const SCENARIO_FILE_KEY: &str = "scenario_file";

/// The golden check; `full_oracle` adds the full `oracle_fuzz` corpus.
fn check(full_oracle: bool) -> Report {
    let mut jobs: Vec<Job> = registry::names()
        .into_iter()
        .filter(|name| full_oracle || name != ORACLE_SMOKE[0])
        .map(Job::preset)
        .collect();
    jobs.push(Job {
        key: SMOKE_KEY.into(),
        preset: ORACLE_SMOKE[0].into(),
        args: ORACLE_SMOKE.map(String::from).to_vec(),
        golden_suffix: "_smoke",
        committed: false,
    });
    // `xui show fig6_timer_core > scenario.json; xui run scenario.json`.
    jobs.push(Job {
        key: SCENARIO_FILE_KEY.into(),
        args: vec![SCENARIO_FILE.into()],
        ..Job::preset("fig6_timer_core".into())
    });

    let mut report = support::check(&jobs);
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let stems: BTreeSet<String> = std::fs::read_dir(&goldens)
        .expect("tests/goldens is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.strip_suffix(".json").map(String::from))
        .collect();
    let shared = report.rows.entry(SHARED.into()).or_default();
    for stem in stems {
        if !report.written.contains(&stem) && (full_oracle || stem != ORACLE_SMOKE[0]) {
            shared.push(format!("tests/goldens/{stem}.json: no run writes it"));
        }
    }
    report
}

/// The tier-1 golden check, run once and shared by every test below.
fn report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| check(false))
}

#[test]
fn every_preset_matches_goldens() {
    report().assert_clean(None);
}

/// The same check with the full `oracle_fuzz` corpus (~20 s on its
/// own in a release build).
#[test]
#[ignore = "slow: the full oracle_fuzz corpus; run with --release -- --ignored"]
fn every_preset_matches_goldens_with_full_oracle() {
    check(true).assert_clean(None);
}

#[test]
fn fig2_timeline_matches_golden() {
    report().assert_clean(Some("fig2_timeline"));
}

/// Fig 4: receiver overheads at a 5 µs interrupt interval.
#[test]
fn fig4_receiver_overhead_matches_golden() {
    report().assert_clean(Some("fig4_receiver_overhead"));
}

/// Fig 5: matmul and base64 under HW safepoints, UIPI and compiler
/// polling across the quantum sweep.
#[test]
fn fig5_safepoints_matches_golden() {
    report().assert_clean(Some("fig5_safepoints"));
}

#[test]
fn fig6_timer_core_matches_golden() {
    report().assert_clean(Some("fig6_timer_core"));
}

#[test]
fn fig7_rocksdb_matches_golden() {
    report().assert_clean(Some("fig7_rocksdb"));
}

#[test]
fn fig8_l3fwd_matches_golden() {
    report().assert_clean(Some("fig8_l3fwd"));
}

#[test]
fn fig9_dsa_matches_golden() {
    report().assert_clean(Some("fig9_dsa"));
}

#[test]
fn table2_uipi_metrics_matches_golden() {
    report().assert_clean(Some("table2_uipi_metrics"));
}

#[test]
fn ablation_multiworker_matches_golden() {
    report().assert_clean(Some("ablation_multiworker"));
}

/// Flush, drain and tracked delivery side by side.
#[test]
fn ablation_strategies_matches_golden() {
    report().assert_clean(Some("ablation_strategies"));
}

/// Polling versus tracked delivery on the cycle-level sim.
#[test]
fn ablation_polling_vs_tracked_matches_golden() {
    report().assert_clean(Some("ablation_polling_vs_tracked"));
}

/// The preset that scales the ROB (and IQ/LQ/SQ) from 192 to 1536
/// entries.
#[test]
fn ablation_window_matches_golden() {
    report().assert_clean(Some("ablation_window"));
}

#[test]
fn x1_worst_case_matches_golden() {
    report().assert_clean(Some("x1_worst_case"));
}

/// The squash-heavy preset: flush delivery on pointer chases of every
/// size, with flushed-µop counts per interrupt.
#[test]
fn x2_flush_forensics_matches_golden() {
    report().assert_clean(Some("x2_flush_forensics"));
}

#[test]
fn x3_signal_costs_matches_golden() {
    report().assert_clean(Some("x3_signal_costs"));
}

#[test]
fn x4_polling_tax_matches_golden() {
    report().assert_clean(Some("x4_polling_tax"));
}

#[test]
fn mt_tenants_matches_golden() {
    report().assert_clean(Some("mt_tenants"));
}

#[test]
fn mt_million_clients_matches_golden() {
    report().assert_clean(Some("mt_million_clients"));
}

/// The fault-injection suite must pass (exit 0) as well as match.
#[test]
fn faults_suite_matches_golden_and_passes() {
    report().assert_clean(Some("faults_scenarios"));
}

/// `oracle_fuzz --full 400 --sim 50` against `oracle_fuzz_smoke.json`.
#[test]
fn oracle_smoke_corpus_matches_golden() {
    report().assert_clean(Some(SMOKE_KEY));
}

/// A preset serialized to JSON parses back to itself, and
/// `xui show fig6_timer_core > scenario.json; xui run scenario.json`
/// writes the preset's bytes.
#[test]
fn scenario_file_round_trip_matches_golden() {
    let sc = registry::find("fig6_timer_core").expect("preset exists");
    assert_eq!(Scenario::from_json(&sc.to_json()).expect("round-trips"), sc);
    report().assert_clean(Some(SCENARIO_FILE_KEY));
}

#[test]
fn runner_rejects_unsupported_telemetry_and_misplaced_faults() {
    // fig9 feeds neither a trace nor a metrics snapshot.
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

// --- xui CLI behaviour --------------------------------------------------

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
