//! The worst-case scenario band, locked end to end:
//!
//! - every `wc_*` preset is byte-identical serially, with a 4-worker
//!   sweep pool, and against its checked-in golden (the band's
//!   artifacts share the `x1_worst_case` summary id, so the summary
//!   goldens live under `wc_<name>_x1.json`);
//! - a low-vector flood never delays a pending high vector past its
//!   deadline — checked through the conformance harness (behavioural
//!   DES model + cycle simulator), the reference oracle with the
//!   protocol/kernel-model differ, and the invariant checker's
//!   parameterized obligation over a synthesized telemetry stream;
//! - the deliberate-violation preset exits nonzero from the `xui` CLI
//!   with the offending event and observed latency in the message.

use std::process::Command;

use xui_faults::invariants::{EV_DELIVER, EV_POST};
use xui_faults::{
    check_with_obligations, run_conformance, ConformanceScenario, InvariantConfig,
    LatencyObligation, ScheduledSend,
};
use xui_oracle::{Event as OracleEvent, Oracle, Schedule};
use xui_scenario::{registry, runner, BenchOpts, RunOptions, RunReport, Scenario};
use xui_telemetry::Event;

const WC_PRESETS: [&str; 4] =
    ["wc_interference", "wc_mixed_criticality", "wc_isolation", "wc_bound_violation"];

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

/// Satellite: every `wc_*` preset produces byte-identical artifacts
/// serially vs with a 4-worker pool vs the checked-in goldens — both
/// the per-scenario detail and the shared `x1_worst_case` summary.
#[test]
fn every_wc_preset_is_byte_stable_serial_vs_parallel_vs_golden() {
    for name in WC_PRESETS {
        let sc = registry::find(name).unwrap_or_else(|| panic!("missing preset {name}"));
        let detail_golden = golden(name);
        let summary_golden = golden(&format!("{name}_x1"));
        for threads in [1usize, 4] {
            let report = run_with_threads(&sc, threads);
            assert_eq!(
                report.passed,
                name != "wc_bound_violation",
                "{name} ({threads} threads): wrong pass verdict"
            );
            assert_eq!(
                report.artifact(name).unwrap_or_else(|| panic!("{name}: no detail artifact")),
                detail_golden,
                "{name} ({threads} threads): detail artifact diverged from golden"
            );
            assert_eq!(
                report
                    .artifact("x1_worst_case")
                    .unwrap_or_else(|| panic!("{name}: no summary artifact")),
                summary_golden,
                "{name} ({threads} threads): x1_worst_case summary diverged from golden"
            );
        }
    }
}

/// The flood schedule every highest-vector-first leg below shares: ten
/// distinct low vectors and the high vector land in the same cycle.
fn flood_sends() -> Vec<ScheduledSend> {
    let mut sends: Vec<ScheduledSend> =
        (1u8..=10).map(|uv| ScheduledSend { at: 3_000, uv }).collect();
    sends.push(ScheduledSend { at: 3_000, uv: 63 });
    sends
}

/// Satellite (conformance harness leg): a same-cycle low-vector flood
/// never delays the pending high vector — the behavioural DES model and
/// the cycle-level simulator both deliver 63 first.
#[test]
fn low_flood_never_delays_high_vector_in_des_and_cycle_sim() {
    let sc = ConformanceScenario::new("wc-hv-first-flood", flood_sends());
    let r = run_conformance(&sc, None);
    assert!(r.matched, "models diverged: {:?}", r.mismatch);
    assert_eq!(r.expected_sequence.first(), Some(&63), "{:?}", r.expected_sequence);
    assert_eq!(r.des_sequence.first(), Some(&63), "{:?}", r.des_sequence);
    assert_eq!(r.des_sequence.len(), 11, "flood must coalesce to one delivery per vector");
    assert_eq!(r.sim_handler_count, 11);
}

/// Satellite (oracle + kernel-model leg): the reference oracle drains
/// the flood highest-vector-first, and the protocol/kernel models agree
/// (the differ returns no divergence).
#[test]
fn low_flood_never_delays_high_vector_in_oracle_and_kernel_model() {
    let mut events: Vec<OracleEvent> =
        (1u8..=10).map(|uv| OracleEvent::Send { uv }).collect();
    events.push(OracleEvent::Send { uv: 63 });
    events.push(OracleEvent::Schedule { core: 1 });
    events.push(OracleEvent::Deliver);
    let schedule = Schedule {
        seed: 0,
        cores: 2,
        send_vectors: (1u8..=10).chain([63]).collect(),
        timer_vector: None,
        forwarded: vec![],
        events,
    };
    let out = Oracle::run(&schedule);
    assert_eq!(out.delivered.first(), Some(&63), "{:?}", out.delivered);
    assert_eq!(out.delivered.len(), 11);
    assert_eq!(out.pir, 0, "everything must drain");
    assert!(xui_oracle::check(&schedule).is_none(), "oracle/protocol/kernel diverged");
}

/// Satellite (checker leg): over a synthesized telemetry stream of the
/// same flood, the bounded-latency obligation on vector 63 holds when
/// delivery is highest-first and is violated — naming the offending
/// event and latency — when the high vector is served last.
#[test]
fn obligation_separates_highest_first_from_inverted_service_order() {
    let posts_at = 3_140; // send time + conformance send latency
    let step = 200; // per-delivery service time
    let deadline = 1_000;
    let obligation =
        LatencyObligation { name: "wc-high".into(), min_vector: 63, deadline };
    let cfg = InvariantConfig { latency_bound: u64::MAX };
    let vectors: Vec<u64> = (1u64..=10).chain([63]).collect();
    let posts: Vec<Event> = vectors
        .iter()
        .map(|&uv| Event::instant(posts_at, 0, EV_POST).with_arg("uv", uv))
        .collect();

    // Highest-vector-first: 63 is served in the first slot.
    let mut ordered = posts.clone();
    for (i, &uv) in vectors.iter().rev().enumerate() {
        ordered.push(
            Event::instant(posts_at + (i as u64 + 1) * step, 0, EV_DELIVER).with_arg("uv", uv),
        );
    }
    let report = check_with_obligations(&ordered, &cfg, std::slice::from_ref(&obligation));
    assert!(report.pass(), "{:?}", report.violations);

    // Inverted order: 63 waits behind ten low deliveries and misses.
    let mut inverted = posts;
    for (i, &uv) in vectors.iter().enumerate() {
        inverted.push(
            Event::instant(posts_at + (i as u64 + 1) * step, 0, EV_DELIVER).with_arg("uv", uv),
        );
    }
    let report = check_with_obligations(&inverted, &cfg, &[obligation]);
    assert!(!report.pass());
    let detail = &report.violations[0].detail;
    assert!(detail.contains("uintr_deliver"), "{detail}");
    assert!(detail.contains("observed latency 2200"), "{detail}");
    assert!(detail.contains("wc-high"), "{detail}");
}

/// Satellite (negative path): `xui run wc_bound_violation` exits 1 and
/// prints the offending event and observed latency. The run writes its
/// artifacts relative to the working directory, so it executes in a
/// scratch dir to keep the repo's `results/` clean.
#[test]
fn deliberate_bound_violation_exits_nonzero_with_offending_event() {
    let dir = std::env::temp_dir().join(format!("xui-wc-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    let out = Command::new(env!("CARGO_BIN_EXE_xui"))
        .args(["run", "wc_bound_violation"])
        .current_dir(&dir)
        .output()
        .expect("xui binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("uintr_deliver"), "{stdout}");
    assert!(stdout.contains("observed latency"), "{stdout}");
    assert!(stdout.contains("high-deliverable-deadline"), "{stdout}");
}

/// The mitigation arm is measurably tighter than the interfered arm in
/// the committed golden itself: within `wc_isolation`, the pinned
/// high-lane maximum beats the shared-core one.
#[test]
fn isolation_arm_is_tighter_than_interfered_arm_in_golden() {
    fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
        let serde::Value::Object(fields) = v else { panic!("expected object around `{key}`") };
        &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing `{key}`")).1
    }
    let detail = serde_json::value_from_str(&golden("wc_isolation")).expect("golden parses");
    let serde::Value::Array(arms) = field(&detail, "arms") else { panic!("arms array") };
    let max_of = |iso: bool| {
        arms.iter()
            .filter(|a| matches!(field(a, "isolated"), serde::Value::Bool(b) if *b == iso))
            .map(|a| match field(field(field(a, "report"), "high"), "max") {
                serde::Value::UInt(n) => *n,
                other => panic!("high.max not an integer: {other:?}"),
            })
            .max()
            .expect("arm present")
    };
    let (shared, pinned) = (max_of(false), max_of(true));
    assert!(
        pinned < shared,
        "pinned high-lane max {pinned} must beat shared-core max {shared}"
    );
}
