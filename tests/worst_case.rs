//! The worst-case scenario band:
//!
//! - every `wc_*` preset's detail and `<preset>_x1` summary are
//!   byte-stable at 1 and 4 threads and equal their goldens, and only
//!   the deliberate-violation preset exits nonzero — the golden check
//!   of `tests/support` over the band;
//! - a low-vector flood never delays a pending high vector past its
//!   deadline — checked as timed sends through the oracle differ (all
//!   three models, the cycle simulator included), as a hand-written
//!   oracle schedule, and through the invariant checker's
//!   parameterized obligation over a synthesized telemetry stream;
//! - the deliberate-violation preset exits nonzero from the `xui` CLI
//!   with the offending event and observed latency in the message.

mod support;

use xui_faults::invariants::{EV_DELIVER, EV_POST};
use xui_faults::{
    check_with_obligations, expected_deliveries, InvariantConfig, LatencyObligation,
    ScheduledSend,
};
use xui_oracle::{Event as OracleEvent, Oracle, Schedule};
use xui_telemetry::Event;

/// Every `wc_*` preset writes its detail and `<preset>_x1` summary,
/// byte-identical at 1 and 4 threads and to the goldens, with the
/// deliberate violation the only nonzero exit.
#[test]
fn every_wc_preset_is_byte_stable_serial_vs_parallel_vs_golden() {
    let presets: Vec<String> =
        xui_scenario::registry::names().into_iter().filter(|n| n.starts_with("wc_")).collect();
    assert!(presets.iter().any(|n| n == support::MUST_FAIL), "{presets:?}");
    let jobs: Vec<support::Job> = presets.iter().cloned().map(support::Job::preset).collect();
    let report = support::check(&jobs);
    report.assert_clean(None);
    for name in &presets {
        for id in [name.clone(), format!("{name}_x1")] {
            assert!(report.written.contains(&id), "{name}: wrote no `{id}` artifact");
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

/// Satellite (timed-send leg): a same-cycle low-vector flood never
/// delays the pending high vector — replayed as timed sends through the
/// oracle, the protocol and kernel models and the cycle-level simulator,
/// all of which deliver 63 first.
#[test]
fn low_flood_never_delays_high_vector_in_des_and_cycle_sim() {
    let sends = flood_sends();
    let expected = expected_deliveries(&sends);
    assert_eq!(expected.first().map(|s| s.uv), Some(63), "{expected:?}");
    let timed: Vec<(u64, u8)> = sends.iter().map(|s| (s.at, s.uv)).collect();
    let out = xui_oracle::check_timed_sends(&timed).expect("models agree");
    assert_eq!(out.delivered.first(), Some(&63), "{:?}", out.delivered);
    assert_eq!(out.delivered.len(), 11, "flood must coalesce to one delivery per vector");
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
    let posts_at = 3_140; // send time + the sim replay's send latency
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
    let out = support::xui()
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
    fn field<T: serde::Deserialize>(v: &serde::Value, key: &str) -> T {
        serde::field(v, "wc_isolation", key).unwrap_or_else(|e| panic!("{e}"))
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/wc_isolation.json");
    let text = std::fs::read_to_string(path).expect("the wc_isolation golden is readable");
    let detail = serde_json::value_from_str(&text).expect("golden parses");
    let arms: Vec<serde::Value> = field(&detail, "arms");
    let max_of = |iso: bool| {
        arms.iter()
            .filter(|a| field::<bool>(a, "isolated") == iso)
            .map(|a| {
                let high: serde::Value = field(&field::<serde::Value>(a, "report"), "high");
                field::<u128>(&high, "max")
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
