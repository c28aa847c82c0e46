//! Deterministic fault-injection scenario suite: replays named
//! [`FaultPlan`]s against the oracle differ's timed-send replay, the
//! Aspen-like server, the l3fwd router and the kernel send path, and
//! checks the four delivery invariants over the resulting traces.
//!
//! Every scenario is pure `(seed, plan)` — rerunning (at any
//! `XUI_BENCH_THREADS`) produces identical bytes.

use serde::Serialize;

use xui_core::vectors::UserVector;
use xui_faults::invariants::{EV_DELIVER, EV_IDLE, EV_POST};
use xui_faults::{
    check, check_schedule, effective_sends, expected_deliveries, FaultPlan, InvariantConfig,
    InvariantKind, ScheduledSend,
};
use xui_kernel::{KernelError, RetryPolicy, UintrKernel};
use xui_net::l3fwd::{run_l3fwd, run_l3fwd_with, IoMode, L3fwdConfig};
use xui_runtime::server::{run_server_with, ServerConfig};
use xui_telemetry::Event;

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::FaultsSuite;

/// The scenario names of the default suite, in canonical order.
const SUITE: [&str; 11] = [
    "conformance_clean_baseline",
    "conformance_drop_every_3rd",
    "conformance_duplicate_flood",
    "conformance_delayed_bursts",
    "conformance_reorder_window_4",
    "conformance_drop_delay_mix",
    "server_timer_stall_window",
    "server_dead_timer_degrades_to_polling",
    "l3fwd_dead_irq_degrades_to_polling",
    "kernel_send_retry_and_teardown",
    "checker_flags_all_four_seeded_violations",
];

/// Is `name` a scenario this suite knows how to run?
pub(crate) fn is_known(name: &str) -> bool {
    SUITE.contains(&name)
}

/// The full suite in canonical order, for the registry preset.
pub(crate) fn default_suite() -> Vec<String> {
    SUITE.iter().map(|s| (*s).to_string()).collect()
}

/// One scenario's result row. Plain fields only, so serialization is
/// byte-stable across runs and worker counts.
#[derive(Serialize)]
struct Outcome {
    name: &'static str,
    kind: &'static str,
    passed: bool,
    /// Effective posts/sends after fault application (conformance) or
    /// faults injected (recovery scenarios).
    effective: u64,
    /// Deliveries observed (conformance) or survivors (recovery).
    delivered: u64,
    /// Cross-model agreement (conformance scenarios; true elsewhere).
    matched: bool,
    /// Invariant-checker posts / delivers / violations over the
    /// scenario's delivery trace.
    inv_posts: u64,
    inv_delivers: u64,
    inv_violations: u64,
    /// Whether the component fell back to polling (recovery scenarios).
    degraded_to_polling: bool,
    detail: String,
}

/// Applies `plan` to the base schedule and replays the effective sends
/// through the oracle differ (oracle, protocol and kernel models, cycle
/// sim); the oracle's delivery sequence must match the schedule's
/// obligations and satisfy the four delivery invariants.
fn conformance_outcome(name: &'static str, plan: Option<&FaultPlan>) -> Outcome {
    let effective = effective_sends(&base_schedule(), plan);
    let expected: Vec<u8> = expected_deliveries(&effective).iter().map(|s| s.uv).collect();
    let timed: Vec<(u64, u8)> = effective.iter().map(|s| (s.at, s.uv)).collect();
    let (delivered, mismatch) = match xui_oracle::check_timed_sends(&timed) {
        Ok(out) if out.delivered != expected => {
            let m = format!(
                "models delivered {:?} but the schedule implies {expected:?}",
                out.delivered
            );
            (out.delivered, Some(m))
        }
        Ok(out) => (out.delivered, None),
        Err(d) => (d.oracle.delivered, Some(format!("{} model: {}", d.model, d.detail))),
    };
    let inv = check_schedule(&effective);
    let inv_violations = inv.violations.len() as u64;
    Outcome {
        name,
        kind: "conformance",
        passed: mismatch.is_none() && inv_violations == 0,
        effective: effective.len() as u64,
        delivered: delivered.len() as u64,
        matched: mismatch.is_none(),
        inv_posts: inv.posts,
        inv_delivers: inv.delivers,
        inv_violations,
        degraded_to_polling: false,
        detail: mismatch
            .unwrap_or_else(|| format!("DES sequence {delivered:?} == expected; sim agrees")),
    }
}

/// A 14-send schedule touching batches, vector ties and spread-out
/// singles — the shared input for the conformance scenarios.
fn base_schedule() -> Vec<ScheduledSend> {
    let spec: &[(u64, u8)] = &[
        (2_000, 5),
        (2_000, 9),
        (2_000, 5), // same-cycle duplicate: must coalesce
        (6_000, 7),
        (9_000, 1),
        (9_000, 33),
        (13_000, 12),
        (17_000, 60),
        (17_000, 2),
        (21_000, 7),
        (25_000, 40),
        (29_000, 11),
        (33_000, 5),
        (37_000, 22),
    ];
    spec.iter().map(|&(at, uv)| ScheduledSend { at, uv }).collect()
}

fn scenario_server_stall() -> Outcome {
    let mut cfg = ServerConfig::paper(xui_kernel::PreemptMechanism::XuiKbTimer, 100_000.0);
    cfg.duration = 60_000_000;
    let plan = FaultPlan::named("timer-stall-window").stall_timer(5_000_000, 20_000_000);
    let r = run_server_with(&cfg, Some(&plan));
    let passed = r.timer_faults > 0 && !r.degraded_to_polling && r.stable && r.preemptions > 0;
    Outcome {
        name: "server_timer_stall_window",
        kind: "recovery",
        passed,
        effective: r.timer_faults,
        delivered: r.preemptions,
        matched: true,
        inv_posts: 0,
        inv_delivers: 0,
        inv_violations: 0,
        degraded_to_polling: r.degraded_to_polling,
        detail: format!(
            "stalled fires slip past the window: {} faults, {} preemptions, stable={}",
            r.timer_faults, r.preemptions, r.stable
        ),
    }
}

fn scenario_server_degrade() -> Outcome {
    let mut cfg = ServerConfig::paper(xui_kernel::PreemptMechanism::XuiKbTimer, 100_000.0);
    cfg.duration = 60_000_000;
    // Every fire is lost; the guard trips after 8 and safepoint polling
    // restores preemption instead of the run collapsing (or panicking).
    let plan = FaultPlan::named("dead-timer-guarded").drop_every(1, 1).degrade_after(8);
    let r = run_server_with(&cfg, Some(&plan));
    let passed = r.degraded_to_polling && r.stable && r.preemptions > 100;
    Outcome {
        name: "server_dead_timer_degrades_to_polling",
        kind: "recovery",
        passed,
        effective: r.timer_faults,
        delivered: r.preemptions,
        matched: true,
        inv_posts: 0,
        inv_delivers: 0,
        inv_violations: 0,
        degraded_to_polling: r.degraded_to_polling,
        detail: format!(
            "graceful fallback: {} faults tripped the guard, polling kept {} preemptions, \
             GET p999 {:.1}µs",
            r.timer_faults,
            r.preemptions,
            r.get_p999_us()
        ),
    }
}

fn scenario_l3fwd_degrade() -> Outcome {
    let mut cfg = L3fwdConfig::paper(2, 0.4, IoMode::XuiInterrupt);
    cfg.duration = 8_000_000;
    let clean = run_l3fwd(&cfg);
    let plan = FaultPlan::named("dead-irq-guarded").drop_every(1, 1).degrade_after(8);
    let r = run_l3fwd_with(&cfg, Some(&plan));
    let recovered = r.forwarded as f64 > clean.forwarded as f64 * 0.9;
    let passed = r.degraded_to_polling && recovered;
    Outcome {
        name: "l3fwd_dead_irq_degrades_to_polling",
        kind: "recovery",
        passed,
        effective: r.wake_faults,
        delivered: r.forwarded,
        matched: true,
        inv_posts: 0,
        inv_delivers: 0,
        inv_violations: 0,
        degraded_to_polling: r.degraded_to_polling,
        detail: format!(
            "every wake dropped; polling fallback forwarded {} of {} clean packets \
             (free fraction {:.3})",
            r.forwarded, clean.forwarded, r.free_fraction
        ),
    }
}

fn scenario_kernel_retry() -> Outcome {
    let mut k = UintrKernel::new(2);
    let sender = k.create_thread();
    let receiver = k.create_thread();
    let mut detail = String::new();
    let mut passed = true;
    let record = |ok: bool, what: &str, detail: &mut String, passed: &mut bool| {
        *passed &= ok;
        if !ok {
            detail.push_str(what);
            detail.push_str(" FAILED; ");
        }
    };

    k.register_handler(receiver, 0x4000).expect("fresh thread");
    let uv = UserVector::new(6).expect("valid vector");
    let idx = k.register_sender(sender, receiver, uv).expect("registered handler");
    k.schedule(sender, xui_core::model::CoreId(0)).expect("idle core");
    k.schedule(receiver, xui_core::model::CoreId(1)).expect("idle core");

    // Two transient faults, then success: 3 attempts, backoff charged.
    let policy = RetryPolicy { max_attempts: 5, base: 100, factor: 2, cap: 10_000 };
    let out = k.senduipi_with_retry(sender, idx, &policy, &mut |attempt| attempt < 2);
    record(
        matches!(out, Ok(o) if o.attempts == 3 && o.backoff_cycles == 300),
        "retry-then-success",
        &mut detail,
        &mut passed,
    );

    // Permanent transient faults exhaust the budget as a typed error.
    let out = k.senduipi_with_retry(sender, idx, &policy, &mut |_| true);
    record(
        matches!(out, Err(KernelError::SendRetriesExhausted { attempts: 5, .. })),
        "retry-exhaustion",
        &mut detail,
        &mut passed,
    );

    // Send after receiver teardown: typed error, no panic.
    k.teardown_thread(receiver).expect("live thread");
    let out = k.senduipi(sender, idx);
    record(
        matches!(out, Err(KernelError::ThreadTornDown { .. })),
        "send-after-teardown",
        &mut detail,
        &mut passed,
    );

    if detail.is_empty() {
        detail = format!(
            "typed recovery end-to-end: {} retries charged {} backoff cycles",
            k.accounting().send_retries,
            k.accounting().backoff_cycles
        );
    }
    Outcome {
        name: "kernel_send_retry_and_teardown",
        kind: "recovery",
        passed,
        effective: k.accounting().send_retries,
        delivered: 1,
        matched: true,
        inv_posts: 0,
        inv_delivers: 0,
        inv_violations: 0,
        degraded_to_polling: false,
        detail,
    }
}

fn scenario_checker_detects() -> Outcome {
    // A deliberately corrupt trace: one lost wakeup, one duplicate
    // delivery, one pending-at-idle, one late delivery. The scenario
    // passes iff the checker flags every seeded class — proving the
    // invariants in the passing scenarios are actually load-bearing.
    let post = |ts, uv| Event::instant(ts, 0, EV_POST).with_arg("uv", uv);
    let deliver = |ts, uv| Event::instant(ts, 0, EV_DELIVER).with_arg("uv", uv);
    let trace = vec![
        post(100, 1),
        deliver(40_000, 1), // LatencyExceeded (bound 10_000)
        deliver(40_100, 1), // DuplicateDelivery (lane empty)
        post(52_000, 2),
        Event::instant(60_000, 0, EV_IDLE), // PirNotDrainedAtIdle (uv 2 pending)
        deliver(61_000, 2),                 // clears uv 2 within the bound
        post(70_000, 3),                    // LostWakeup (never delivered)
    ];
    let r = check(&trace, &InvariantConfig::default());
    let all_four = [
        InvariantKind::LostWakeup,
        InvariantKind::DuplicateDelivery,
        InvariantKind::PirNotDrainedAtIdle,
        InvariantKind::LatencyExceeded,
    ]
    .iter()
    .all(|&k| r.count_of(k) == 1);
    Outcome {
        name: "checker_flags_all_four_seeded_violations",
        kind: "invariants",
        passed: all_four && r.violations.len() == 4,
        effective: r.posts,
        delivered: r.delivers,
        matched: true,
        inv_posts: r.posts,
        inv_delivers: r.delivers,
        inv_violations: r.violations.len() as u64,
        degraded_to_polling: false,
        detail: format!(
            "seeded 4 violation classes, checker found {} ({} lost, {} dup, {} idle, {} late)",
            r.violations.len(),
            r.count_of(InvariantKind::LostWakeup),
            r.count_of(InvariantKind::DuplicateDelivery),
            r.count_of(InvariantKind::PirNotDrainedAtIdle),
            r.count_of(InvariantKind::LatencyExceeded),
        ),
    }
}

fn run_scenario(name: &str) -> Outcome {
    match name {
        "conformance_clean_baseline" => conformance_outcome("conformance_clean_baseline", None),
        "conformance_drop_every_3rd" => conformance_outcome(
            "conformance_drop_every_3rd",
            Some(&FaultPlan::named("drop-every-3rd").seed(7).drop_every(3, 1)),
        ),
        "conformance_duplicate_flood" => conformance_outcome(
            "conformance_duplicate_flood",
            Some(&FaultPlan::named("duplicate-flood").seed(7).duplicate_every(1, 1)),
        ),
        // Delay must exceed the sim's ~1,360-cycle post→handler pipeline:
        // a shorter delay re-posts a vector while its predecessor is
        // still in flight, which coalesces in UIRR in the cycle model but
        // not in the untimed models — a granularity gap, not a fault bug.
        "conformance_delayed_bursts" => conformance_outcome(
            "conformance_delayed_bursts",
            Some(&FaultPlan::named("delay-odd-posts").seed(7).delay_every(2, 1, 2_000)),
        ),
        "conformance_reorder_window_4" => conformance_outcome(
            "conformance_reorder_window_4",
            Some(&FaultPlan::named("reorder-window-4").seed(9).reorder_posts(4)),
        ),
        "conformance_drop_delay_mix" => conformance_outcome(
            "conformance_drop_delay_mix",
            Some(
                &FaultPlan::named("drop-delay-mix")
                    .seed(11)
                    .drop_every(5, 2)
                    .delay_every(4, 1, 1_000),
            ),
        ),
        "server_timer_stall_window" => scenario_server_stall(),
        "server_dead_timer_degrades_to_polling" => scenario_server_degrade(),
        "l3fwd_dead_irq_degrades_to_polling" => scenario_l3fwd_degrade(),
        "kernel_send_retry_and_teardown" => scenario_kernel_retry(),
        _ => scenario_checker_detects(),
    }
}

/// Runs the named scenarios. Returns whether every scenario passed.
pub(crate) fn run(p: &FaultsSuite, bench: &BenchOpts, sink: &mut Sink) -> bool {
    let names = p.scenarios.clone();
    let results =
        run_sweep(Sweep::new(names), bench, |name, _ctx| run_scenario(name));

    let mut table = Table::new(vec!["scenario", "kind", "eff", "deliv", "inv-viol", "pass"]);
    for o in &results {
        table.row(vec![
            o.name.to_string(),
            o.kind.to_string(),
            o.effective.to_string(),
            o.delivered.to_string(),
            o.inv_violations.to_string(),
            if o.passed { "ok".to_string() } else { "FAIL".to_string() },
        ]);
    }
    table.print();
    for o in &results {
        println!("  - {}: {}", o.name, o.detail);
    }

    sink.emit("faults_scenarios", &results);

    let failed: Vec<&str> = results.iter().filter(|o| !o.passed).map(|o| o.name).collect();
    if !failed.is_empty() {
        eprintln!("\nFAILED scenarios: {failed:?}");
        return false;
    }
    println!("\n  all {} scenarios passed", results.len());
    true
}
