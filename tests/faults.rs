//! Fault-injection integration suite: the four delivery invariants,
//! faulted schedules replayed through the oracle differ and the
//! graceful-degradation paths,
//! exercised end-to-end through the facade crate.
//!
//! Every test body runs under a watchdog so a liveness bug (a fault
//! path that spins instead of degrading) fails the suite with a named
//! timeout instead of hanging `cargo test`.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use xui::faults::invariants::{EV_DELIVER, EV_IDLE, EV_POST};
use xui::faults::{
    check, check_schedule, effective_sends, expected_deliveries, FaultInjector, FaultPlan,
    InvariantConfig, InvariantKind, ScheduledSend,
};
use xui::kernel::{KernelError, PreemptMechanism, RetryPolicy, UintrKernel};
use xui::net::{run_l3fwd, run_l3fwd_with, IoMode, L3fwdConfig};
use xui::oracle::check_timed_sends;
use xui::runtime::{run_server, run_server_with, ServerConfig};
use xui::telemetry::Event;

/// Runs `body` on its own thread and fails if it exceeds `secs`.
/// Panics inside the body propagate (the channel sender is dropped
/// without reporting, and the join surfaces the payload).
fn with_timeout(name: &str, secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => handle.join().expect("test thread"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("test {name} exceeded its {secs}s watchdog")
        }
        // Sender dropped without sending: the body panicked. Join to
        // re-raise the original panic payload.
        Err(mpsc::RecvTimeoutError::Disconnected) => handle.join().expect("test thread"),
    }
}

fn schedule() -> Vec<ScheduledSend> {
    (0..12)
        .map(|i| ScheduledSend { at: 3_000 + i * 4_000, uv: ((i * 11) % 64) as u8 })
        .collect()
}

#[test]
fn conformance_agrees_across_models_over_a_seed_grid() {
    with_timeout("conformance_agrees_across_models_over_a_seed_grid", 120, || {
        let sends = schedule();
        for seed in [1u64, 7, 42, 1234] {
            let plans = [
                FaultPlan::named("grid-drop").seed(seed).drop_every(3, 2),
                FaultPlan::named("grid-dup").seed(seed).duplicate_every(2, 1),
                FaultPlan::named("grid-reorder").seed(seed).reorder_posts(3),
            ];
            for plan in &plans {
                let effective = effective_sends(&sends, Some(plan));
                let timed: Vec<(u64, u8)> = effective.iter().map(|s| (s.at, s.uv)).collect();
                let out = check_timed_sends(&timed)
                    .unwrap_or_else(|d| panic!("seed {seed} plan {:?}: {d:?}", plan.name));
                let expected: Vec<u8> =
                    expected_deliveries(&effective).iter().map(|s| s.uv).collect();
                assert_eq!(out.delivered, expected, "seed {seed} plan {:?}", plan.name);
                let inv = check_schedule(&effective);
                assert!(
                    inv.pass(),
                    "seed {seed} plan {:?}: surviving schedule violates invariants: {:?}",
                    plan.name,
                    inv.violations
                );
            }
        }
    });
}

#[test]
fn invariant_checker_flags_every_violation_class() {
    with_timeout("invariant_checker_flags_every_violation_class", 30, || {
        let post = |ts, uv| Event::instant(ts, 0, EV_POST).with_arg("uv", uv);
        let deliver = |ts, uv| Event::instant(ts, 0, EV_DELIVER).with_arg("uv", uv);
        let trace = vec![
            post(100, 1),
            deliver(40_000, 1),
            deliver(40_100, 1),
            post(52_000, 2),
            Event::instant(60_000, 0, EV_IDLE),
            deliver(61_000, 2),
            post(70_000, 3),
        ];
        let r = check(&trace, &InvariantConfig::default());
        for kind in [
            InvariantKind::LostWakeup,
            InvariantKind::DuplicateDelivery,
            InvariantKind::PirNotDrainedAtIdle,
            InvariantKind::LatencyExceeded,
        ] {
            assert_eq!(r.count_of(kind), 1, "{kind:?}");
        }
    });
}

#[test]
fn fault_plans_replay_identically_from_seed_and_plan() {
    with_timeout("fault_plans_replay_identically_from_seed_and_plan", 60, || {
        let plan = FaultPlan::named("replay")
            .seed(99)
            .drop_every(4, 2)
            .delay_every(3, 1, 700)
            .reorder_posts(3);
        let decisions = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            let acts: Vec<_> =
                (0..64).map(|i| format!("{:?}", inj.on_post(i * 1_000))).collect();
            let mut lanes: Vec<u32> = (0..16).collect();
            let key = inj.permute_posts(&mut lanes);
            (acts, lanes, key)
        };
        assert_eq!(decisions(&plan), decisions(&plan.clone()));

        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 90_000.0);
        cfg.duration = 30_000_000;
        let faulty = FaultPlan::named("replay-server").seed(5).drop_every(3, 1);
        let a = run_server_with(&cfg, Some(&faulty));
        let b = run_server_with(&cfg, Some(&faulty));
        assert_eq!(a.timer_faults, b.timer_faults);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.get_latency.p999, b.get_latency.p999);
    });
}

#[test]
fn server_survives_a_dead_timer_by_degrading_to_polling() {
    with_timeout("server_survives_a_dead_timer_by_degrading_to_polling", 120, || {
        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 90_000.0);
        cfg.duration = 30_000_000;
        let clean = run_server(&cfg);
        let plan = FaultPlan::named("dead-timer").drop_every(1, 1).degrade_after(6);
        let r = run_server_with(&cfg, Some(&plan));
        assert!(r.degraded_to_polling, "guard should trip");
        assert_eq!(r.timer_faults, 6, "faults stop counting once degraded");
        assert!(r.stable, "degraded run must keep up with load");
        assert!(
            r.preemptions * 2 > clean.preemptions,
            "safepoint polling keeps preempting: {} vs clean {}",
            r.preemptions,
            clean.preemptions
        );
    });
}

#[test]
fn l3fwd_survives_a_dead_interrupt_path_by_degrading_to_polling() {
    with_timeout("l3fwd_survives_a_dead_interrupt_path_by_degrading_to_polling", 120, || {
        let mut cfg = L3fwdConfig::paper(2, 0.4, IoMode::XuiInterrupt);
        cfg.duration = 6_000_000;
        let clean = run_l3fwd(&cfg);
        let plan = FaultPlan::named("dead-irq").drop_every(1, 1).degrade_after(6);
        let r = run_l3fwd_with(&cfg, Some(&plan));
        assert!(r.degraded_to_polling, "guard should trip");
        assert!(
            r.forwarded as f64 > clean.forwarded as f64 * 0.9,
            "polling fallback forwards: {} vs clean {}",
            r.forwarded,
            clean.forwarded
        );
    });
}

#[test]
fn kernel_send_faults_are_typed_and_recoverable() {
    with_timeout("kernel_send_faults_are_typed_and_recoverable", 30, || {
        let mut k = UintrKernel::new(2);
        let sender = k.create_thread();
        let receiver = k.create_thread();
        k.register_handler(receiver, 0x4000).unwrap();
        let uv = xui::core::vectors::UserVector::new(9).unwrap();
        let idx = k.register_sender(sender, receiver, uv).unwrap();
        k.schedule(receiver, xui::core::model::CoreId(1)).unwrap();

        let policy = RetryPolicy::paper();
        let out = k.senduipi_with_retry(sender, idx, &policy, &mut |attempt| attempt == 0);
        assert!(matches!(out, Ok(o) if o.attempts == 2 && o.backoff_cycles == policy.base));

        let out = k.senduipi_with_retry(sender, idx, &policy, &mut |_| true);
        assert!(matches!(out, Err(KernelError::SendRetriesExhausted { attempts: 5, .. })));

        k.teardown_thread(receiver).unwrap();
        assert!(matches!(k.senduipi(sender, idx), Err(KernelError::ThreadTornDown { .. })));
    });
}
