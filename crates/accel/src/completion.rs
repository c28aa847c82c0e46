//! Completion-delivery mechanisms compared in Figure 9: busy spinning,
//! periodic polling via the OS interval timer, and xUI device interrupts.

use serde::{Deserialize, Serialize};
use xui_telemetry::{Event, NullRecorder, Recorder};

use xui_core::CostModel;
use xui_faults::FaultInjector;
use xui_kernel::os_timers::SETITIMER_MIN_PERIOD;
use xui_kernel::OsCosts;

/// How the submitting thread learns an offload completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompletionMode {
    /// Busy-spin on the completion record (the SPDK-style baseline).
    BusySpin,
    /// Periodic polling driven by `setitimer` at the given period in
    /// cycles (clamped to the interface floor).
    PeriodicPoll {
        /// Polling period in cycles.
        period: u64,
    },
    /// xUI: a forwarded device interrupt delivered with tracking.
    XuiInterrupt,
}

/// The outcome of waiting for one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitOutcome {
    /// Cycle the thread observes the completion and resumes useful work.
    pub detected_at: u64,
    /// Notification latency: detection minus actual completion.
    pub detection_delay: u64,
    /// Cycles of CPU consumed while waiting (spinning, tick handlers, or
    /// interrupt delivery).
    pub cpu_spent: u64,
    /// Cycles of CPU left free for other work during the wait.
    pub cpu_free: u64,
}

/// Per-mode wait model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionWaiter {
    /// The mode.
    pub mode: CompletionMode,
    hw: CostModel,
    os: OsCosts,
    /// Spin-loop iteration cost (completion-record load + branch).
    pub spin_gap: u64,
}

impl CompletionWaiter {
    /// Creates a waiter with paper costs.
    #[must_use]
    pub fn new(mode: CompletionMode) -> Self {
        Self {
            mode,
            hw: CostModel::paper(),
            os: OsCosts::paper(),
            spin_gap: 20,
        }
    }

    /// Waits from `wait_start` (the submit return) until the completion
    /// written at `completed_at` is observed.
    #[must_use]
    pub fn wait(&self, wait_start: u64, completed_at: u64) -> WaitOutcome {
        self.wait_traced(wait_start, completed_at, 0, &mut NullRecorder)
    }

    /// [`CompletionWaiter::wait`] with telemetry: records an
    /// `offload_wait` span on `actor` from the submit return to the
    /// moment the completion is observed (argument `delay` = detection
    /// delay in cycles), plus a `completed` instant at the device's
    /// completion-record write. With [`NullRecorder`] this is exactly
    /// the untraced computation.
    #[must_use]
    pub fn wait_traced<R: Recorder>(
        &self,
        wait_start: u64,
        completed_at: u64,
        actor: u32,
        rec: &mut R,
    ) -> WaitOutcome {
        let outcome = self.wait_inner(wait_start, completed_at);
        if rec.enabled() {
            rec.record(Event::begin(wait_start, actor, "offload_wait"));
            rec.record(Event::instant(completed_at, actor, "completed"));
            rec.record(
                Event::end(outcome.detected_at, actor, "offload_wait")
                    .with_arg("delay", outcome.detection_delay)
                    .with_arg("cpu_free", outcome.cpu_free),
            );
        }
        outcome
    }

    fn wait_inner(&self, wait_start: u64, completed_at: u64) -> WaitOutcome {
        let span = completed_at.saturating_sub(wait_start);
        match self.mode {
            CompletionMode::BusySpin => {
                // The next spin iteration after the record lands sees it.
                let detected_at = completed_at + self.spin_gap;
                WaitOutcome {
                    detected_at,
                    detection_delay: self.spin_gap,
                    cpu_spent: detected_at - wait_start,
                    cpu_free: 0,
                }
            }
            CompletionMode::PeriodicPoll { period } => {
                let period = period.max(SETITIMER_MIN_PERIOD);
                // The interval timer is armed at submission, so ticks
                // land at wait_start + k·period; the first tick at or
                // after the completion observes it. With zero noise the
                // first tick coincides with the completion; any response
                // past its tick waits a whole extra period — the §6.2.3
                // "increases sharply as unpredictability rises" effect.
                let k = completed_at.saturating_sub(wait_start).div_ceil(period).max(1);
                let next_tick = wait_start + k * period;
                let handler = self.os.setitimer_tick;
                let detected_at = next_tick + handler / 2;
                let ticks_during_wait = detected_at.saturating_sub(wait_start) / period + 1;
                let spent = (ticks_during_wait * handler).min(detected_at - wait_start);
                WaitOutcome {
                    detected_at,
                    detection_delay: detected_at - completed_at,
                    cpu_spent: spent,
                    cpu_free: (detected_at - wait_start) - spent,
                }
            }
            CompletionMode::XuiInterrupt => {
                let wake = self.hw.tracked_direct_receiver;
                let detected_at = completed_at + wake;
                WaitOutcome {
                    detected_at,
                    detection_delay: wake,
                    cpu_spent: wake,
                    cpu_free: span,
                }
            }
        }
    }

    /// Observes a batch of completions in notification order: the wait
    /// for completion *k*+1 starts the moment completion *k* was
    /// detected, so a late record at the head of the batch delays
    /// everything behind it (head-of-line blocking on the completion
    /// stream). Records whose completion time has already passed when
    /// their wait starts are detected with the mode's minimum delay.
    ///
    /// With `faults`, the injector's `ReorderCompletions` op first
    /// permutes the notification order within its windows (the
    /// accelerator raised its completion interrupts out of submission
    /// order), so an early descriptor can be stuck behind a slow one.
    /// An empty plan changes nothing.
    #[must_use]
    pub fn observe_batch(
        &self,
        wait_start: u64,
        completed_at: &[u64],
        faults: Option<&mut FaultInjector>,
    ) -> Vec<WaitOutcome> {
        let mut order = completed_at.to_vec();
        if let Some(inj) = faults {
            inj.permute_completions(&mut order);
        }
        let mut start = wait_start;
        order
            .into_iter()
            .map(|c| {
                let o = self.wait(start, c.max(start));
                start = o.detected_at;
                o
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_spin_is_fast_but_burns_everything() {
        let w = CompletionWaiter::new(CompletionMode::BusySpin);
        let o = w.wait(1_000, 5_000);
        assert_eq!(o.detection_delay, 20);
        assert_eq!(o.cpu_free, 0);
        assert_eq!(o.cpu_spent, 4_020);
    }

    #[test]
    fn xui_is_nearly_as_fast_and_nearly_free() {
        let w = CompletionWaiter::new(CompletionMode::XuiInterrupt);
        let o = w.wait(1_000, 5_000);
        assert_eq!(o.detection_delay, 105);
        assert_eq!(o.cpu_spent, 105);
        assert_eq!(o.cpu_free, 4_000);
        // Paper: within 0.2 µs (400 cycles) of spinning.
        let spin = CompletionWaiter::new(CompletionMode::BusySpin).wait(1_000, 5_000);
        assert!(o.detection_delay - spin.detection_delay < 400);
    }

    #[test]
    fn periodic_poll_waits_for_the_next_tick() {
        let w = CompletionWaiter::new(CompletionMode::PeriodicPoll { period: 40_000 });
        // Completion just after the first tick: nearly a full extra
        // period of delay.
        let o = w.wait(0, 40_100);
        assert!(o.detection_delay > 35_000, "delay={}", o.detection_delay);
        // Completion just before the tick: short delay.
        let o = w.wait(0, 39_900);
        assert!(o.detection_delay < 5_000, "delay={}", o.detection_delay);
        // On-time completion: detected at its tick (handler latency only).
        let o = w.wait(0, 40_000);
        assert!(o.detection_delay < 5_000, "delay={}", o.detection_delay);
    }

    #[test]
    fn periodic_poll_period_is_clamped() {
        let w = CompletionWaiter::new(CompletionMode::PeriodicPoll { period: 1 });
        let o = w.wait(0, 100);
        // Clamped to the 2 µs floor: detection waits for tick 1 at 4000.
        assert!(o.detected_at >= SETITIMER_MIN_PERIOD);
    }

    #[test]
    fn traced_wait_matches_untraced_and_spans_balance() {
        let w = CompletionWaiter::new(CompletionMode::XuiInterrupt);
        let mut rec = xui_telemetry::RingRecorder::new(16);
        let traced = w.wait_traced(1_000, 5_000, 7, &mut rec);
        assert_eq!(traced, w.wait(1_000, 5_000));
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], xui_telemetry::Event::begin(1_000, 7, "offload_wait"));
        assert_eq!(events[1].name, "completed");
        assert_eq!(events[2].arg("delay"), Some(traced.detection_delay));
        assert_eq!(events[2].arg("cpu_free"), Some(traced.cpu_free));
        let doc = xui_telemetry::chrome::trace_json(&events);
        xui_telemetry::chrome::validate(&doc).expect("balanced wait trace");
    }

    #[test]
    fn observe_batch_detections_are_monotonic_and_hol_block() {
        let w = CompletionWaiter::new(CompletionMode::XuiInterrupt);
        let outs = w.observe_batch(0, &[10_000, 2_000, 30_000], None);
        assert_eq!(outs.len(), 3);
        // The 2_000 record completed long before its wait started: it is
        // stuck behind the 10_000 one (head-of-line blocking).
        assert!(outs[0].detected_at <= outs[1].detected_at);
        assert!(outs[1].detected_at <= outs[2].detected_at);
        assert_eq!(outs[0].detected_at, 10_000 + 105);
        assert_eq!(outs[1].detected_at, outs[0].detected_at + 105);
    }

    #[test]
    fn faulted_batch_with_empty_plan_is_identical() {
        use xui_faults::{FaultInjector, FaultPlan};
        let w = CompletionWaiter::new(CompletionMode::XuiInterrupt);
        let completions = [5_000, 9_000, 1_000, 14_000];
        let clean = w.observe_batch(0, &completions, None);
        let mut inj = FaultInjector::new(&FaultPlan::named("empty"));
        let faulted = w.observe_batch(0, &completions, Some(&mut inj));
        assert_eq!(clean, faulted);
    }

    #[test]
    fn reordered_completions_are_deterministic_and_conserve_records() {
        use xui_faults::{FaultInjector, FaultPlan};
        let w = CompletionWaiter::new(CompletionMode::XuiInterrupt);
        let completions: Vec<u64> = (0..16).map(|i| 1_000 * (i + 1)).collect();
        let plan = FaultPlan::named("reorder").seed(11).reorder_completions(4);
        let mut a_inj = FaultInjector::new(&plan);
        let a = w.observe_batch(0, &completions, Some(&mut a_inj));
        let mut b_inj = FaultInjector::new(&plan);
        let b = w.observe_batch(0, &completions, Some(&mut b_inj));
        assert_eq!(a, b, "same plan, same permutation");
        assert_eq!(a.len(), completions.len(), "no record lost or invented");
        // Detection stays monotonic even when notification order is not.
        assert!(a.windows(2).all(|p| p[0].detected_at <= p[1].detected_at));
        // The permutation actually bites for this seed/window.
        let clean = w.observe_batch(0, &completions, None);
        assert_ne!(a, clean, "reorder changed per-record outcomes");
    }

    #[test]
    fn mode_ordering_for_free_cycles() {
        // Completion mid-period so the poll must wait for its next tick.
        let frac = |o: &WaitOutcome, start: u64| {
            o.cpu_free as f64 / (o.detected_at - start) as f64
        };
        let spin = CompletionWaiter::new(CompletionMode::BusySpin).wait(0, 41_000);
        let poll = CompletionWaiter::new(CompletionMode::PeriodicPoll { period: 40_000 })
            .wait(0, 41_000);
        let xui = CompletionWaiter::new(CompletionMode::XuiInterrupt).wait(0, 41_000);
        assert!(frac(&spin, 0) < frac(&poll, 0));
        assert!(frac(&poll, 0) < frac(&xui, 0));
        assert!(xui.detection_delay < poll.detection_delay);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    fn any_mode() -> impl Strategy<Value = CompletionMode> {
        prop_oneof![
            Just(CompletionMode::BusySpin),
            (1_000u64..100_000).prop_map(|period| CompletionMode::PeriodicPoll { period }),
            Just(CompletionMode::XuiInterrupt),
        ]
    }

    proptest! {
        /// Universal wait invariants: detection never precedes the
        /// completion; CPU accounting covers the wait exactly for
        /// spin/xUI and never exceeds it for polling; nothing is free
        /// while spinning.
        #[test]
        fn wait_outcome_invariants(
            mode in any_mode(),
            start in 0u64..1_000_000,
            span in 1u64..200_000,
        ) {
            let completed = start + span;
            let o = CompletionWaiter::new(mode).wait(start, completed);
            prop_assert!(o.detected_at >= completed);
            prop_assert_eq!(o.detection_delay, o.detected_at - completed);
            let window = o.detected_at - start;
            prop_assert!(o.cpu_spent + o.cpu_free <= window + 1);
            match mode {
                CompletionMode::BusySpin => {
                    prop_assert_eq!(o.cpu_free, 0);
                    prop_assert_eq!(o.cpu_spent, window);
                }
                CompletionMode::XuiInterrupt => {
                    prop_assert_eq!(o.cpu_spent, o.detection_delay);
                }
                CompletionMode::PeriodicPoll { .. } => {
                    prop_assert!(o.cpu_spent >= 1, "at least one tick handled");
                }
            }
        }

        /// Periodic polling never waits more than one (clamped) period
        /// plus the handler, and xUI's delay is constant.
        #[test]
        fn delay_bounds(start in 0u64..100_000, span in 1u64..200_000, period in 1u64..100_000) {
            let completed = start + span;
            let poll = CompletionWaiter::new(CompletionMode::PeriodicPoll { period })
                .wait(start, completed);
            let eff = period.max(xui_kernel::os_timers::SETITIMER_MIN_PERIOD);
            prop_assert!(poll.detection_delay <= eff + 4_800);
            let xui = CompletionWaiter::new(CompletionMode::XuiInterrupt).wait(start, completed);
            prop_assert_eq!(xui.detection_delay, 105);
        }
    }
}
