//! Completion-delivery mechanisms compared in Figure 9: busy spinning,
//! periodic polling via the OS interval timer, and xUI device interrupts.

use serde::{Deserialize, Serialize};

use xui_core::CostModel;
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
