//! The `FaultPlan` DSL: a named, serializable schedule of faults to
//! inject into a run.
//!
//! A plan is pure data — *what* to break and *when*, in virtual time —
//! and carries its own seed, so a failure schedule is replayable from
//! `(seed, plan)` alone: the same plan driven by the same simulation
//! clock produces bit-identical injections on every run, host and
//! `XUI_BENCH_THREADS` setting. The interpreter lives in
//! [`crate::inject::FaultInjector`].

use serde::{Deserialize, Serialize};

/// One fault to inject. Post-counting faults (`DropPost`, `DelayPost`,
/// `DuplicatePost`) select posts by their 1-based occurrence number:
/// a post matches when `count >= first && (count - first) % every == 0`.
/// Window faults select by virtual-time interval `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Drop matching interrupt posts entirely (the notification is lost
    /// in the fabric; the sender sees a transient failure and may retry).
    DropPost {
        /// Match every `every`-th post…
        every: u64,
        /// …starting from the `first`-th (1-based).
        first: u64,
    },
    /// Delay matching posts by `by` virtual ticks before they land.
    DelayPost {
        /// Match every `every`-th post…
        every: u64,
        /// …starting from the `first`-th (1-based).
        first: u64,
        /// Delay in virtual ticks.
        by: u64,
    },
    /// Deliver matching posts twice (a retransmit race): the duplicate
    /// must coalesce, never amplify, at the descriptor level.
    DuplicatePost {
        /// Match every `every`-th post…
        every: u64,
        /// …starting from the `first`-th (1-based).
        first: u64,
    },
    /// Permute the order of posts inside consecutive windows of `window`
    /// posts, using the plan seed (window index salts the permutation).
    ReorderPosts {
        /// Window length in posts (windows of 0 or 1 are no-ops).
        window: usize,
    },
    /// Force the `SN` (suppress notification) bit to `value` while the
    /// virtual clock is in `[from, until)`.
    FlipSn {
        /// Start of the window (inclusive).
        from: u64,
        /// End of the window (exclusive).
        until: u64,
        /// Forced SN value.
        value: bool,
    },
    /// Stall the timer source: fires scheduled inside `[from, until)`
    /// slip to `until` (the timer core misses its deadline).
    StallTimer {
        /// Start of the stall (inclusive).
        from: u64,
        /// End of the stall (exclusive) — slipped fires land here.
        until: u64,
    },
    /// Clamp NIC receive ring `queue` to `capacity` descriptors while
    /// the clock is in `[from, until)`, forcing overflow drops.
    ClampRing {
        /// Receive-queue index (`usize::MAX` matches every queue).
        queue: usize,
        /// Start of the clamp (inclusive).
        from: u64,
        /// End of the clamp (exclusive).
        until: u64,
        /// Clamped descriptor count.
        capacity: usize,
    },
    /// Co-located bulk tenants burst on the victim's core while the
    /// clock is in `[from, until)`, inflating delivery-path costs by
    /// `pct` percent. Overlapping bursts stack additively.
    InterferenceBurst {
        /// Start of the burst (inclusive).
        from: u64,
        /// End of the burst (exclusive).
        until: u64,
        /// Delivery-path cost inflation in percent.
        pct: u64,
    },
}

/// A named, replayable fault schedule.
///
/// # Examples
///
/// ```
/// use xui_faults::plan::FaultPlan;
///
/// let plan = FaultPlan::named("drop-every-3rd")
///     .seed(7)
///     .drop_every(3, 1)
///     .flip_sn(1_000, 2_000, true)
///     .degrade_after(4);
/// assert_eq!(plan.ops.len(), 2);
/// assert_eq!(plan.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Human-readable plan name (appears in reports).
    pub name: String,
    /// Seed for the plan's own randomness (permutations). Everything
    /// else in the plan is a deterministic counter or time window.
    pub seed: u64,
    /// The faults, checked in order; the first matching post fault wins.
    pub ops: Vec<FaultOp>,
    /// Consecutive-fault threshold after which a component should stop
    /// retrying and fall back to a degraded-but-live mode (polling).
    /// `u32::MAX` (the default) never degrades.
    pub degrade_threshold: u32,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given name.
    #[must_use]
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            seed: 0,
            ops: Vec::new(),
            degrade_threshold: u32::MAX,
        }
    }

    /// Sets the plan seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the degrade threshold (consecutive faults before fallback).
    #[must_use]
    pub fn degrade_after(mut self, threshold: u32) -> Self {
        self.degrade_threshold = threshold;
        self
    }

    /// Adds an arbitrary op.
    #[must_use]
    pub fn op(mut self, op: FaultOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Drops every `every`-th post starting at the `first`-th.
    #[must_use]
    pub fn drop_every(self, every: u64, first: u64) -> Self {
        self.op(FaultOp::DropPost { every, first })
    }

    /// Delays every `every`-th post (from the `first`-th) by `by` ticks.
    #[must_use]
    pub fn delay_every(self, every: u64, first: u64, by: u64) -> Self {
        self.op(FaultOp::DelayPost { every, first, by })
    }

    /// Duplicates every `every`-th post starting at the `first`-th.
    #[must_use]
    pub fn duplicate_every(self, every: u64, first: u64) -> Self {
        self.op(FaultOp::DuplicatePost { every, first })
    }

    /// Permutes posts within windows of `window`.
    #[must_use]
    pub fn reorder_posts(self, window: usize) -> Self {
        self.op(FaultOp::ReorderPosts { window })
    }

    /// Forces SN to `value` during `[from, until)`.
    #[must_use]
    pub fn flip_sn(self, from: u64, until: u64, value: bool) -> Self {
        self.op(FaultOp::FlipSn { from, until, value })
    }

    /// Stalls timer fires scheduled in `[from, until)` to `until`.
    #[must_use]
    pub fn stall_timer(self, from: u64, until: u64) -> Self {
        self.op(FaultOp::StallTimer { from, until })
    }

    /// Clamps ring `queue` to `capacity` during `[from, until)`.
    #[must_use]
    pub fn clamp_ring(self, queue: usize, from: u64, until: u64, capacity: usize) -> Self {
        self.op(FaultOp::ClampRing { queue, from, until, capacity })
    }

    /// Adds an interference burst: delivery-path costs inflate by `pct`
    /// percent during `[from, until)`.
    #[must_use]
    pub fn interference_burst(self, from: u64, until: u64, pct: u64) -> Self {
        self.op(FaultOp::InterferenceBurst { from, until, pct })
    }

    /// True if the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Whether a 1-based post count matches an `(every, first)` selector.
#[must_use]
pub(crate) fn selects(count: u64, every: u64, first: u64) -> bool {
    if every == 0 || count < first.max(1) {
        return false;
    }
    (count - first.max(1)).is_multiple_of(every)
}

/// Whether `now` lies in the half-open window `[from, until)`.
#[must_use]
pub(crate) fn in_window(now: u64, from: u64, until: u64) -> bool {
    now >= from && now < until
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_ops_in_order() {
        let plan = FaultPlan::named("p")
            .drop_every(3, 1)
            .delay_every(2, 4, 500)
            .flip_sn(10, 20, true)
            .stall_timer(30, 40);
        assert_eq!(plan.ops.len(), 4);
        assert!(matches!(plan.ops[0], FaultOp::DropPost { every: 3, first: 1 }));
        assert!(matches!(plan.ops[3], FaultOp::StallTimer { from: 30, until: 40 }));
        assert!(!plan.is_empty());
        assert!(FaultPlan::named("empty").is_empty());
    }

    #[test]
    fn selector_matches_arithmetic_progression() {
        // every=3, first=2 → posts 2, 5, 8, 11, ...
        for count in 1..=12u64 {
            let expect = count >= 2 && (count - 2) % 3 == 0;
            assert_eq!(selects(count, 3, 2), expect, "count={count}");
        }
        // every=0 never matches; first=0 is treated as first=1.
        assert!(!selects(5, 0, 1));
        assert!(selects(1, 1, 0));
    }

    #[test]
    fn window_is_half_open() {
        assert!(!in_window(9, 10, 20));
        assert!(in_window(10, 10, 20));
        assert!(in_window(19, 10, 20));
        assert!(!in_window(20, 10, 20));
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan::named("rt").seed(42).drop_every(2, 1).clamp_ring(1, 5, 9, 8);
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"rt\""));
        assert!(json.contains("DropPost") || json.contains("drop"), "{json}");
    }
}
