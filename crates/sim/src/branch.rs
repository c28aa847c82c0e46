//! A gshare-style branch direction predictor.
//!
//! Targets are static in this ISA, so only direction needs predicting.
//! Mispredictions cost a squash (bounded by squash width) plus a front-end
//! refill — the same machinery an interrupt flush uses, which is why the
//! paper notes both costs grow with future speculation windows (§2).

use serde::{Deserialize, Serialize};

use crate::isa::Pc;

const TABLE_BITS: usize = 12;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

/// Two-bit-counter gshare predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    history: u64,
    /// Predictions made.
    pub predictions: u64,
    /// Mispredictions detected at resolve.
    pub mispredictions: u64,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken counters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counters: vec![1; TABLE_SIZE],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    fn index(pc: Pc) -> usize {
        // Bimodal (per-PC) indexing. A global-history scheme would need
        // checkpoint/repair on every squash to avoid pathological
        // history corruption under deep speculation; per-PC counters
        // capture everything the paper's workloads need (well-predicted
        // loops, mispredicted poll-flag branches and loop exits).
        pc & (TABLE_SIZE - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&mut self, pc: Pc) -> bool {
        self.predictions += 1;
        self.counters[Self::index(pc)] >= 2
    }

    /// Resolves a branch: trains the counter and counts mispredictions.
    pub fn resolve(&mut self, pc: Pc, taken: bool, predicted: bool) {
        let c = &mut self.counters[Self::index(pc)];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if taken != predicted {
            self.mispredictions += 1;
        }
    }

    /// Misprediction rate so far (0.0 if no predictions).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_loop() {
        let mut bp = BranchPredictor::new();
        let mut wrong = 0;
        for _ in 0..100 {
            let p = bp.predict(0x40);
            if !p {
                wrong += 1;
            }
            bp.resolve(0x40, true, p);
        }
        assert!(wrong <= 8, "warmup only: {wrong} wrong");
        assert_eq!(bp.mispredictions, wrong);
    }

    #[test]
    fn loop_exit_mispredicts_once() {
        let mut bp = BranchPredictor::new();
        // Train taken, then a single not-taken exit.
        for _ in 0..50 {
            let p = bp.predict(0x80);
            bp.resolve(0x80, true, p);
        }
        let before = bp.mispredictions;
        let p = bp.predict(0x80);
        bp.resolve(0x80, false, p);
        assert!(p, "a trained loop branch predicts taken");
        assert_eq!(bp.mispredictions, before + 1);
    }

    #[test]
    fn miss_rate_reflects_counts() {
        let mut bp = BranchPredictor::new();
        assert_eq!(bp.miss_rate(), 0.0);
        for i in 0..10 {
            let p = bp.predict(i);
            bp.resolve(i, false, p);
        }
        assert!(bp.miss_rate() <= 1.0);
        assert_eq!(bp.predictions, 10);
    }
}
