//! The oracle group of `sim_strategies`: seeded schedules through the
//! differential oracle. The full-alphabet arm replays each schedule
//! through the reference oracle, the protocol and kernel models and the
//! ABI byte differ; the sim arm replays sends-only schedules through the
//! cycle-level simulator too. The arms take comparable host time (a sim replay
//! costs some 4000 full-alphabet checks), and each is sized by work,
//! not count, so every seed carries the same load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_oracle::{check, Oracle, Schedule};

use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{ratio, Ctx, Metrics, View, Workload};

/// Full-alphabet schedules are added until their events reach this.
const FULL_EVENTS: usize = 1_000_000;
/// Sim-class schedules per pass, each replaying a receiver that spins
/// for [`SIM_SPIN`] cycles (last send + send latency + slack, as the sim
/// replay sizes it), so every seed carries the same simulated work.
const SIM_SCHEDULES: usize = 7;
const SIM_SPIN: std::ops::RangeInclusive<u64> = 63_000..=69_000;
/// The sim replay's send latency and post-send slack, in cycles.
const SIM_REPLAY_TAIL: u64 = 140 + 50_000;

pub struct OracleFuzz {
    full: Vec<Schedule>,
    sim: Vec<Schedule>,
    /// Untraced host seconds per arm, and schedules checked.
    full_s: f64,
    full_n: u64,
    sim_s: f64,
    sim_n: u64,
    /// Per-pass counts (identical every pass).
    events: u64,
    sim_compatible: u64,
    divergences: u64,
}

fn spin_cycles(s: &Schedule) -> u64 {
    s.timed_sends().iter().map(|&(at, _)| at).max().unwrap_or(0) + SIM_REPLAY_TAIL
}

impl Workload for OracleFuzz {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1_E5EE);
        // Full-alphabet schedules the sim does not replay; a generated
        // schedule that happens to be sim-compatible is skipped, since
        // its check would run the sim arm's work.
        let full = tr.span("oracle.generate", 0, |_| {
            let mut v = Vec::new();
            let mut events = 0;
            while events < FULL_EVENTS {
                let s = Schedule::generate(rng.gen());
                if !s.is_sim_compatible() {
                    events += s.events.len();
                    v.push(s);
                }
            }
            v
        });
        let sim = tr.span("oracle.generate", 1, |_| {
            let mut v = Vec::new();
            while v.len() < SIM_SCHEDULES {
                let s = Schedule::generate_sim(rng.gen());
                if SIM_SPIN.contains(&spin_cycles(&s)) {
                    v.push(s);
                }
            }
            v
        });
        if let Some(s) = sim.iter().find(|s| !s.is_sim_compatible()) {
            return Err(format!(
                "sim-class schedule {} is not sim-compatible",
                s.seed
            ));
        }
        let events = full.iter().chain(&sim).map(|s| s.events.len() as u64).sum();
        let sim_compatible = sim.len() as u64;
        Ok(Self {
            full,
            sim,
            full_s: 0.0,
            full_n: 0,
            sim_s: 0.0,
            sim_n: 0,
            events,
            sim_compatible,
            divergences: 0,
        })
    }

    fn pass(&mut self, cx: &mut Ctx) -> Fnv {
        let mut digest = Fnv::default();
        let mut divergences = 0;
        let arms = [
            ("oracle.check_full", &self.full),
            ("oracle.check_sim", &self.sim),
        ];
        let mut arm_s = [0.0; 2];
        for (arm, (span, schedules)) in arms.into_iter().enumerate() {
            for (i, s) in schedules.iter().enumerate() {
                let (divergence, secs) = cx.call(span, i as u64, |_| check(s));
                arm_s[arm] += secs;
                for v in [
                    s.seed,
                    s.events.len() as u64,
                    u64::from(divergence.is_some()),
                ] {
                    digest.u64(v);
                }
                if let Some(d) = divergence {
                    divergences += 1;
                    cx.fail(format!(
                        "schedule {} diverges in {}: {}",
                        s.seed, d.model, d.detail
                    ));
                }
            }
        }
        if cx.traced {
            // The reference oracle alone, over the same schedules; its
            // time is part of every check above.
            let t = std::time::Instant::now();
            for (i, s) in self.full.iter().chain(&self.sim).enumerate() {
                cx.tr.span("oracle.spec", i as u64, |_| {
                    std::hint::black_box(Oracle::run(s))
                });
            }
            cx.probe_s += t.elapsed().as_secs_f64();
        } else {
            self.full_s += arm_s[0];
            self.full_n += self.full.len() as u64;
            self.sim_s += arm_s[1];
            self.sim_n += self.sim.len() as u64;
        }
        self.divergences = divergences;
        digest
    }

    fn report(&self, view: &View, out: &mut Metrics) {
        out.insert(
            "full_schedules_per_s",
            ratio(self.full_n as f64, self.full_s),
        );
        out.insert("sim_schedules_per_s", ratio(self.sim_n as f64, self.sim_s));
        out.insert(
            "oracle.generate_s",
            view.setup_span("oracle.generate").total_s / view.setup_reps as f64,
        );
        out.insert("oracle.spec_s", view.self_per_pass("oracle.spec"));
        out.insert(
            "oracle.check_full_s",
            view.self_per_pass("oracle.check_full"),
        );
        out.insert("oracle.check_sim_s", view.self_per_pass("oracle.check_sim"));
        out.insert("oracle.events", self.events as f64);
        out.insert("oracle.sim_compatible", self.sim_compatible as f64);
        out.insert("oracle.divergences", self.divergences as f64);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "oracle: {} full-alphabet + {} sim-class schedules per pass, {} events",
            self.full.len(),
            self.sim.len(),
            self.events
        )]
    }
}
