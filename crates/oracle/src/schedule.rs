//! Seeded schedule generation: randomized interleavings of sends,
//! context switches, migrations, timer programs, receiver masking and
//! forwarded device interrupts, reproducible from a single `u64` seed.
//!
//! Every event is *total* in both the oracle and the replay drivers: an
//! event that does not apply in the current state (scheduling a thread
//! that is already in context, arming a disabled timer, delivering
//! while out of context) is a no-op everywhere, by construction. That
//! makes any subsequence of a schedule a valid schedule, which is what
//! lets the shrinker delete events freely without a re-legalization
//! pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One forwarded device line (§4.5): a conventional vector mapped to a
/// user vector, registered for the receiver on every core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardLine {
    /// Conventional (APIC) vector the device raises.
    pub vector: u8,
    /// User vector it forwards to.
    pub uv: u8,
}

/// One schedule event. See [`crate::spec::Oracle::step`] for the
/// reference semantics of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// The sender executes `senduipi` toward the receiver.
    Send {
        /// User vector.
        uv: u8,
    },
    /// `senduipi` racing a context switch: SN is set between the PIR
    /// post and the notification-IPI issue (the §3.3 window).
    SendPreempted {
        /// User vector.
        uv: u8,
    },
    /// Kernel schedules the receiver onto `core` (1-based; core 0 is
    /// the sender's).
    Schedule {
        /// Destination core.
        core: u8,
    },
    /// Kernel switches the receiver out.
    Deschedule,
    /// The receiver drains every deliverable pending interrupt.
    Deliver,
    /// The receiver masks user interrupts (`clui`).
    Clui,
    /// The receiver unmasks user interrupts (`stui`).
    Stui,
    /// The receiver programs its KB_Timer (§4.3).
    SetTimer {
        /// Period (periodic) or absolute deadline (one-shot), cycles.
        cycles: u32,
        /// Periodic vs one-shot.
        periodic: bool,
    },
    /// Time advances by `dt` cycles (armed timers may fire).
    AdvanceTime {
        /// Cycles to advance.
        dt: u32,
    },
    /// A device interrupt arrives on forwarding line `line` at `core`
    /// (a line index past the registered set probes the legacy path).
    DeviceIrq {
        /// Index into [`Schedule::forwarded`].
        line: u8,
        /// Core where the interrupt arrives.
        core: u8,
    },
    /// A second sender thread sharing the primary sender's UITT sends
    /// `uv`. The kernel replay drives a real refcounted shared table
    /// (clone-on-register); the oracle and protocol replays observe it
    /// as an ordinary [`Event::Send`] — any difference in the
    /// receiver's descriptor bytes is a divergence.
    ShareUitt {
        /// User vector (drawn from the registered send lanes).
        uv: u8,
    },
    /// The shared co-sender is torn down. Kernel-observable only: the
    /// shared table and its routes must survive for the remaining
    /// members, so the oracle and protocol replays treat this as a
    /// no-op. Subsequent [`Event::ShareUitt`] sends fall back to the
    /// primary sender.
    TeardownShared,
    /// The kernel registers throwaway routes until its UITT reports
    /// table-full (`ENOSPC`), then unregisters them all. The allocator
    /// must round-trip (freed slots reusable) and nothing may leak into
    /// the receiver's descriptor; failing to hit `ENOSPC` at all is a
    /// divergence. A no-op in the oracle and protocol replays.
    RegisterUntilEnospc,
}

/// A complete generated scenario: the static setup plus the event
/// interleaving. Serializable as JSON so a failing schedule is its own
/// reproducer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Seed this schedule was generated from (0 for hand-written).
    pub seed: u64,
    /// Core count; core 0 is pinned to the sender.
    pub cores: u8,
    /// User vectors with a registered sender→receiver UITT route.
    pub send_vectors: Vec<u8>,
    /// KB_Timer vector, if the feature is enabled for the receiver.
    pub timer_vector: Option<u8>,
    /// Forwarded device lines, registered on every core.
    pub forwarded: Vec<ForwardLine>,
    /// The event interleaving.
    pub events: Vec<Event>,
}

impl Schedule {
    /// Generates the full-alphabet schedule for `seed`: sends, racing
    /// sends, context switches and migrations, masking, timer programs
    /// and forwarded device interrupts. Replayable through the oracle,
    /// the protocol model and the kernel model.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cores = rng.gen_range(2u8..=4);
        let lanes = rng.gen_range(1usize..=6);
        let mut send_vectors: Vec<u8> = Vec::with_capacity(lanes);
        while send_vectors.len() < lanes {
            let uv = rng.gen_range(0u8..64);
            if !send_vectors.contains(&uv) {
                send_vectors.push(uv);
            }
        }
        let timer_vector = rng.gen_bool(0.5).then(|| rng.gen_range(0u8..64));
        let fwd_lines = rng.gen_range(0usize..=3);
        let forwarded = (0..fwd_lines)
            .map(|i| ForwardLine {
                vector: 32 + i as u8,
                uv: rng.gen_range(0u8..64),
            })
            .collect::<Vec<_>>();

        let count = rng.gen_range(8usize..=60);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let pick = rng.gen_range(0u32..32);
            events.push(match pick {
                0..=5 => Event::Send {
                    uv: send_vectors[rng.gen_range(0usize..send_vectors.len())],
                },
                6..=7 => Event::SendPreempted {
                    uv: send_vectors[rng.gen_range(0usize..send_vectors.len())],
                },
                8..=10 => Event::Schedule { core: rng.gen_range(1u8..cores) },
                11..=12 => Event::Deschedule,
                13..=17 => Event::Deliver,
                18 => Event::Clui,
                19..=20 => Event::Stui,
                21..=22 => Event::SetTimer {
                    cycles: rng.gen_range(100u32..5_000),
                    periodic: rng.gen_bool(0.5),
                },
                23..=25 => Event::AdvanceTime { dt: rng.gen_range(100u32..5_000) },
                26..=27 => Event::DeviceIrq {
                    line: rng.gen_range(0u8..=forwarded.len() as u8),
                    core: rng.gen_range(0u8..cores),
                },
                28..=29 => Event::ShareUitt {
                    uv: send_vectors[rng.gen_range(0usize..send_vectors.len())],
                },
                30 => Event::TeardownShared,
                _ => Event::RegisterUntilEnospc,
            });
        }
        Self {
            seed,
            cores,
            send_vectors,
            timer_vector,
            forwarded,
            events,
        }
    }

    /// Generates a sends-only schedule suitable for the cycle-level
    /// simulator as well: batches of sends separated by at least
    /// [`Schedule::SIM_MIN_GAP`] cycles, so the sim's real delivery
    /// latency cannot smear one batch into the next (see
    /// `docs/ORACLE.md` on this intentional fidelity gap). The receiver
    /// is scheduled up front and never switched.
    #[must_use]
    pub fn generate_sim(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = rng.gen_range(1usize..=6);
        let mut send_vectors: Vec<u8> = Vec::with_capacity(lanes);
        while send_vectors.len() < lanes {
            let uv = rng.gen_range(0u8..64);
            if !send_vectors.contains(&uv) {
                send_vectors.push(uv);
            }
        }
        let batches = rng.gen_range(1usize..=6);
        let mut events = vec![Event::Schedule { core: 1 }];
        for _ in 0..batches {
            events.push(Event::AdvanceTime {
                dt: rng.gen_range(Self::SIM_MIN_GAP..3 * Self::SIM_MIN_GAP),
            });
            for _ in 0..rng.gen_range(1usize..=3) {
                events.push(Event::Send {
                    uv: send_vectors[rng.gen_range(0usize..send_vectors.len())],
                });
            }
            events.push(Event::Deliver);
        }
        Self {
            seed,
            cores: 2,
            send_vectors,
            timer_vector: None,
            forwarded: Vec::new(),
            events,
        }
    }

    /// The sends-only schedule for a list of timed sends `(at, uv)`:
    /// the receiver is scheduled on core 1 up front, and each batch of
    /// sends sharing a timestamp becomes `AdvanceTime`, its `Send`s in
    /// list order, and one `Deliver`. Sends are stably sorted by time
    /// first and vectors are clamped into 0..64. The result passes
    /// [`Schedule::is_sim_compatible`] only if its batches are at least
    /// [`Schedule::SIM_MIN_GAP`] cycles apart.
    #[must_use]
    pub fn from_timed_sends(sends: &[(u64, u8)]) -> Self {
        let mut sends = sends.to_vec();
        sends.sort_by_key(|&(at, _)| at);
        let mut send_vectors: Vec<u8> = Vec::new();
        let mut events = vec![Event::Schedule { core: 1 }];
        let mut now = 0u64;
        for (i, &(at, uv)) in sends.iter().enumerate() {
            let uv = uv & 63;
            if !send_vectors.contains(&uv) {
                send_vectors.push(uv);
            }
            if i == 0 || at != now {
                // A gap wider than one `AdvanceTime` takes several.
                let mut dt = at - now;
                while dt > u64::from(u32::MAX) {
                    events.push(Event::AdvanceTime { dt: u32::MAX });
                    dt -= u64::from(u32::MAX);
                }
                events.push(Event::AdvanceTime { dt: dt as u32 });
                now = at;
            }
            events.push(Event::Send { uv });
            if sends.get(i + 1).is_none_or(|&(next, _)| next != at) {
                events.push(Event::Deliver);
            }
        }
        Self {
            seed: 0,
            cores: 2,
            send_vectors,
            timer_vector: None,
            forwarded: Vec::new(),
            events,
        }
    }

    /// Minimum cycle gap between send batches in sim-class schedules:
    /// comfortably larger than the sim's send latency plus its
    /// notification-processing and handler time.
    pub const SIM_MIN_GAP: u32 = 2_000;

    /// True if the schedule satisfies every precondition of the
    /// cycle-level replay harness, which models a receiver that is *in
    /// context and draining eagerly from cycle 0*:
    ///
    /// - events drawn only from the sends-only alphabet (no timers, no
    ///   forwarding, no masking, no deschedule);
    /// - a `Schedule` occurs before the first `Send` (the oracle's
    ///   receiver must be in context, like the sim's);
    /// - send batches (sends sharing a virtual timestamp) are at least
    ///   [`Schedule::SIM_MIN_GAP`] cycles apart, so the sim's real
    ///   delivery latency cannot smear one batch into the next;
    /// - a `Deliver` drains each batch before the next batch starts
    ///   (the sim drains eagerly; the oracle only on `Deliver`), and no
    ///   `Deliver` splits a same-timestamp batch (the sim coalesces
    ///   same-cycle duplicates in PIR; a mid-batch drain would stop the
    ///   oracle from coalescing them).
    ///
    /// These are exactly the documented fidelity gaps of comparing an
    /// untimed oracle to a timed pipeline — see `docs/ORACLE.md`.
    #[must_use]
    pub fn is_sim_compatible(&self) -> bool {
        if self.timer_vector.is_some() || !self.forwarded.is_empty() {
            return false;
        }
        let alphabet_ok = self.events.iter().all(|e| {
            matches!(
                e,
                Event::Send { .. }
                    | Event::AdvanceTime { .. }
                    | Event::Deliver
                    | Event::Schedule { .. }
            )
        });
        if !alphabet_ok {
            return false;
        }
        let mut now = 0u64;
        let mut scheduled = false;
        let mut last_batch: Option<u64> = None;
        let mut drained = true;
        for ev in &self.events {
            match *ev {
                Event::AdvanceTime { dt } => now += u64::from(dt),
                Event::Schedule { .. } => scheduled = true,
                Event::Deliver => drained = true,
                Event::Send { .. } => {
                    if !scheduled {
                        return false;
                    }
                    match last_batch {
                        // A Deliver split a same-timestamp batch.
                        Some(t) if now == t && drained => return false,
                        Some(t) if now == t => {}
                        Some(t) if now < t + u64::from(Self::SIM_MIN_GAP) || !drained => {
                            return false;
                        }
                        _ => {}
                    }
                    last_batch = Some(now);
                    drained = false;
                }
                _ => return false,
            }
        }
        true
    }

    /// The absolute send times implied by the event stream (for the
    /// cycle-level replay): each `Send` stamped with the virtual time
    /// accumulated from `AdvanceTime` events before it.
    #[must_use]
    pub fn timed_sends(&self) -> Vec<(u64, u8)> {
        let mut now = 0u64;
        let mut out = Vec::new();
        for ev in &self.events {
            match *ev {
                Event::AdvanceTime { dt } => now += u64::from(dt),
                Event::Send { uv } | Event::SendPreempted { uv } => out.push((now, uv & 63)),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(Schedule::generate(7), Schedule::generate(7));
        assert_ne!(Schedule::generate(7), Schedule::generate(8));
        assert_eq!(Schedule::generate_sim(7), Schedule::generate_sim(7));
    }

    #[test]
    fn sim_schedules_are_sim_compatible_and_spaced() {
        for seed in 0..50u64 {
            let s = Schedule::generate_sim(seed);
            assert!(s.is_sim_compatible(), "seed {seed}");
            let sends = s.timed_sends();
            let mut times: Vec<u64> = sends.iter().map(|&(at, _)| at).collect();
            times.dedup();
            for w in times.windows(2) {
                assert!(
                    w[1] - w[0] >= u64::from(Schedule::SIM_MIN_GAP),
                    "seed {seed}: batches {w:?} too close"
                );
            }
            assert!(sends.first().map_or(0, |&(at, _)| at) >= u64::from(Schedule::SIM_MIN_GAP));
        }
    }

    #[test]
    fn full_schedules_stay_in_bounds() {
        for seed in 0..50u64 {
            let s = Schedule::generate(seed);
            assert!((2..=4).contains(&s.cores), "seed {seed}");
            assert!(!s.send_vectors.is_empty());
            for ev in &s.events {
                match *ev {
                    Event::Schedule { core } => assert!(core >= 1 && core < s.cores),
                    Event::Send { uv } | Event::SendPreempted { uv } | Event::ShareUitt { uv } => {
                        assert!(s.send_vectors.contains(&uv));
                    }
                    Event::DeviceIrq { line, core } => {
                        assert!(line as usize <= s.forwarded.len());
                        assert!(core < s.cores);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn extended_alphabet_events_are_generated() {
        let (mut share, mut teardown, mut enospc) = (false, false, false);
        for seed in 0..200u64 {
            for ev in &Schedule::generate(seed).events {
                match ev {
                    Event::ShareUitt { .. } => share = true,
                    Event::TeardownShared => teardown = true,
                    Event::RegisterUntilEnospc => enospc = true,
                    _ => {}
                }
            }
        }
        assert!(share && teardown && enospc, "share={share} teardown={teardown} enospc={enospc}");
    }

    #[test]
    fn sim_compatibility_enforces_harness_preconditions() {
        // Regression shape (fuzz seed 15920570541605372142, shrunk):
        // two same-vector sends with no Schedule and no Deliver between
        // them. The oracle's descheduled receiver coalesces both in PIR
        // (one delivery); the sim's always-running receiver delivers
        // each eagerly. Such schedules must not be replayed through the
        // sim at all.
        let base = Schedule {
            seed: 0,
            cores: 3,
            send_vectors: vec![32],
            timer_vector: None,
            forwarded: vec![],
            events: vec![
                Event::Send { uv: 32 },
                Event::AdvanceTime { dt: 1_040 },
                Event::Send { uv: 32 },
            ],
        };
        assert!(!base.is_sim_compatible(), "no Schedule before the first Send");

        let mut scheduled = base.clone();
        scheduled.events.insert(0, Event::Schedule { core: 1 });
        assert!(!scheduled.is_sim_compatible(), "batch gap below SIM_MIN_GAP");

        let mut spaced = scheduled.clone();
        spaced.events[2] = Event::AdvanceTime { dt: Schedule::SIM_MIN_GAP };
        assert!(!spaced.is_sim_compatible(), "previous batch never drained");

        let mut drained = spaced.clone();
        drained.events.insert(2, Event::Deliver);
        assert!(drained.is_sim_compatible());

        let mut split_batch = drained.clone();
        split_batch.events[3] = Event::AdvanceTime { dt: 0 };
        // Now: Schedule, Send, Deliver, AdvanceTime{0}, Send — the
        // Deliver splits a same-timestamp batch.
        assert!(!split_batch.is_sim_compatible());
    }

    #[test]
    fn timed_sends_become_one_drained_batch_per_timestamp() {
        let s = Schedule::from_timed_sends(&[(4_000, 70), (2_000, 9), (2_000, 5)]);
        assert_eq!(s.send_vectors, vec![9, 5, 6]);
        assert_eq!(
            s.events,
            vec![
                Event::Schedule { core: 1 },
                Event::AdvanceTime { dt: 2_000 },
                Event::Send { uv: 9 },
                Event::Send { uv: 5 },
                Event::Deliver,
                Event::AdvanceTime { dt: 2_000 },
                Event::Send { uv: 6 },
                Event::Deliver,
            ]
        );
        assert!(s.is_sim_compatible());
        assert_eq!(s.timed_sends(), vec![(2_000, 9), (2_000, 5), (4_000, 6)]);
        assert!(!Schedule::from_timed_sends(&[(2_000, 9), (3_000, 5)]).is_sim_compatible());
    }

    #[test]
    fn schedules_serialize_deterministically_and_carry_their_seed() {
        // The vendored serde stack is serialization-only: the JSON is a
        // human/CI artifact, and programmatic replay reconstructs the
        // schedule from the embedded seed instead of parsing.
        let s = Schedule::generate(123);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, serde_json::to_string(&Schedule::generate(123)).unwrap());
        assert!(json.contains("\"seed\":123"));
        assert_eq!(Schedule::generate(s.seed), s);
    }
}
