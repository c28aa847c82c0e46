//! Fault application to a send schedule, and the delivery obligations
//! the faulted schedule implies.
//!
//! A [`FaultPlan`] is applied to the *schedule* (drop / delay /
//! duplicate / reorder posts) before any model runs, so every model sees
//! the identical adversarial input. [`expected_deliveries`] states what
//! the UPID/UIRR contract then requires the receiver to take, and
//! [`check_schedule`] runs the four delivery invariants over it. The
//! fault-injection suite's conformance rows replay the effective
//! schedule through `xui_oracle::check_timed_sends`, which diffs the
//! oracle, the untimed models and the cycle-level simulator.

use crate::inject::{FaultInjector, PostAction};
use crate::invariants::{check, InvariantConfig, InvariantReport, EV_DELIVER, EV_IDLE, EV_POST};
use crate::plan::FaultPlan;
use xui_telemetry::Event;

/// One scheduled `senduipi` toward the single receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledSend {
    /// Virtual time (DES ticks == sim cycles) of the send.
    pub at: u64,
    /// User vector (0..64).
    pub uv: u8,
}

/// `sends` after applying `plan` (drop/delay/duplicate/reorder), sorted
/// by time. Vectors are clamped into 0..64. Reorder faults permute
/// *vectors across slots* inside windows — arrival times stay sorted,
/// payloads swap, which is how fabric reordering looks to the receiver.
#[must_use]
pub fn effective_sends(sends: &[ScheduledSend], plan: Option<&FaultPlan>) -> Vec<ScheduledSend> {
    let mut sends = sends.to_vec();
    for s in &mut sends {
        s.uv &= 63;
    }
    sends.sort_by_key(|s| (s.at, s.uv));
    let Some(plan) = plan else { return sends };
    let mut inj = FaultInjector::new(plan);
    let mut out = Vec::with_capacity(sends.len());
    for s in sends {
        match inj.on_post(s.at) {
            PostAction::Deliver => out.push(s),
            PostAction::Drop => {}
            PostAction::Delay(by) => {
                out.push(ScheduledSend { at: s.at + by, uv: s.uv });
            }
            PostAction::Duplicate => {
                out.push(s);
                out.push(s);
            }
        }
    }
    let mut uvs: Vec<u8> = out.iter().map(|s| s.uv).collect();
    inj.permute_posts(&mut uvs);
    for (s, uv) in out.iter_mut().zip(uvs) {
        s.uv = uv;
    }
    out.sort_by_key(|s| (s.at, s.uv));
    out
}

/// The delivery obligations implied by an effective schedule: sends
/// sharing a timestamp form one *batch*; within a batch duplicate
/// vectors coalesce and delivery is highest-vector-first (the UIRR
/// contract both models implement).
#[must_use]
pub fn expected_deliveries(effective: &[ScheduledSend]) -> Vec<ScheduledSend> {
    let mut out: Vec<ScheduledSend> = Vec::new();
    let mut i = 0;
    while i < effective.len() {
        let at = effective[i].at;
        let mut batch: Vec<u8> = Vec::new();
        while i < effective.len() && effective[i].at == at {
            if !batch.contains(&effective[i].uv) {
                batch.push(effective[i].uv);
            }
            i += 1;
        }
        batch.sort_unstable_by(|a, b| b.cmp(a)); // highest vector first
        out.extend(batch.into_iter().map(|uv| ScheduledSend { at, uv }));
    }
    out
}

/// Post-to-delivery latency of the telemetry [`check_schedule`]
/// synthesizes: the cycle-level replay's send latency (µcode + APIC
/// transit).
pub const SYNTH_DELIVERY_LATENCY: u64 = 140;

/// Synthesizes the telemetry stream an effective schedule implies —
/// one post per expected delivery, its delivery
/// [`SYNTH_DELIVERY_LATENCY`] ticks later, one final idle — and runs
/// the four delivery invariants over it: the schedule the models agree
/// on must itself satisfy them.
#[must_use]
pub fn check_schedule(effective: &[ScheduledSend]) -> InvariantReport {
    let mut events: Vec<Event> = Vec::new();
    for s in expected_deliveries(effective) {
        let uv = u64::from(s.uv);
        events.push(Event::instant(s.at, 0, EV_POST).with_arg("uv", uv));
        events.push(
            Event::instant(s.at + SYNTH_DELIVERY_LATENCY, 0, EV_DELIVER).with_arg("uv", uv),
        );
    }
    events.sort_by_key(|e| e.ts);
    let end = events.last().map_or(0, |e| e.ts);
    events.push(Event::instant(end + 1, 0, EV_IDLE));
    check(&events, &InvariantConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sends(spec: &[(u64, u8)]) -> Vec<ScheduledSend> {
        spec.iter().map(|&(at, uv)| ScheduledSend { at, uv }).collect()
    }

    fn timed(sends: &[ScheduledSend]) -> Vec<(u64, u8)> {
        sends.iter().map(|s| (s.at, s.uv)).collect()
    }

    #[test]
    fn expected_deliveries_batch_dedup_and_order() {
        // t=10: vectors 3, 9, 3 → batch {9, 3} highest-first.
        let eff = sends(&[(10, 3), (10, 9), (10, 3), (50, 1)]);
        let exp = expected_deliveries(&eff);
        assert_eq!(timed(&exp), vec![(10, 9), (10, 3), (50, 1)]);
    }

    #[test]
    fn duplicate_and_drop_plans_rewrite_the_schedule() {
        let two = sends(&[(2_000, 5), (6_000, 7)]);
        let dup = FaultPlan::named("dup-all").duplicate_every(1, 1);
        let eff = effective_sends(&two, Some(&dup));
        assert_eq!(timed(&eff), vec![(2_000, 5), (2_000, 5), (6_000, 7), (6_000, 7)]);
        // Duplicates coalesce: still two obligations.
        assert_eq!(timed(&expected_deliveries(&eff)), timed(&two));

        let three = sends(&[(2_000, 5), (6_000, 7), (10_000, 3)]);
        let drop = FaultPlan::named("drop-2nd").drop_every(3, 2);
        assert_eq!(timed(&effective_sends(&three, Some(&drop))), vec![(2_000, 5), (10_000, 3)]);

        let drop_all = FaultPlan::named("drop-all").drop_every(1, 1);
        assert!(effective_sends(&[], Some(&drop_all)).is_empty());
        assert!(effective_sends(&three, Some(&drop_all)).is_empty());
    }

    #[test]
    fn clean_schedule_is_sorted_and_clamped() {
        let eff = effective_sends(&sends(&[(6_000, 71), (2_000, 9), (2_000, 5)]), None);
        assert_eq!(timed(&eff), vec![(2_000, 5), (2_000, 9), (6_000, 7)]);
    }

    #[test]
    fn a_schedules_obligations_satisfy_the_invariants() {
        let eff = sends(&[(2_000, 5), (2_000, 5), (2_000, 9), (6_000, 7)]);
        let r = check_schedule(&eff);
        assert!(r.pass(), "{:?}", r.violations);
        assert_eq!((r.posts, r.delivers, r.idles), (3, 3, 1));
    }
}
