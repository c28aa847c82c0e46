//! The l3fwd experiment (§5.4 / §6.2.2, Figure 8): a layer-3 router
//! forwarding 64-byte UDP packets from 1–8 NIC receive queues using
//! either busy polling (DPDK's run-to-completion loop) or xUI device
//! interrupts (interrupt forwarding + tracked delivery), with full cycle
//! accounting.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use xui_des::stats::{CycleAccount, Histogram, Summary};
use xui_faults::{DegradeGuard, FaultInjector, FaultPlan, PostAction};

use crate::lpm::Lpm;
use crate::packet::{Packet, RxQueue, TxQueue};
use crate::rss::Rss;
use crate::traffic::{paper_route_table, TrafficGen};

/// How the worker learns about received packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoMode {
    /// Busy-spin polling every queue in rotation (the DPDK baseline).
    Polling,
    /// xUI: idle until a forwarded device interrupt arrives; the handler
    /// drains all queues (re-polling before returning, §6.2.2) and then
    /// `uiret`s.
    XuiInterrupt,
}

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L3fwdConfig {
    /// Number of NICs/receive queues (paper: 1, 2, 4, 8).
    pub nics: usize,
    /// Offered load as a fraction of the worker's forwarding capacity.
    pub load: f64,
    /// Notification mode.
    pub mode: IoMode,
    /// Simulated duration in cycles.
    pub duration: u64,
    /// RNG seed.
    pub seed: u64,
    /// Per-packet forwarding cost (parse + LPM + TX), cycles.
    pub per_packet_cost: u64,
    /// Cost of checking one (possibly empty) receive queue.
    pub poll_cost: u64,
    /// Receiver cost of one forwarded tracked interrupt (§4.5 fast path).
    pub wake_cost: u64,
    /// Cost of returning from the handler (`uiret` + timer/NIC re-arm).
    pub uiret_cost: u64,
    /// Burst size per queue visit.
    pub burst: usize,
    /// Descriptor-ring capacity per queue.
    pub ring_size: usize,
    /// Wire time per 64 B packet on the TX side. The paper's NICs are
    /// not the bottleneck (the worker is), so the default outruns the
    /// worker's ~240-cycle forwarding cost.
    pub tx_wire_cycles: u64,
    /// Queue layout: `false` = one independent traffic stream per NIC
    /// (the paper's multi-NIC setup); `true` = a single NIC whose one
    /// stream is spread across `nics` queues by Toeplitz RSS.
    pub single_nic_rss: bool,
}

impl L3fwdConfig {
    /// Paper-flavoured defaults at the given NIC count, load and mode.
    #[must_use]
    pub fn paper(nics: usize, load: f64, mode: IoMode) -> Self {
        Self {
            nics,
            load,
            mode,
            duration: 40_000_000, // 20 ms
            seed: 99,
            per_packet_cost: 240,
            poll_cost: 40,
            wake_cost: 105,
            uiret_cost: 40,
            burst: 32,
            ring_size: 512,
            tx_wire_cycles: 120,
            single_nic_rss: false,
        }
    }
}

/// Results of one l3fwd run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct L3fwdReport {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped at RX descriptor rings.
    pub drops: u64,
    /// Packets dropped at full TX rings (wire backpressure).
    pub tx_drops: u64,
    /// Packets actually put on the wire by the run's end.
    pub tx_sent: u64,
    /// Per-packet latency summary (arrival → forwarded), cycles.
    pub latency: Summary,
    /// Cycle accounting: `networking`, `polling`, `interrupt`, `free`.
    pub account: CycleAccount,
    /// Fraction of worker cycles left free for other work.
    pub free_fraction: f64,
    /// Achieved throughput in packets per second (2 GHz clock).
    pub throughput_pps: f64,
    /// Wake interrupts lost or delayed by fault injection (zero in
    /// unfaulted runs).
    pub wake_faults: u64,
    /// True if consecutive wake faults crossed the plan's degrade
    /// threshold and the worker fell back to busy polling for the rest
    /// of the run.
    pub degraded_to_polling: bool,
}

struct QueueState {
    arrivals: Vec<Packet>,
    next: usize,
    /// Arrivals below this index can no longer raise a wake interrupt
    /// (their post was dropped by fault injection); the packets
    /// themselves stay queued and ride along with a later wake.
    wake_from: usize,
    ring: RxQueue,
    tx: TxQueue,
}

impl QueueState {
    fn ingest(&mut self, now: u64) {
        while self.next < self.arrivals.len() && self.arrivals[self.next].arrived_at <= now {
            self.ring.push(self.arrivals[self.next]);
            self.next += 1;
        }
    }

    fn next_wake(&self) -> Option<u64> {
        self.arrivals.get(self.next.max(self.wake_from)).map(|p| p.arrived_at)
    }
}

/// Applies the plan's ring-clamp ops (if any) to one RX ring.
fn clamp_ring(
    ring: &mut RxQueue,
    qi: usize,
    now: u64,
    nominal: usize,
    faults: &mut Option<&mut FaultInjector>,
) {
    if let Some(inj) = faults.as_deref_mut() {
        ring.set_capacity(inj.ring_capacity(qi, now, nominal));
    }
}

/// Runs the experiment without faults.
///
/// # Panics
///
/// Panics if `cfg.nics == 0`.
#[must_use]
pub fn run_l3fwd(cfg: &L3fwdConfig) -> L3fwdReport {
    run_l3fwd_with(cfg, None)
}

/// Runs the experiment, optionally under a fault plan.
///
/// With `faults`, in [`IoMode::XuiInterrupt`] every wake interrupt
/// passes through the plan's drop/delay ops and RX rings can be clamped
/// mid-run; once the consecutive fault streak crosses
/// `plan.degrade_threshold` the worker stops trusting the interrupt path
/// and busy-polls the rings for the rest of the run — trading its free
/// cycles for guaranteed forward progress instead of stranding packets
/// forever.
///
/// # Panics
///
/// Panics if `cfg.nics == 0`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_l3fwd_with(cfg: &L3fwdConfig, faults: Option<&FaultPlan>) -> L3fwdReport {
    assert!(cfg.nics > 0, "need at least one NIC");
    let mut injector = faults.map(FaultInjector::new);
    let mut faults = injector.as_mut();

    let routes = paper_route_table(cfg.seed);
    let lpm = Lpm::from_routes(&routes);

    // Offered load: fraction of the worker's pure-forwarding capacity.
    let total_rate = cfg.load / cfg.per_packet_cost as f64;
    let per_nic_rate = total_rate / cfg.nics as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let mut queues: Vec<QueueState> = if cfg.single_nic_rss {
        // One NIC, one stream; the NIC's RSS engine spreads flows over
        // the receive queues by Toeplitz hash.
        let rss = Rss::new(cfg.nics);
        let mut gen = TrafficGen::new(total_rate, &routes, cfg.seed, 512);
        let mut per_queue: Vec<Vec<Packet>> = (0..cfg.nics).map(|_| Vec::new()).collect();
        for pkt in gen.generate_until(&mut rng, cfg.duration) {
            per_queue[rss.queue_for_ipv4(0x0a00_0001, pkt.dst_ip)].push(pkt);
        }
        per_queue
            .into_iter()
            .map(|arrivals| QueueState {
                arrivals,
                next: 0,
                wake_from: 0,
                ring: RxQueue::new(cfg.ring_size),
                tx: TxQueue::new(cfg.ring_size, cfg.tx_wire_cycles),
            })
            .collect()
    } else {
        (0..cfg.nics)
            .map(|q| {
                let mut gen =
                    TrafficGen::new(per_nic_rate, &routes, cfg.seed + q as u64, 512);
                QueueState {
                    arrivals: gen.generate_until(&mut rng, cfg.duration),
                    next: 0,
                    wake_from: 0,
                    ring: RxQueue::new(cfg.ring_size),
                    tx: TxQueue::new(cfg.ring_size, cfg.tx_wire_cycles),
                }
            })
            .collect()
    };

    let mut latency = Histogram::new();
    let mut account = CycleAccount::new();
    let mut forwarded = 0u64;
    let mut now = 0u64;
    let mut wake_faults = 0u64;
    let mut guard = faults
        .as_ref()
        .map(|inj| DegradeGuard::new(inj.plan().degrade_threshold));

    // Processes up to a burst from `q` at the current time. Returns
    // packets forwarded.
    let process_burst = |q: &mut QueueState,
                         now: &mut u64,
                         latency: &mut Histogram,
                         account: &mut CycleAccount,
                         lpm: &Lpm,
                         cfg: &L3fwdConfig|
     -> u64 {
        let mut done = 0;
        while done < cfg.burst as u64 {
            let Some(pkt) = q.ring.pop() else { break };
            // The actual routing decision.
            let _next_hop = lpm.lookup(pkt.dst_ip);
            *now += cfg.per_packet_cost;
            account.add("networking", cfg.per_packet_cost);
            latency.record(now.saturating_sub(pkt.arrived_at));
            // Send back out the same NIC (§5.4, 1-NIC methodology).
            q.tx.push(*now, pkt);
            done += 1;
        }
        done
    };

    match cfg.mode {
        IoMode::Polling => {
            let mut qi = 0usize;
            while now < cfg.duration {
                let q = &mut queues[qi];
                clamp_ring(&mut q.ring, qi, now, cfg.ring_size, &mut faults);
                q.ingest(now);
                now += cfg.poll_cost;
                if q.ring.is_empty() {
                    account.add("polling", cfg.poll_cost);
                } else {
                    account.add("networking", cfg.poll_cost);
                    forwarded += process_burst(
                        q,
                        &mut now,
                        &mut latency,
                        &mut account,
                        &lpm,
                        cfg,
                    );
                }
                qi = (qi + 1) % cfg.nics;
            }
            // Polling burns every remaining cycle too.
            let spent = account.total();
            if spent < cfg.duration {
                account.add("polling", cfg.duration - spent);
            }
        }
        IoMode::XuiInterrupt => {
            // Idle until the next wake-eligible arrival anywhere, then
            // handle.
            while let Some((next, wq)) = queues
                .iter()
                .enumerate()
                .filter_map(|(qi, q)| q.next_wake().map(|t| (t, qi)))
                .min()
            {
                if next >= cfg.duration {
                    break;
                }
                // Fault injection on the wake interrupt: a dropped post
                // means only a *later* arrival can wake the worker (the
                // stranded packets ride along with that wake); a delayed
                // post wakes late. Crossing the consecutive-fault
                // threshold abandons interrupts for busy polling below.
                let mut wake_at = next;
                if !guard.as_ref().is_some_and(DegradeGuard::degraded) {
                    if let Some(inj) = faults.as_deref_mut() {
                        match inj.on_post(next) {
                            PostAction::Drop => {
                                wake_faults += 1;
                                if guard.as_mut().is_some_and(DegradeGuard::fault) {
                                    break;
                                }
                                let q = &mut queues[wq];
                                q.wake_from = q.next.max(q.wake_from) + 1;
                                continue;
                            }
                            PostAction::Delay(by) => {
                                wake_faults += 1;
                                if guard.as_mut().is_some_and(DegradeGuard::fault) {
                                    break;
                                }
                                wake_at = next + by;
                            }
                            // Duplicate wakes coalesce in the UIRR: the
                            // handler drains everything on the first.
                            PostAction::Deliver | PostAction::Duplicate => {
                                if let Some(g) = guard.as_mut() {
                                    g.ok();
                                }
                            }
                        }
                    }
                }
                if wake_at > now {
                    account.add("free", wake_at - now);
                    now = wake_at;
                }
                // Forwarded tracked interrupt wakes the thread.
                now += cfg.wake_cost;
                account.add("interrupt", cfg.wake_cost);
                // Handler: drain rotations until one full pass finds
                // nothing (the paper's "polls the network queue again
                // before returning").
                loop {
                    let mut drained_any = false;
                    for (qi, q) in queues.iter_mut().enumerate() {
                        clamp_ring(&mut q.ring, qi, now, cfg.ring_size, &mut faults);
                        q.ingest(now);
                        now += cfg.poll_cost;
                        account.add("interrupt", cfg.poll_cost);
                        loop {
                            let got = process_burst(
                                q,
                                &mut now,
                                &mut latency,
                                &mut account,
                                &lpm,
                                cfg,
                            );
                            forwarded += got;
                            if got == 0 {
                                break;
                            }
                            drained_any = true;
                            clamp_ring(&mut q.ring, qi, now, cfg.ring_size, &mut faults);
                            q.ingest(now);
                        }
                    }
                    if !drained_any {
                        break;
                    }
                }
                now += cfg.uiret_cost;
                account.add("interrupt", cfg.uiret_cost);
                if now >= cfg.duration {
                    break;
                }
            }
            if guard.as_ref().is_some_and(DegradeGuard::degraded) {
                // Graceful fallback: the interrupt fabric proved
                // unreliable, so busy-poll the rings for the rest of the
                // run (the DPDK baseline) — free cycles are sacrificed,
                // but no packet is stranded waiting for a wake that will
                // never come.
                let mut qi = 0usize;
                while now < cfg.duration {
                    let q = &mut queues[qi];
                    clamp_ring(&mut q.ring, qi, now, cfg.ring_size, &mut faults);
                    q.ingest(now);
                    now += cfg.poll_cost;
                    if q.ring.is_empty() {
                        account.add("polling", cfg.poll_cost);
                    } else {
                        account.add("networking", cfg.poll_cost);
                        forwarded += process_burst(
                            q,
                            &mut now,
                            &mut latency,
                            &mut account,
                            &lpm,
                            cfg,
                        );
                    }
                    qi = (qi + 1) % cfg.nics;
                }
                let spent = account.total();
                if spent < cfg.duration {
                    account.add("polling", cfg.duration - spent);
                }
            } else if now < cfg.duration {
                account.add("free", cfg.duration - now);
            }
        }
    }

    for q in &mut queues {
        q.tx.drain(u64::MAX); // the wire finishes after the run
    }
    let drops = queues.iter().map(|q| q.ring.drops()).sum();
    let tx_drops = queues.iter().map(|q| q.tx.drops()).sum();
    let tx_sent = queues.iter().map(|q| q.tx.sent()).sum();
    let span = account.total().max(1);
    let free_fraction = account.get("free") as f64 / span as f64;
    let seconds = cfg.duration as f64 / 2e9;
    L3fwdReport {
        forwarded,
        drops,
        tx_drops,
        tx_sent,
        latency: latency.summary(),
        account,
        free_fraction,
        throughput_pps: forwarded as f64 / seconds,
        wake_faults,
        degraded_to_polling: guard.as_ref().is_some_and(DegradeGuard::degraded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(nics: usize, load: f64, mode: IoMode) -> L3fwdReport {
        let mut cfg = L3fwdConfig::paper(nics, load, mode);
        cfg.duration = 10_000_000; // 5 ms
        run_l3fwd(&cfg)
    }

    #[test]
    fn polling_burns_the_whole_core() {
        let r = quick(1, 0.4, IoMode::Polling);
        assert!(r.free_fraction < 1e-9, "polling leaves nothing free");
        assert!(r.forwarded > 1_000);
        assert!(r.account.get("polling") > 0);
    }

    #[test]
    fn xui_frees_cycles_at_partial_load() {
        let r = quick(1, 0.4, IoMode::XuiInterrupt);
        // Paper: ~45% free at 40% load with one queue.
        assert!(
            (0.25..0.60).contains(&r.free_fraction),
            "free={}",
            r.free_fraction
        );
        assert!(r.account.get("interrupt") > 0);
    }

    #[test]
    fn throughput_parity_between_modes() {
        let p = quick(2, 0.5, IoMode::Polling);
        let x = quick(2, 0.5, IoMode::XuiInterrupt);
        let diff = (p.forwarded as f64 - x.forwarded as f64).abs() / p.forwarded as f64;
        assert!(diff < 0.02, "throughput within 2%: {} vs {}", p.forwarded, x.forwarded);
    }

    #[test]
    fn idle_system_is_all_free_with_xui() {
        let r = quick(4, 0.0005, IoMode::XuiInterrupt);
        assert!(r.free_fraction > 0.95, "free={}", r.free_fraction);
    }

    #[test]
    fn more_queues_cost_more_polling_rotation_latency() {
        let one = quick(1, 0.3, IoMode::Polling);
        let eight = quick(8, 0.3, IoMode::Polling);
        assert!(
            eight.latency.p50 > one.latency.p50,
            "rotation grows with queues: {} vs {}",
            one.latency.p50,
            eight.latency.p50
        );
    }

    #[test]
    fn no_packets_are_lost_at_moderate_load() {
        for mode in [IoMode::Polling, IoMode::XuiInterrupt] {
            let r = quick(2, 0.4, mode);
            assert_eq!(r.drops, 0, "{mode:?} drops packets at 40% load");
        }
    }

    #[test]
    fn overload_saturates_and_drops() {
        let r = quick(1, 1.5, IoMode::Polling);
        assert!(r.drops > 0, "150% load must drop");
        // Forwarding rate pinned near capacity.
        let capacity_pps = 2e9 / 240.0;
        assert!(r.throughput_pps > 0.8 * capacity_pps);
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(2, 0.4, IoMode::XuiInterrupt);
        let b = quick(2, 0.4, IoMode::XuiInterrupt);
        assert_eq!(a.forwarded, b.forwarded);
        assert_eq!(a.latency.p95, b.latency.p95);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn faulted(cfg: &L3fwdConfig, plan: &FaultPlan) -> L3fwdReport {
        run_l3fwd_with(cfg, Some(plan))
    }

    fn cfg(load: f64, mode: IoMode) -> L3fwdConfig {
        let mut cfg = L3fwdConfig::paper(2, load, mode);
        cfg.duration = 8_000_000; // 4 ms
        cfg
    }

    #[test]
    fn empty_plan_is_result_identical_to_unfaulted() {
        let cfg = cfg(0.4, IoMode::XuiInterrupt);
        let clean = run_l3fwd(&cfg);
        let faulted = faulted(&cfg, &FaultPlan::named("empty"));
        assert_eq!(faulted.forwarded, clean.forwarded);
        assert_eq!(faulted.latency.p99, clean.latency.p99);
        assert_eq!(faulted.account, clean.account);
        assert_eq!(faulted.wake_faults, 0);
        assert!(!faulted.degraded_to_polling);
    }

    #[test]
    fn dropped_wakes_raise_latency_but_packets_survive() {
        let cfg = cfg(0.4, IoMode::XuiInterrupt);
        let clean = run_l3fwd(&cfg);
        let plan = FaultPlan::named("drop-half-wakes").drop_every(2, 1);
        let r = faulted(&cfg, &plan);
        assert!(r.wake_faults > 100, "faults counted: {}", r.wake_faults);
        assert!(!r.degraded_to_polling);
        // Stranded packets ride along with the next delivered wake:
        // throughput holds, latency pays.
        assert!(r.forwarded as f64 > clean.forwarded as f64 * 0.95);
        assert!(
            r.latency.p99 >= clean.latency.p99,
            "lost wakes cannot shorten tails: {} vs {}",
            r.latency.p99,
            clean.latency.p99
        );
    }

    #[test]
    fn dead_interrupt_path_degrades_to_polling_and_keeps_forwarding() {
        let cfg = cfg(0.4, IoMode::XuiInterrupt);
        // Every wake is lost. Without the degrade guard nothing is ever
        // forwarded; with it, polling takes over after 8 lost wakes.
        let stranded =
            faulted(&cfg, &FaultPlan::named("dead-irq").drop_every(1, 1));
        assert_eq!(stranded.forwarded, 0, "no wake, no forwarding");
        assert!(!stranded.degraded_to_polling);

        let plan = FaultPlan::named("dead-irq-guarded").drop_every(1, 1).degrade_after(8);
        let rescued = faulted(&cfg, &plan);
        assert!(rescued.degraded_to_polling, "guard must trip");
        assert_eq!(rescued.wake_faults, 8, "exactly the streak before the trip");
        let clean = run_l3fwd(&cfg);
        assert!(
            rescued.forwarded as f64 > clean.forwarded as f64 * 0.9,
            "polling fallback recovers throughput: {} vs {}",
            rescued.forwarded,
            clean.forwarded
        );
        assert!(rescued.free_fraction < 0.05, "polling burns the core");
    }

    #[test]
    fn delayed_wakes_defer_detection() {
        let cfg = cfg(0.3, IoMode::XuiInterrupt);
        let clean = run_l3fwd(&cfg);
        let plan = FaultPlan::named("late-wakes").delay_every(1, 1, 20_000);
        let r = faulted(&cfg, &plan);
        assert!(r.wake_faults > 0);
        assert!(
            r.latency.p50 > clean.latency.p50 + 10_000,
            "every wake 10 µs late: {} vs {}",
            r.latency.p50,
            clean.latency.p50
        );
    }

    #[test]
    fn ring_clamp_overflows_and_drops() {
        let cfg = cfg(0.5, IoMode::Polling);
        let clean = run_l3fwd(&cfg);
        assert_eq!(clean.drops, 0, "baseline has headroom at 50% load");
        let plan = FaultPlan::named("tiny-rings").clamp_ring(
            usize::MAX,
            1_000_000,
            7_000_000,
            2,
        );
        let r = faulted(&cfg, &plan);
        assert!(r.drops > 0, "2-descriptor rings must overflow");
        assert!(r.forwarded < clean.forwarded);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cfg = cfg(0.4, IoMode::XuiInterrupt);
        let plan = FaultPlan::named("mix").seed(3).drop_every(5, 2).delay_every(7, 1, 5_000);
        let a = faulted(&cfg, &plan);
        let b = faulted(&cfg, &plan);
        assert_eq!(a.forwarded, b.forwarded);
        assert_eq!(a.wake_faults, b.wake_faults);
        assert_eq!(a.latency.p99, b.latency.p99);
    }
}

#[cfg(test)]
mod conservation {
    use super::*;

    /// Packet conservation: every generated packet is forwarded, queued
    /// at the end, or dropped — none invented, none silently lost.
    #[test]
    fn packets_are_conserved() {
        for (mode, load) in [
            (IoMode::Polling, 0.3),
            (IoMode::Polling, 1.4),
            (IoMode::XuiInterrupt, 0.3),
            (IoMode::XuiInterrupt, 0.9),
        ] {
            let mut cfg = L3fwdConfig::paper(3, load, mode);
            cfg.duration = 4_000_000;
            let r = run_l3fwd(&cfg);
            // Regenerate the arrival count deterministically.
            let routes = crate::traffic::paper_route_table(cfg.seed);
            let total_rate = cfg.load / cfg.per_packet_cost as f64;
            let mut rng = <StdRng as SeedableRng>::seed_from_u64(cfg.seed ^ 0x5eed);
            let mut arrivals = 0u64;
            for q in 0..cfg.nics {
                let mut gen = crate::traffic::TrafficGen::new(
                    total_rate / cfg.nics as f64,
                    &routes,
                    cfg.seed + q as u64,
                    512,
                );
                arrivals += gen.generate_until(&mut rng, cfg.duration).len() as u64;
            }
            assert!(
                r.forwarded + r.drops <= arrivals,
                "{mode:?}@{load}: forwarded {} + drops {} > arrivals {arrivals}",
                r.forwarded,
                r.drops
            );
            // Whatever is neither forwarded nor dropped was still queued
            // (or not yet ingested) at the horizon — bounded by ring
            // capacity plus one in-flight burst per queue.
            let leftover = arrivals - r.forwarded - r.drops;
            let bound = (cfg.nics * (cfg.ring_size + cfg.burst)) as u64;
            assert!(
                leftover <= bound,
                "{mode:?}@{load}: leftover {leftover} exceeds bound {bound}"
            );
        }
    }
}

#[cfg(test)]
mod rss_mode {
    use super::*;

    #[test]
    fn single_nic_rss_spreads_and_forwards() {
        let mut cfg = L3fwdConfig::paper(4, 0.4, IoMode::XuiInterrupt);
        cfg.duration = 8_000_000;
        cfg.single_nic_rss = true;
        let r = run_l3fwd(&cfg);
        assert!(r.forwarded > 1_000, "RSS mode forwards traffic");
        assert_eq!(r.drops, 0);
        assert!((0.2..0.7).contains(&r.free_fraction), "free={}", r.free_fraction);
    }

    #[test]
    fn rss_and_per_nic_modes_have_similar_throughput() {
        let mut per_nic = L3fwdConfig::paper(4, 0.5, IoMode::Polling);
        per_nic.duration = 8_000_000;
        let mut rss = per_nic.clone();
        rss.single_nic_rss = true;
        let a = run_l3fwd(&per_nic);
        let b = run_l3fwd(&rss);
        let diff = (a.forwarded as f64 - b.forwarded as f64).abs() / a.forwarded as f64;
        // Same offered rate, different queue layout: totals within a few
        // per cent (different RNG streams, same mean).
        assert!(diff < 0.1, "{} vs {}", a.forwarded, b.forwarded);
    }
}
