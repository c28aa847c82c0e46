//! The §5.3 / Figure 7 experiment: an Aspen-like runtime serving the
//! bimodal RocksDB workload from an open-loop Poisson load generator,
//! with preemptive scheduling driven by one of the mechanisms in
//! [`PreemptMechanism`].
//!
//! Without preemption, a 580 µs SCAN at the head of the line blocks every
//! queued 1.2 µs GET. With a 5 µs quantum, GETs overtake SCANs at the
//! next timer fire; what differs between UIPI and xUI is the per-fire
//! cost charged to the worker (and whether a separate core must serve as
//! the time source).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use xui_telemetry::{Event, NullRecorder, Recorder};

use xui_core::CostModel;
use xui_des::dist::PoissonProcess;
use xui_des::stats::{Histogram, Summary};
use xui_faults::{DegradeGuard, FaultInjector, FaultPlan, PostAction};
use xui_kernel::{OsCosts, PreemptMechanism};
use xui_workloads::rocksdb::{RequestClass, RocksDbModel};

use crate::stealing::StealQueues;
use crate::uthread::{Uthread, UthreadId};

/// Configuration of a server run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Number of worker cores.
    pub workers: usize,
    /// Preemption quantum in cycles (paper: 10 000 = 5 µs).
    pub quantum: u64,
    /// Preemption mechanism.
    pub mechanism: PreemptMechanism,
    /// Offered load in requests per second (at the 2 GHz clock).
    pub rps: f64,
    /// Simulated duration in cycles.
    pub duration: u64,
    /// RNG seed.
    pub seed: u64,
    /// Service-time model.
    pub model: RocksDbModel,
}

impl ServerConfig {
    /// The paper's single-worker configuration with a 5 µs quantum.
    #[must_use]
    pub fn paper(mechanism: PreemptMechanism, rps: f64) -> Self {
        Self {
            workers: 1,
            quantum: 10_000,
            mechanism,
            rps,
            duration: 600_000_000, // 0.3 s
            seed: 42,
            model: RocksDbModel::paper(),
        }
    }
}

/// Results of a server run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    /// GET sojourn-time summary (cycles).
    pub get_latency: Summary,
    /// SCAN sojourn-time summary (cycles).
    pub scan_latency: Summary,
    /// Completed GETs.
    pub completed_gets: u64,
    /// Completed SCANs.
    pub completed_scans: u64,
    /// Requests still queued/running when the run ended.
    pub unfinished: u64,
    /// Total preemptions performed.
    pub preemptions: u64,
    /// Timer fires that did not preempt.
    pub fires_without_switch: u64,
    /// Cross-worker steals performed (multi-worker runs).
    pub steals: u64,
    /// Worker busy fraction (work + overhead).
    pub busy_fraction: f64,
    /// Achieved throughput in requests/second.
    pub achieved_rps: f64,
    /// Whether the run kept up with offered load (queue did not blow up).
    pub stable: bool,
    /// Preemption-timer fires lost, delayed or stalled by fault
    /// injection (zero in unfaulted runs).
    pub timer_faults: u64,
    /// True if consecutive timer faults crossed the plan's degrade
    /// threshold and the runtime fell back to safepoint polling for the
    /// rest of the run.
    pub degraded_to_polling: bool,
}

impl ServerReport {
    /// GET p99.9 latency in microseconds.
    #[must_use]
    pub fn get_p999_us(&self) -> f64 {
        self.get_latency.p999 as f64 / 2_000.0
    }

    /// SCAN p99 latency in microseconds.
    #[must_use]
    pub fn scan_p99_us(&self) -> f64 {
        self.scan_latency.p99 as f64 / 2_000.0
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival,
    /// Periodic preemption-timer fire on a worker.
    Fire { worker: usize },
    /// The running segment on a worker completes (epoch-guarded).
    SegEnd { worker: usize, epoch: u64 },
}

/// The server's pending events. At most one arrival, one timer fire per
/// worker and one live segment end per worker are ever outstanding, so
/// each has a fixed slot and `pop` scans for the earliest `(t, seq)`.
/// `seq` advances on every push, so simultaneous events pop in push
/// order.
struct Pending {
    /// `(t, seq)` per slot: `[arrival, fire × workers, seg end × workers]`.
    slots: Vec<Option<(u64, u64)>>,
    /// Epoch of each worker's pending segment end.
    epochs: Vec<u64>,
    seq: u64,
    horizon: u64,
    /// Latest time `≤ horizon` of a segment end replaced before it
    /// popped. A queue that kept the superseded entry would pop it (and
    /// skip it as stale), and the run's end time counts every popped
    /// event up to the horizon.
    superseded: u64,
}

impl Pending {
    fn new(workers: usize, horizon: u64) -> Self {
        Self {
            slots: vec![None; 1 + 2 * workers],
            epochs: vec![0; workers],
            seq: 0,
            horizon,
            superseded: 0,
        }
    }

    fn set(&mut self, slot: usize, t: u64) -> Option<(u64, u64)> {
        let old = self.slots[slot].replace((t, self.seq));
        self.seq += 1;
        old
    }

    fn arrival(&mut self, t: u64) {
        let old = self.set(0, t);
        debug_assert!(old.is_none(), "one arrival outstanding");
    }

    fn fire(&mut self, worker: usize, t: u64) {
        let old = self.set(1 + worker, t);
        debug_assert!(old.is_none(), "one fire outstanding per worker");
    }

    fn seg_end(&mut self, worker: usize, t: u64, epoch: u64) {
        let workers = self.epochs.len();
        if let Some((old, _)) = self.set(1 + workers + worker, t) {
            if old <= self.horizon {
                self.superseded = self.superseded.max(old);
            }
        }
        self.epochs[worker] = epoch;
    }

    fn pop(&mut self) -> Option<(u64, Ev)> {
        let (slot, (t, _)) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|key| (i, key)))
            .min_by_key(|&(_, key)| key)?;
        self.slots[slot] = None;
        let workers = self.epochs.len();
        let ev = match slot {
            0 => Ev::Arrival,
            s if s <= workers => Ev::Fire { worker: s - 1 },
            s => {
                let worker = s - 1 - workers;
                Ev::SegEnd { worker, epoch: self.epochs[worker] }
            }
        };
        Some((t, ev))
    }
}

#[derive(Debug, Clone, Copy)]
struct Running {
    tid: usize,
    /// Simulation time after which service accrues (skips overhead
    /// windows).
    progress_from: u64,
    /// Time this thread was (re)dispatched, for quantum accounting.
    started_at: u64,
}

#[derive(Debug, Default)]
struct Worker {
    running: Option<Running>,
    epoch: u64,
    busy: u64,
}

/// Runs the simulation described by `cfg`, untraced and without faults.
#[must_use]
pub fn run_server(cfg: &ServerConfig) -> ServerReport {
    run_server_with(cfg, None, &mut NullRecorder)
}

/// Runs the simulation described by `cfg`, optionally under a fault
/// plan, recording telemetry into `rec`.
///
/// With `faults`, preemption-timer fires pass through the plan's
/// drop/delay/stall ops, and once the consecutive fault streak crosses
/// `plan.degrade_threshold` the runtime stops trusting the interrupt
/// path and falls back to safepoint polling (fires keep the quantum
/// cadence but bypass the injector), keeping the run live instead of
/// losing preemption entirely.
///
/// Per worker (the event actor) this records: an `arrival` instant per
/// request (class argument: 0 = GET, 1 = SCAN), a `run` span from
/// dispatch to completion or preemption, a `preempt` instant per forced
/// switch, a `timer_fire` instant per quantum fire that found work
/// running, a `steal` instant per cross-worker steal, and a `park`
/// instant when a worker goes idle. Under a fault plan it adds a
/// `timer_fault` instant per injected fault and a `degrade_to_polling`
/// instant at the moment the fallback engages. With [`NullRecorder`]
/// the instrumentation monomorphizes away and the function is the
/// untraced simulation, result-identical by test.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_server_with<R: Recorder>(
    cfg: &ServerConfig,
    faults: Option<&FaultPlan>,
    rec: &mut R,
) -> ServerReport {
    let mut injector = faults.map(FaultInjector::new);
    let mut faults = injector.as_mut();

    let hw = CostModel::paper();
    let os = OsCosts::paper();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut arrivals = PoissonProcess::with_rate(cfg.rps / 2e9);

    let mut threads: Vec<Uthread> = Vec::new();
    // Per-worker run queues with work stealing, as in Aspen (§5.3).
    let mut queue: StealQueues<usize> = StealQueues::new(cfg.workers);
    let mut workers: Vec<Worker> = (0..cfg.workers).map(|_| Worker::default()).collect();

    let mut pending = Pending::new(cfg.workers, cfg.duration);

    let mut get_latency = Histogram::new();
    let mut scan_latency = Histogram::new();
    let mut completed_gets = 0u64;
    let mut completed_scans = 0u64;
    let mut preemptions = 0u64;
    let mut fires_without_switch = 0u64;
    let mut timer_faults = 0u64;
    let mut guard = faults
        .as_ref()
        .map(|inj| DegradeGuard::new(inj.plan().degrade_threshold));

    // Prime the event queue.
    let first = arrivals.next_arrival(&mut rng);
    pending.arrival(first);
    if !matches!(cfg.mechanism, PreemptMechanism::None) {
        for w in 0..cfg.workers {
            pending.fire(w, cfg.quantum);
        }
    }

    let mut last_time = 0u64;
    while let Some((t, ev)) = pending.pop() {
        // Stop at the horizon: the backlog present now is the measure of
        // (in)stability, so it must not be drained after arrivals cease.
        if t > cfg.duration {
            break;
        }
        last_time = t;
        match ev {
            Ev::Arrival => {
                let (class, service) = cfg.model.sample(&mut rng);
                let tid = threads.len();
                threads.push(Uthread::new(UthreadId(tid), class, t, service));
                queue.push(tid % cfg.workers, tid);
                if rec.enabled() {
                    rec.record(
                        Event::instant(t, (tid % cfg.workers) as u32, "arrival")
                            .with_arg("class", u64::from(class == RequestClass::Scan)),
                    );
                }
                // Wake an idle worker.
                if let Some(w) = workers.iter().position(|w| w.running.is_none()) {
                    dispatch_at(w, t, &mut workers, &mut queue, &mut pending, &threads, rec);
                }
                if t < cfg.duration {
                    let next = arrivals.next_arrival(&mut rng).max(t + 1);
                    pending.arrival(next);
                }
            }
            Ev::SegEnd { worker, epoch } => {
                if workers[worker].epoch != epoch {
                    continue; // stale: the segment was interrupted
                }
                let Some(run) = workers[worker].running.take() else {
                    continue;
                };
                let thread = &mut threads[run.tid];
                workers[worker].busy += t.saturating_sub(run.progress_from.min(t));
                thread.remaining = 0;
                let sojourn = t - thread.arrived_at;
                match thread.class {
                    RequestClass::Get => {
                        get_latency.record(sojourn);
                        completed_gets += 1;
                    }
                    RequestClass::Scan => {
                        scan_latency.record(sojourn);
                        completed_scans += 1;
                    }
                }
                if rec.enabled() {
                    rec.record(
                        Event::end(t, worker as u32, "run")
                            .with_arg("tid", run.tid as u64)
                            .with_arg("sojourn", sojourn),
                    );
                }
                dispatch_at(worker, t, &mut workers, &mut queue, &mut pending, &threads, rec);
            }
            Ev::Fire { worker } => {
                // Fault injection on the interrupt path: the fire may be
                // stalled (timer core), dropped or delayed (the notify
                // post). Once the consecutive-fault streak crosses the
                // plan threshold the worker degrades to safepoint
                // polling — fires keep their cadence but no longer
                // touch the (faulty) interrupt fabric.
                if let Some(inj) = faults.as_deref_mut() {
                    let degraded = guard.as_ref().is_some_and(DegradeGuard::degraded);
                    if !degraded {
                        let slipped = inj.timer_fire_at(t);
                        let resched = if slipped > t {
                            Some(slipped)
                        } else {
                            match inj.on_post(t) {
                                PostAction::Drop => Some(t + cfg.quantum),
                                PostAction::Delay(by) => Some(t + by.max(1)),
                                // Duplicate fires coalesce in the UIRR:
                                // a second post of the same vector is a
                                // no-op, so both deliver exactly once.
                                PostAction::Deliver | PostAction::Duplicate => None,
                            }
                        };
                        if let Some(mut at) = resched {
                            timer_faults += 1;
                            rec.instant(t, worker as u32, "timer_fault");
                            if guard.as_mut().is_some_and(DegradeGuard::fault) {
                                // Fallback engages now: resume the plain
                                // quantum cadence immediately.
                                rec.instant(t, worker as u32, "degrade_to_polling");
                                at = t + cfg.quantum;
                            }
                            if at < cfg.duration.saturating_add(cfg.quantum * 4) {
                                pending.fire(worker, at);
                            }
                            continue;
                        }
                        if let Some(g) = guard.as_mut() {
                            g.ok();
                        }
                    }
                }
                // The periodic preemption timer (KB_Timer or SW timer
                // core) fires every quantum of wall-clock time.
                if t < cfg.duration.saturating_add(cfg.quantum * 4) {
                    pending.fire(worker, t + cfg.quantum);
                }
                let Some(run) = workers[worker].running else {
                    continue; // idle worker: timer masked/parked
                };
                if t <= run.progress_from {
                    continue; // still inside an overhead window
                }
                rec.instant(t, worker as u32, "timer_fire");
                let executed = t - run.progress_from;
                let ran_long_enough = t.saturating_sub(run.started_at) >= cfg.quantum;
                let should_switch = ran_long_enough && !queue.is_empty();
                // (stealing makes any queued thread reachable from here)
                let tid = run.tid;
                if should_switch {
                    // Preempt: charge delivery + scheduler + uthread
                    // switch, requeue at the tail, run the next thread.
                    let cost = cfg.mechanism.preemption_cost(&hw, &os);
                    preemptions += 1;
                    threads[tid].run_for(executed);
                    threads[tid].preemptions += 1;
                    workers[worker].busy += executed + cost;
                    workers[worker].epoch += 1;
                    workers[worker].running = None;
                    queue.push(worker, tid);
                    if rec.enabled() {
                        rec.record(Event::end(t, worker as u32, "run").with_arg("tid", tid as u64));
                        rec.record(
                            Event::instant(t, worker as u32, "preempt")
                                .with_arg("tid", tid as u64)
                                .with_arg("cost", cost),
                        );
                    }
                    dispatch_at(
                        worker,
                        t + cost,
                        &mut workers,
                        &mut queue,
                        &mut pending,
                        &threads,
                        rec,
                    );
                } else {
                    // Fire without a switch: the handler runs, decides to
                    // resume the same thread; only the delivery +
                    // scheduler check are charged.
                    let cost = cfg.mechanism.fire_only_cost(&hw, &os);
                    fires_without_switch += 1;
                    threads[tid].run_for(executed);
                    workers[worker].busy += executed + cost;
                    workers[worker].epoch += 1;
                    let remaining = threads[tid].remaining;
                    let epoch = workers[worker].epoch;
                    workers[worker].running = Some(Running {
                        tid,
                        progress_from: t + cost,
                        started_at: run.started_at,
                    });
                    pending.seg_end(worker, t + cost + remaining, epoch);
                }
            }
        }
    }
    let last_time = last_time.max(pending.superseded);

    let unfinished = queue.total_len() as u64
        + workers.iter().filter(|w| w.running.is_some()).count() as u64;
    let total_busy: u64 = workers.iter().map(|w| w.busy).sum();
    let span = last_time.max(1) * cfg.workers as u64;
    let completed = completed_gets + completed_scans;
    let achieved_rps = completed as f64 / (last_time.max(1) as f64 / 2e9);
    // Stability heuristic: nearly everything offered got served.
    let stable = unfinished <= 2 + completed / 500;

    ServerReport {
        get_latency: get_latency.summary(),
        scan_latency: scan_latency.summary(),
        completed_gets,
        completed_scans,
        unfinished,
        preemptions,
        fires_without_switch,
        steals: queue.steals,
        busy_fraction: (total_busy as f64 / span as f64).min(1.0),
        achieved_rps,
        stable,
        timer_faults,
        degraded_to_polling: guard.as_ref().is_some_and(DegradeGuard::degraded),
    }
}

fn dispatch_at<R: Recorder>(
    worker: usize,
    t: u64,
    workers: &mut [Worker],
    queue: &mut StealQueues<usize>,
    pending: &mut Pending,
    threads: &[Uthread],
    rec: &mut R,
) {
    // FIFO from the worker's own queue for fairness; steal the oldest
    // work from the most loaded peer when idle.
    let steals_before = queue.steals;
    let Some(tid) = queue.pop_fifo_or_steal(worker) else {
        rec.instant(t, worker as u32, "park");
        return;
    };
    if rec.enabled() {
        if queue.steals > steals_before {
            rec.instant(t, worker as u32, "steal");
        }
        rec.record(Event::begin(t, worker as u32, "run").with_arg("tid", tid as u64));
    }
    workers[worker].epoch += 1;
    let epoch = workers[worker].epoch;
    workers[worker].running = Some(Running {
        tid,
        progress_from: t,
        started_at: t,
    });
    let remaining = threads[tid].remaining;
    pending.seg_end(worker, t + remaining, epoch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mechanism: PreemptMechanism, rps: f64) -> ServerReport {
        let mut cfg = ServerConfig::paper(mechanism, rps);
        cfg.duration = 120_000_000; // 60 ms
        run_server(&cfg)
    }

    #[test]
    fn low_load_everything_completes() {
        let r = quick(PreemptMechanism::None, 20_000.0);
        assert!(r.stable);
        assert!(r.completed_gets > 500);
        assert!(r.get_latency.p50 >= 2_400, "at least the service time");
    }

    #[test]
    fn no_preemption_suffers_head_of_line_blocking() {
        // Even at low load, GETs stuck behind a 580 µs SCAN see huge
        // tails (paper: "hundreds of microseconds, even under very low
        // load").
        let none = quick(PreemptMechanism::None, 50_000.0);
        let xui = quick(PreemptMechanism::XuiKbTimer, 50_000.0);
        assert!(
            none.get_latency.p999 > 200_000,
            "no-preempt GET p999 should exceed 100 µs: {}",
            none.get_latency.p999
        );
        assert!(
            xui.get_latency.p999 < none.get_latency.p999 / 4,
            "preemption mitigates HoL blocking: {} vs {}",
            xui.get_latency.p999,
            none.get_latency.p999
        );
        assert!(xui.preemptions > 0);
    }

    #[test]
    fn xui_has_lower_overhead_than_uipi() {
        // Same load, same quantum: xUI charges less per fire, so the
        // worker is less busy.
        let uipi = quick(PreemptMechanism::UipiSwTimer, 100_000.0);
        let xui = quick(PreemptMechanism::XuiKbTimer, 100_000.0);
        assert!(uipi.stable && xui.stable);
        assert!(
            xui.busy_fraction < uipi.busy_fraction,
            "xUI {} < UIPI {}",
            xui.busy_fraction,
            uipi.busy_fraction
        );
    }

    #[test]
    fn overload_is_reported_unstable() {
        // Saturation is ≈245 k rps; 400 k cannot keep up.
        let r = quick(PreemptMechanism::XuiKbTimer, 400_000.0);
        assert!(!r.stable);
        assert!(r.unfinished > 0);
    }

    #[test]
    fn scans_are_preempted_many_times() {
        let r = quick(PreemptMechanism::XuiKbTimer, 120_000.0);
        assert!(r.completed_scans > 0);
        // A 580 µs scan at a 5 µs quantum with queued GETs gets sliced.
        assert!(
            r.preemptions >= r.completed_scans * 10,
            "preemptions={} scans={}",
            r.preemptions,
            r.completed_scans
        );
    }

    #[test]
    fn traced_run_is_result_identical_and_balanced() {
        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 80_000.0);
        cfg.duration = 20_000_000; // 10 ms
        let untraced = run_server(&cfg);
        let mut rec = xui_telemetry::RingRecorder::new(1 << 20);
        let traced = run_server_with(&cfg, None, &mut rec);
        assert_eq!(traced.completed_gets, untraced.completed_gets);
        assert_eq!(traced.preemptions, untraced.preemptions);
        assert_eq!(traced.get_latency.p999, untraced.get_latency.p999);

        let events = rec.events();
        assert_eq!(rec.dropped(), 0, "ring must hold the whole short run");
        let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
        assert_eq!(
            count("arrival"),
            untraced.completed_gets + untraced.completed_scans + untraced.unfinished
        );
        assert_eq!(count("preempt"), untraced.preemptions);
        assert!(count("run") >= 2, "begin+end run spans present");
        // Export balances (auto-closing any span still open at horizon).
        let doc = xui_telemetry::chrome::trace_json(&events);
        let check = xui_telemetry::chrome::validate(&doc).expect("valid server trace");
        assert!(check.span_pairs > 0);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let a = quick(PreemptMechanism::XuiKbTimer, 80_000.0);
        let b = quick(PreemptMechanism::XuiKbTimer, 80_000.0);
        assert_eq!(a.completed_gets, b.completed_gets);
        assert_eq!(a.get_latency.p999, b.get_latency.p999);
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn two_workers_halve_the_load_per_worker() {
        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 150_000.0);
        cfg.duration = 120_000_000;
        let one = run_server(&cfg);
        cfg.workers = 2;
        let two = run_server(&cfg);
        assert!(two.busy_fraction < one.busy_fraction);
        assert!(two.stable);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn faulted(cfg: &ServerConfig, plan: &FaultPlan) -> ServerReport {
        run_server_with(cfg, Some(plan), &mut NullRecorder)
    }

    fn cfg(rps: f64) -> ServerConfig {
        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, rps);
        cfg.duration = 60_000_000; // 30 ms
        cfg
    }

    #[test]
    fn empty_plan_is_result_identical_to_unfaulted() {
        let cfg = cfg(80_000.0);
        let clean = run_server(&cfg);
        let faulted = faulted(&cfg, &FaultPlan::named("empty"));
        assert_eq!(faulted.completed_gets, clean.completed_gets);
        assert_eq!(faulted.preemptions, clean.preemptions);
        assert_eq!(faulted.get_latency.p999, clean.get_latency.p999);
        assert_eq!(faulted.timer_faults, 0);
        assert!(!faulted.degraded_to_polling);
    }

    #[test]
    fn dropped_fires_hurt_tails_but_do_not_panic() {
        let cfg = cfg(100_000.0);
        let clean = run_server(&cfg);
        // Drop two of every three timer fires; threshold never trips.
        let plan = FaultPlan::named("drop-fires").drop_every(3, 1).drop_every(3, 2);
        let r = faulted(&cfg, &plan);
        assert!(r.timer_faults > 100, "faults counted: {}", r.timer_faults);
        assert!(!r.degraded_to_polling, "threshold u32::MAX never trips");
        assert!(
            r.preemptions < clean.preemptions,
            "lost fires preempt less: {} vs {}",
            r.preemptions,
            clean.preemptions
        );
        assert!(r.completed_gets > 0, "run stays live");
    }

    #[test]
    fn persistent_faults_degrade_to_polling_and_stay_live() {
        let cfg = cfg(100_000.0);
        // Every fire faults: without fallback there would be no
        // preemption at all. The guard trips after 8 consecutive faults
        // and safepoint polling restores the quantum cadence.
        let plan = FaultPlan::named("dead-timer").drop_every(1, 1).degrade_after(8);
        let r = faulted(&cfg, &plan);
        assert!(r.degraded_to_polling, "guard must trip");
        assert_eq!(r.timer_faults, 8, "exactly the streak before the trip");
        assert!(r.preemptions > 100, "polling fallback still preempts");
        assert!(r.stable, "fallback keeps the server ahead of load");
    }

    #[test]
    fn stalled_timer_slips_fires_deterministically() {
        let cfg = cfg(80_000.0);
        let plan = FaultPlan::named("stall").stall_timer(5_000_000, 15_000_000);
        let a = faulted(&cfg, &plan);
        let b = faulted(&cfg, &plan);
        assert!(a.timer_faults > 0, "in-window fires stall");
        assert_eq!(a.timer_faults, b.timer_faults);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.get_latency.p999, b.get_latency.p999);
    }

    #[test]
    fn faulted_trace_records_fault_instants() {
        let mut c = cfg(80_000.0);
        c.duration = 10_000_000;
        let plan = FaultPlan::named("dead-timer").drop_every(1, 1).degrade_after(4);
        let mut rec = xui_telemetry::RingRecorder::new(1 << 20);
        let r = run_server_with(&c, Some(&plan), &mut rec);
        let events = rec.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
        assert_eq!(count("timer_fault"), r.timer_faults);
        assert_eq!(count("degrade_to_polling"), 1);
    }
}

#[cfg(test)]
mod stealing_tests {
    use super::*;

    #[test]
    fn multi_worker_steals_balance_load() {
        // Two workers, all arrivals land round-robin; stealing keeps both
        // busy even when one queue empties first.
        let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 300_000.0);
        cfg.workers = 2;
        cfg.duration = 120_000_000;
        let r = run_server(&cfg);
        assert!(r.stable, "two workers absorb 300k rps");
        assert!(r.steals > 0, "idle workers steal queued requests");
        assert!(r.completed_gets > 10_000);
    }

    #[test]
    fn stealing_preserves_tail_latency_benefits() {
        let mut one = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 200_000.0);
        one.duration = 120_000_000;
        let mut two = one.clone();
        two.workers = 2;
        let r1 = run_server(&one);
        let r2 = run_server(&two);
        assert!(
            r2.get_latency.p999 <= r1.get_latency.p999,
            "a second worker cannot hurt tails: {} vs {}",
            r2.get_latency.p999,
            r1.get_latency.p999
        );
    }
}
