//! DES capacity gate: how fast does each queue implementation drain a
//! hold-model workload at one million pending events?
//!
//! The classic *hold model* keeps the pending set at a constant size N:
//! the queue is pre-loaded with N events whose times are exponentially
//! spread, and every executed event schedules exactly one successor an
//! exponential gap ahead. Throughput is then a pure measure of queue
//! push+pop cost at depth N — the regime where the `BinaryHeap`'s
//! O(log N) cache-missing sift dominates and the calendar tier's O(1)
//! bucket operations pay off.
//!
//! Both engines run the identical deterministic schedule (same seed →
//! same draws → same (time, seq) order), so `executed` and the final
//! `now` must agree between queue kinds. The gate then asks the tiered
//! queue for at least 2× the heap's events/s, within 120 s of wall time.
//!
//! It is wall-clock bound, so it is ignored by default and runs in
//! release: `cargo test --release -p xui-des --test capacity -- --ignored --nocapture`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_des::{Engine, QueueKind};

/// Pending-set size held constant through the drain.
const PENDING: u64 = 1_000_000;
/// Events executed in the timed drain.
const EVENTS: u64 = 1_000_000;
/// Workload seed.
const SEED: u64 = 42;
/// The tiered queue must drain at least this many times faster.
const MIN_SPEEDUP: f64 = 2.0;
/// Wall-clock budget for both queue kinds together.
const BUDGET: Duration = Duration::from_secs(120);

/// Mean inter-event gap in ticks. Any positive value works; 1000 keeps
/// the pending set spread over ~`ln(N) * 1000` ticks so calendar
/// buckets stay well-populated without degenerating to one bucket.
const MEAN_GAP: f64 = 1_000.0;

struct Hold {
    rng: StdRng,
    /// Events still to execute in the timed drain; each fired event
    /// decrements this and reschedules itself while it is non-zero, so
    /// the pending count stays constant at N throughout.
    remaining: u64,
}

fn exp_gap(rng: &mut StdRng) -> u64 {
    // Inverse-CDF exponential; clamp away u=0 and round up so the
    // successor always lands strictly in the future.
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (-u.ln() * MEAN_GAP).ceil().max(1.0) as u64
}

fn tick(state: &mut Hold, engine: &mut Engine<Hold>) {
    if state.remaining == 0 {
        return;
    }
    state.remaining -= 1;
    let gap = exp_gap(&mut state.rng);
    engine.schedule_in(gap, tick);
}

/// What one queue kind did with the hold workload.
struct Drain {
    executed: u64,
    now: u64,
    events_per_sec: f64,
}

fn drain(kind: QueueKind) -> Drain {
    let mut engine: Engine<Hold> = Engine::with_queue(kind);
    let mut state = Hold { rng: StdRng::seed_from_u64(SEED), remaining: EVENTS };

    // Pre-load: N independent exponential offsets from t=0. Drawn from
    // the same seeded stream as the drain, so both kinds replay the
    // identical schedule.
    let t = Instant::now();
    for _ in 0..PENDING {
        let at = exp_gap(&mut state.rng);
        engine.schedule_at(at, tick);
    }
    let load = t.elapsed();

    let t = Instant::now();
    while engine.step(&mut state) {}
    let run = t.elapsed();

    let events_per_sec = engine.executed() as f64 / run.as_secs_f64();
    println!(
        "  {kind:?}: load {:.1} ms, drain {:.1} ms, {:.2}M events/s, final tier {}",
        load.as_secs_f64() * 1e3,
        run.as_secs_f64() * 1e3,
        events_per_sec / 1e6,
        engine.queue_tier(),
    );
    Drain { executed: engine.executed(), now: engine.now(), events_per_sec }
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn tiered_queue_drains_a_million_pending_at_least_twice_as_fast_as_the_heap() {
    println!("DES capacity: hold model, {PENDING} pending, {EVENTS} drained events, seed {SEED}");
    let wall = Instant::now();
    let heap = drain(QueueKind::Heap);
    let tiered = drain(QueueKind::Tiered);
    let elapsed = wall.elapsed();

    assert_eq!(heap.executed, PENDING + EVENTS, "hold model lost events");
    assert_eq!(
        (heap.executed, heap.now),
        (tiered.executed, tiered.now),
        "queue kinds diverged at pending={PENDING}"
    );
    let speedup = tiered.events_per_sec / heap.events_per_sec;
    println!("  tiered vs heap: {speedup:.2}x, total wall-clock {:.0} ms", elapsed.as_secs_f64() * 1e3);
    assert!(
        speedup >= MIN_SPEEDUP,
        "tiered speedup {speedup:.2}x at pending={PENDING} is below {MIN_SPEEDUP}x"
    );
    assert!(elapsed <= BUDGET, "{elapsed:?} exceeds the {BUDGET:?} budget");
}
