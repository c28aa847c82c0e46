//! DES capacity benchmark: how fast does each queue implementation
//! drain a hold-model workload at very large pending counts?
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
//! `now` must agree between queue kinds; the binary asserts this.
//!
//! Results land in the `des_capacity` section of
//! `results/BENCH_sweep.json` via [`xui_bench::record_des_capacity`].
//! `--min-speedup` turns the tiered-vs-heap ratio into an exit code for
//! CI; `--budget-ms` bounds total wall-clock the same way.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_bench::{CapacityRow, CliSpec, Table};
use xui_des::{Engine, QueueKind};

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

/// Runs one (queue kind, pending count) point and returns the row plus
/// the final virtual time (for the cross-kind identity check).
fn run_point(kind: QueueKind, pending: u64, events: u64, seed: u64) -> (CapacityRow, u64) {
    let mut engine: Engine<Hold> = Engine::with_queue(kind);
    let mut state = Hold { rng: StdRng::seed_from_u64(seed), remaining: events };

    // Pre-load: N independent exponential offsets from t=0. Drawn from
    // the same seeded stream as the drain, so both kinds replay the
    // identical schedule.
    let t = Instant::now();
    for _ in 0..pending {
        let at = exp_gap(&mut state.rng);
        engine.schedule_at(at, tick);
    }
    let load_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    while engine.step(&mut state) {}
    let run_ms = t.elapsed().as_secs_f64() * 1e3;

    assert_eq!(engine.executed(), pending + events, "hold model lost events");
    let row = CapacityRow {
        queue: match kind {
            QueueKind::Heap => "heap".to_string(),
            QueueKind::Tiered => "tiered".to_string(),
        },
        pending,
        executed: engine.executed(),
        load_ms,
        run_ms,
        events_per_sec: engine.executed() as f64 / (run_ms / 1e3),
        final_tier: engine.queue_tier().to_string(),
        speedup_vs_heap: 1.0,
    };
    (row, engine.now())
}

fn main() {
    let parsed = CliSpec::bench(
        "des_capacity",
        "Hold-model DES queue capacity benchmark: heap vs tiered calendar at large pending counts",
    )
    .option("--pending", "N[,N..]", "pending-set sizes to sweep (default 100000,1000000,10000000)")
    .option("--events", "N", "events to execute in the timed drain (default 2000000)")
    .option("--seed", "N", "workload seed (default 42)")
    .option("--budget-ms", "MS", "fail if total wall-clock exceeds this budget")
    .option("--min-speedup", "X", "fail unless tiered >= X * heap at the largest pending count")
    .parse_or_exit();

    let pending_list: Vec<u64> = parsed
        .opt("--pending")
        .unwrap_or("100000,1000000,10000000")
        .split(',')
        .map(|s| s.trim().parse().unwrap_or_else(|_| {
            eprintln!("des_capacity: bad --pending entry `{s}`");
            std::process::exit(2);
        }))
        .collect();
    let u64_opt = |name: &str| {
        parsed.opt_u64(name).unwrap_or_else(|e| {
            eprintln!("des_capacity: {e}");
            std::process::exit(2);
        })
    };
    let events = u64_opt("--events").unwrap_or(2_000_000);
    let seed = u64_opt("--seed").unwrap_or(42);
    let budget_ms = u64_opt("--budget-ms");
    let min_speedup: Option<f64> = parsed.opt("--min-speedup").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("des_capacity: bad --min-speedup `{s}`");
            std::process::exit(2);
        })
    });

    println!(
        "== DES capacity: hold model, {events} drained events per point, seed {seed} ==\n"
    );

    let wall = Instant::now();
    let mut rows: Vec<CapacityRow> = Vec::new();
    let mut last_speedup = 0.0;
    for &pending in &pending_list {
        let (heap, heap_now) = run_point(QueueKind::Heap, pending, events, seed);
        let (mut tiered, tiered_now) = run_point(QueueKind::Tiered, pending, events, seed);
        assert_eq!(
            (heap.executed, heap_now),
            (tiered.executed, tiered_now),
            "queue kinds diverged at pending={pending}"
        );
        tiered.speedup_vs_heap = tiered.events_per_sec / heap.events_per_sec;
        last_speedup = tiered.speedup_vs_heap;
        rows.push(heap);
        rows.push(tiered);
    }
    let total_ms = wall.elapsed().as_secs_f64() * 1e3;

    let mut table = Table::new(vec![
        "queue", "pending", "load ms", "drain ms", "events/sec", "tier", "vs heap",
    ]);
    for r in &rows {
        table.row(vec![
            r.queue.clone(),
            r.pending.to_string(),
            format!("{:.1}", r.load_ms),
            format!("{:.1}", r.run_ms),
            format!("{:.2}M", r.events_per_sec / 1e6),
            r.final_tier.clone(),
            format!("{:.2}x", r.speedup_vs_heap),
        ]);
    }
    table.print();
    println!("\n  total wall-clock: {total_ms:.0} ms");

    let mut failed = false;
    if let Err(e) = xui_bench::record_des_capacity(&rows) {
        eprintln!("des_capacity: FAIL — {e}");
        failed = true;
    }
    if let Some(budget) = budget_ms {
        if total_ms > budget as f64 {
            eprintln!("des_capacity: FAIL — {total_ms:.0} ms exceeds --budget-ms {budget}");
            failed = true;
        }
    }
    if let Some(min) = min_speedup {
        if last_speedup < min {
            eprintln!(
                "des_capacity: FAIL — tiered speedup {last_speedup:.2}x at pending={} \
                 is below --min-speedup {min}",
                pending_list.last().copied().unwrap_or(0)
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
