//! Properties behind the serve layer's two telemetry guarantees.
//!
//! 1. **Sharded metrics are order-free**: a [`Registry`] filled by
//!    worker threads writing their shards back in completion order
//!    snapshots identically to the same shards built serially —
//!    aggregation depends only on shard *index*, never on timing.
//! 2. **Broadcasting is a pure tee**: wrapping a recorder in a
//!    [`BroadcastRecorder`] — with any mix of fast, slow, and
//!    abandoned subscribers — leaves the recorded event stream
//!    identical, and every published item is accounted for as either
//!    delivered or dropped on each subscriber.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use xui_telemetry::recorder::{Recorder, RingRecorder};
use xui_telemetry::{BroadcastHub, BroadcastRecorder, Event, MetricsShard, Registry};

const SHARDS: usize = 4;
const NAMES: [&str; 4] = ["latency", "queue_depth", "drops", "work_items"];

/// One metrics operation: which shard, which instrument, which name,
/// what value.
type Op = (u8, u8, u8, u64);

fn apply(shard: &mut MetricsShard, &(_, kind, name_idx, value): &Op) {
    let name = NAMES[usize::from(name_idx) % NAMES.len()];
    match kind % 3 {
        0 => shard.inc(name, value),
        1 => shard.gauge(name, value as i64 - 500),
        _ => shard.observe(name, value),
    }
}

proptest! {
    /// Threads building shards concurrently and storing them by index
    /// yield the same registry snapshot as a serial pass over the same
    /// operations.
    #[test]
    fn parallel_shard_merge_matches_serial(
        ops in proptest::collection::vec(
            (0u8..SHARDS as u8, 0u8..3, 0u8..4, 0u64..1_000),
            1..160,
        )
    ) {
        // Serial reference: apply each shard's operations in order.
        let mut serial = Registry::new();
        for s in 0..SHARDS {
            let mut shard = MetricsShard::new();
            for op in ops.iter().filter(|op| usize::from(op.0) == s) {
                apply(&mut shard, op);
            }
            serial.push_shard(shard);
        }

        // Parallel: one thread per shard, written back whenever each
        // thread happens to finish.
        let registry = Arc::new(Mutex::new(Registry::new()));
        for _ in 0..SHARDS {
            registry.lock().unwrap().push_shard(MetricsShard::new());
        }
        let handles: Vec<_> = (0..SHARDS)
            .map(|s| {
                let my_ops: Vec<Op> =
                    ops.iter().filter(|op| usize::from(op.0) == s).copied().collect();
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let mut shard = MetricsShard::new();
                    for op in &my_ops {
                        apply(&mut shard, op);
                    }
                    registry.lock().unwrap().set_shard(s, shard);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shard thread");
        }

        let parallel = registry.lock().unwrap().snapshot();
        prop_assert_eq!(parallel, serial.snapshot());
    }

    /// Tee invariant: the broadcast wrapper never changes what the
    /// inner recorder writes, no matter how slow or absent the
    /// subscribers are — and per-subscriber accounting covers every
    /// published event exactly once.
    #[test]
    fn broadcast_tee_keeps_recorded_bytes_identical(
        events in proptest::collection::vec(
            (0u64..1_000_000, 0u32..8, 0u8..4, 0u64..100),
            1..120,
        ),
        slow_cap in 1usize..4,
    ) {
        let build = |(ts, actor, name_idx, arg): (u64, u32, u8, u64)| {
            Event::instant(ts, actor, NAMES[usize::from(name_idx) % NAMES.len()])
                .with_arg("v", arg)
        };

        // Reference: the bare recorder.
        let mut plain = RingRecorder::new(events.len());
        for &e in &events {
            plain.record(build(e));
        }

        // Teed: same events through a hub with one roomy subscriber,
        // one tiny one (guaranteed to overflow), and one dropped
        // before publishing starts (pruned mid-stream).
        let hub = BroadcastHub::new();
        let fast = hub.subscribe(events.len() + 1);
        let slow = hub.subscribe(slow_cap);
        drop(hub.subscribe(8));
        let mut teed = BroadcastRecorder::new(RingRecorder::new(events.len()), hub);
        for &e in &events {
            teed.record(build(e));
        }

        prop_assert_eq!(teed.inner().events(), plain.events());

        let total = events.len() as u64;
        for sub in [&fast, &slow] {
            prop_assert_eq!(sub.delivered_events() + sub.dropped_events(), total);
        }
        prop_assert_eq!(fast.dropped_events(), 0);
        prop_assert_eq!(
            slow.dropped_events(),
            total.saturating_sub(slow_cap as u64),
            "undrained tiny queue keeps exactly `cap` items"
        );
    }
}
