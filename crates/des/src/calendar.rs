//! The tiered event queue behind [`Engine`](crate::engine::Engine): a
//! calendar wheel with an overflow ladder for bulk pending events, a
//! plain binary heap below the activation threshold, and a sticky heap
//! fallback for pathological time distributions.
//!
//! # Why a total order makes the tiers invisible
//!
//! Every stored key is ordered by `(time, seq)` and `seq` is unique per
//! scheduled event, so the pop order is a *total* order — no two keys
//! ever compare equal. Whatever internal structure holds the keys, the
//! sequence of `pop` results is therefore identical to the old
//! single-`BinaryHeap` engine, byte for byte. The tiers only change
//! *how much work* ordering costs, never *what order* comes out.
//!
//! # Structure
//!
//! - **Heap tier** (`Mode::Heap`): the original `BinaryHeap<Reverse<_>>`.
//!   Queues stay here until they hold more than `activation` keys
//!   (default [`DEFAULT_ACTIVATION`]), so every small simulation runs on
//!   exactly the code path it always did.
//! - **Calendar tier** (`Mode::Calendar`): a wheel of unsorted buckets
//!   whose width is derived from the observed span of pending event
//!   times (span / bucket-count, i.e. the mean inter-event gap times the
//!   target occupancy). Enqueue is O(1): index the bucket, push. Dequeue
//!   sorts one bucket at a time on activation — O(1) amortized per event
//!   for the workloads the engine targets (timer churn with exponential
//!   gaps). Events beyond the wheel's end land in an unsorted *overflow
//!   ladder*; when the wheel drains, a new wheel is rebuilt from the
//!   overflow with freshly observed span/width. Far-future timers
//!   therefore sit untouched in the overflow until their epoch arrives —
//!   they are never scanned per pop.
//! - **Degraded heap** (`Mode::Heap` with `degraded` set): keys that
//!   land *before* the active bucket must be spliced into the sorted
//!   run the wheel is currently draining. A distribution that keeps
//!   doing this (e.g. adversarially front-loaded schedules) would turn
//!   the calendar into an O(n) insertion sort, so the queue counts
//!   spliced element moves *per active run* (the counter resets on each
//!   bucket activation) and permanently falls back to the heap when one
//!   run absorbs more than `DEFAULT_DEGRADE_MOVES` (2^22). Degrading moves
//!   every key once and changes nothing about pop order.
//!
//! Tombstones (keys whose slab generation no longer matches — cancelled
//! events) flow through the tiers like live keys and are discarded by the
//! engine when they surface, exactly as with the old heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::SimTime;

/// Queue ordering key: `Copy`, 24 bytes, ordered by (time, seq). `seq`
/// is unique per scheduled event, so slot/gen never influence ordering;
/// they only locate the slab entry when the key surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct QueueKey {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// Which queue implementation an [`Engine`](crate::engine::Engine)
/// orders its pending events with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// A single binary heap, unconditionally — the pre-calendar engine.
    /// O(log n) per operation at every size; useful as the baseline in
    /// capacity benchmarks.
    Heap,
    /// Tiered (the default): heap below the activation threshold,
    /// calendar wheel + overflow ladder above it, sticky heap fallback
    /// when the time distribution defeats the calendar.
    #[default]
    Tiered,
}

/// Keys stored (live + tombstones) before a `Tiered` queue leaves the
/// heap tier. Small simulations never pay calendar bookkeeping.
pub const DEFAULT_ACTIVATION: usize = 4096;

/// Cumulative spliced element moves (inserts landing before the active
/// bucket's sorted run) tolerated per active run before the queue
/// permanently degrades to the heap.
const DEFAULT_DEGRADE_MOVES: u64 = 1 << 22;

/// Population growth tolerated before the wheel is rebuilt with fresh
/// geometry. A wheel sized from K keys and then filled with `4K` more
/// has buckets (and therefore sort-on-activation runs) 4× the target;
/// beyond that the run length makes splices quadratic, so we pay one
/// O(n) redistribution — amortized O(1) per push across doublings.
const GROW_REBUILD_FACTOR: usize = 4;

/// Target mean bucket occupancy when (re)building a wheel.
const TARGET_PER_BUCKET: usize = 4;

/// Wheel size bounds: enough buckets to spread load, few enough that
/// scanning empty buckets stays cheap relative to the events they held.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

enum Mode {
    Heap(BinaryHeap<Reverse<QueueKey>>),
    Calendar(Calendar),
}

/// One wheel epoch: a sorted run being drained (`current[cur..]`), the
/// unsorted buckets ahead of it, and the overflow ladder beyond the
/// wheel's end.
struct Calendar {
    /// The activated bucket, sorted ascending by (time, seq); consumed
    /// from index `cur` (the prefix is dead, reclaimed on exhaustion).
    current: Vec<QueueKey>,
    cur: usize,
    /// Unsorted future buckets; `cursor` is the next one to activate.
    buckets: Vec<Vec<QueueKey>>,
    cursor: usize,
    /// Wheel geometry: bucket `i` covers
    /// `[wheel_start + i*width, wheel_start + (i+1)*width)`.
    wheel_start: SimTime,
    width: SimTime,
    /// Keys at or beyond the wheel's end, unsorted; the source of the
    /// next wheel epoch.
    overflow: Vec<QueueKey>,
    /// Elements shifted by splices into the *current* run (the
    /// pathology signal). Reset on every bucket activation: a healthy
    /// workload splices a bounded amount per run, while a pathological
    /// one (every push landing inside a long-lived run) accumulates
    /// past [`DEFAULT_DEGRADE_MOVES`] before the run drains. A
    /// cumulative counter would instead trip on any sufficiently long
    /// healthy run — e.g. the hold-model capacity benchmark splices on
    /// ~1% of pushes and would cross any fixed total eventually.
    splice_moves: u64,
    /// Keys present when this wheel's geometry was chosen. Once the
    /// population exceeds [`GROW_REBUILD_FACTOR`] times this, the
    /// buckets are too coarse and the wheel is rebuilt.
    built_keys: usize,
}

impl Calendar {
    /// First time *not* covered by `current`: keys below this must be
    /// spliced into the sorted run; keys at/above it index a bucket or
    /// the overflow. u128 because `wheel_start + cursor * width` can
    /// exceed `u64::MAX` (schedules saturate at `u64::MAX`).
    fn current_horizon(&self) -> u128 {
        u128::from(self.wheel_start) + u128::from(self.width) * self.cursor as u128
    }

    /// First time beyond the wheel (start of the overflow ladder).
    fn wheel_end(&self) -> u128 {
        u128::from(self.wheel_start) + u128::from(self.width) * self.buckets.len() as u128
    }
}

/// The tiered queue. See the module docs for the design; the engine
/// only ever calls `push` / `pop` / `peek`, so the tier in use is an
/// implementation detail with observable cost but identical output.
pub(crate) struct TieredQueue {
    kind: QueueKind,
    mode: Mode,
    /// Stored keys, live and tombstone alike (activation threshold input).
    len: usize,
    activation: usize,
    degrade_moves: u64,
    /// Sticky: a pathological distribution sent us back to the heap.
    degraded: bool,
    /// Cumulative maintenance work in key touches: pushes, per-key sort
    /// and rebuild moves, bucket-activation scans. Exposed through
    /// `Engine::queue_work` so tests can assert e.g. that a far-future
    /// overflow event is not re-scanned per pop.
    work: u64,
}

impl TieredQueue {
    pub(crate) fn new(kind: QueueKind) -> Self {
        Self {
            kind,
            mode: Mode::Heap(BinaryHeap::new()),
            len: 0,
            activation: DEFAULT_ACTIVATION,
            degrade_moves: DEFAULT_DEGRADE_MOVES,
            degraded: false,
            work: 0,
        }
    }

    /// Keys held, including tombstones (used by tests; the engine
    /// tracks live events itself).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    pub(crate) fn kind(&self) -> QueueKind {
        self.kind
    }

    /// The tier currently ordering keys: `"heap"` or `"calendar"`.
    pub(crate) fn tier(&self) -> &'static str {
        match self.mode {
            Mode::Heap(_) => "heap",
            Mode::Calendar(_) => "calendar",
        }
    }

    /// Overrides the heap→calendar activation threshold (tests and
    /// benchmarks; 0 activates the calendar on the first push).
    pub(crate) fn set_activation(&mut self, keys: usize) {
        self.activation = keys;
    }

    pub(crate) fn push(&mut self, key: QueueKey) {
        self.len += 1;
        self.work += 1;
        let mut pathological = false;
        match &mut self.mode {
            Mode::Heap(heap) => heap.push(Reverse(key)),
            Mode::Calendar(cal) => {
                let t = u128::from(key.time);
                if t < cal.current_horizon() {
                    // Landed inside the run being drained: splice it in
                    // after the consumed prefix, keeping (time, seq) order.
                    let pos = cal.cur
                        + cal.current[cal.cur..]
                            .partition_point(|k| (k.time, k.seq) < (key.time, key.seq));
                    let moved = (cal.current.len() - pos) as u64;
                    cal.current.insert(pos, key);
                    cal.splice_moves += moved;
                    self.work += moved;
                    pathological = cal.splice_moves > self.degrade_moves;
                } else if t < cal.wheel_end() {
                    let idx = (((key.time - cal.wheel_start) / cal.width) as usize)
                        .min(cal.buckets.len() - 1);
                    cal.buckets[idx].push(key);
                } else {
                    cal.overflow.push(key);
                }
            }
        }
        if pathological {
            self.degrade_to_heap();
        } else if !self.degraded && self.kind == QueueKind::Tiered {
            let (len, activation) = (self.len, self.activation);
            match &mut self.mode {
                Mode::Heap(heap) if len > activation => {
                    let keys: Vec<QueueKey> =
                        std::mem::take(heap).into_iter().map(|Reverse(k)| k).collect();
                    self.rebuild_calendar(keys);
                }
                // The population outgrew the wheel's geometry: buckets
                // sized for `built_keys` now hold `GROW_REBUILD_FACTOR`×
                // the target run length, so redistribute over a fresh
                // span/width before sort-on-activation turns quadratic.
                Mode::Calendar(cal)
                    if len > cal.built_keys.saturating_mul(GROW_REBUILD_FACTOR) =>
                {
                    let keys = collect_keys(cal, len);
                    self.rebuild_calendar(keys);
                }
                _ => {}
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<QueueKey> {
        if matches!(self.mode, Mode::Calendar(_)) {
            self.advance();
        }
        let key = match &mut self.mode {
            Mode::Heap(heap) => heap.pop().map(|Reverse(k)| k),
            Mode::Calendar(cal) => {
                cal.current.get(cal.cur).copied().inspect(|_| cal.cur += 1)
            }
        };
        if key.is_some() {
            self.len -= 1;
        }
        key
    }

    pub(crate) fn peek(&mut self) -> Option<QueueKey> {
        if matches!(self.mode, Mode::Calendar(_)) {
            self.advance();
        }
        match &mut self.mode {
            Mode::Heap(heap) => heap.peek().map(|&Reverse(k)| k),
            Mode::Calendar(cal) => cal.current.get(cal.cur).copied(),
        }
    }

    /// Ensures `current[cur]` is the minimum stored key (calendar mode):
    /// activates the next non-empty bucket, rebuilding the wheel from
    /// the overflow ladder when the wheel drains.
    fn advance(&mut self) {
        loop {
            let Mode::Calendar(cal) = &mut self.mode else { return };
            if cal.cur < cal.current.len() {
                return;
            }
            cal.current.clear();
            cal.cur = 0;
            while cal.cursor < cal.buckets.len() {
                self.work += 1; // bucket-activation scan
                let bucket = &mut cal.buckets[cal.cursor];
                cal.cursor += 1;
                if bucket.is_empty() {
                    continue;
                }
                let mut run = std::mem::take(bucket);
                run.sort_unstable_by_key(|k| (k.time, k.seq));
                self.work += run.len() as u64;
                cal.current = run;
                cal.splice_moves = 0; // fresh run, fresh pathology budget
                return;
            }
            if cal.overflow.is_empty() {
                return; // queue empty; wheel stays exhausted until a rebuild
            }
            let keys = std::mem::take(&mut cal.overflow);
            self.rebuild_calendar(keys);
            // Loop to activate the first bucket of the new wheel.
        }
    }

    /// Builds a fresh wheel over `keys`, sizing buckets from the
    /// observed span: width ≈ span / bucket-count, i.e. the mean
    /// inter-event gap times [`TARGET_PER_BUCKET`].
    fn rebuild_calendar(&mut self, keys: Vec<QueueKey>) {
        debug_assert!(!keys.is_empty(), "rebuild over an empty key set");
        let min = keys.iter().map(|k| k.time).min().unwrap_or(0);
        let max = keys.iter().map(|k| k.time).max().unwrap_or(0);
        let nbuckets = (keys.len() / TARGET_PER_BUCKET)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let span = (max - min).saturating_add(1);
        let width = span.div_ceil(nbuckets as u64).max(1);
        let mut buckets = vec![Vec::new(); nbuckets];
        self.work += keys.len() as u64;
        let built_keys = keys.len();
        for key in keys {
            let idx = (((key.time - min) / width) as usize).min(nbuckets - 1);
            buckets[idx].push(key);
        }
        self.mode = Mode::Calendar(Calendar {
            current: Vec::new(),
            cur: 0,
            buckets,
            cursor: 0,
            wheel_start: min,
            width,
            overflow: Vec::new(),
            splice_moves: 0,
            built_keys,
        });
    }

    /// Permanent fallback: moves every stored key into a binary heap.
    /// The (time, seq) total order means pop order is unaffected.
    fn degrade_to_heap(&mut self) {
        let Mode::Calendar(cal) = &mut self.mode else { return };
        let keys: Vec<Reverse<QueueKey>> =
            collect_keys(cal, self.len).into_iter().map(Reverse).collect();
        self.work += keys.len() as u64;
        self.degraded = true;
        self.mode = Mode::Heap(BinaryHeap::from(keys));
    }
}

/// Drains every stored key out of a wheel (the live tail of `current`,
/// the unsorted buckets, the overflow ladder) for a rebuild or a
/// degrade. Order is irrelevant: both consumers re-establish it.
fn collect_keys(cal: &mut Calendar, len: usize) -> Vec<QueueKey> {
    let mut keys: Vec<QueueKey> = Vec::with_capacity(len);
    keys.extend(cal.current[cal.cur..].iter().copied());
    for bucket in &mut cal.buckets {
        keys.append(bucket);
    }
    keys.append(&mut cal.overflow);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(time: u64, seq: u64) -> QueueKey {
        QueueKey { time, seq, slot: seq as u32, gen: 0 }
    }

    /// Pops everything and checks it comes out sorted by (time, seq).
    fn drain_sorted(q: &mut TieredQueue) -> Vec<QueueKey> {
        let mut out = Vec::new();
        while let Some(k) = q.pop() {
            if let Some(prev) = out.last() {
                let (p, c): (&QueueKey, &QueueKey) = (prev, &k);
                assert!((p.time, p.seq) < (c.time, c.seq), "out of order: {p:?} then {c:?}");
            }
            out.push(k);
        }
        assert_eq!(q.len(), 0);
        assert!(q.peek().is_none());
        out
    }

    #[test]
    fn heap_kind_never_activates_calendar() {
        let mut q = TieredQueue::new(QueueKind::Heap);
        q.set_activation(0);
        for i in 0..100 {
            q.push(key(i * 7 % 50, i));
        }
        assert_eq!(q.tier(), "heap");
        assert_eq!(drain_sorted(&mut q).len(), 100);
    }

    #[test]
    fn tiered_upgrades_past_activation_and_orders_identically() {
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(32);
        let mut reference = BinaryHeap::new();
        // A multiplicative-hash scramble of times, plus same-time ties.
        for i in 0..1000u64 {
            let t = (i.wrapping_mul(2654435761) >> 8) % 10_000;
            q.push(key(t, i));
            reference.push(Reverse(key(t, i)));
        }
        assert_eq!(q.tier(), "calendar");
        let got = drain_sorted(&mut q);
        let mut want = Vec::new();
        while let Some(Reverse(k)) = reference.pop() {
            want.push(k);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop_crosses_wheel_epochs() {
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(0);
        let mut seq = 0u64;
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        // Hold model: every pop reschedules ahead, forcing overflow
        // rebuilds as the wheel drains.
        for i in 0..64u64 {
            q.push(key(i * 100, seq));
            seq += 1;
        }
        for _ in 0..10_000 {
            let k = q.pop().expect("queue holds 64 keys");
            assert!((k.time, k.seq) > last || popped == 0, "order violated");
            last = (k.time, k.seq);
            popped += 1;
            let ahead = 1 + (k.seq * 2654435761) % 6400;
            q.push(key(k.time + ahead, seq));
            seq += 1;
        }
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn far_future_overflow_key_is_not_rescanned_per_pop() {
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(0);
        let mut seq = 0u64;
        for i in 0..1024u64 {
            q.push(key(i, seq));
            seq += 1;
        }
        // One far-future timer, then drain the near keys.
        q.push(key(u64::MAX - 1, seq));
        let before = q.work();
        for _ in 0..1024 {
            q.pop();
        }
        let spent = q.work() - before;
        // Near keys cost O(1) amortized each; the overflow key must not
        // add a per-pop scan. Generous constant, but far below 1024 * n.
        assert!(spent < 1024 * 8, "drain cost {spent} key-touches");
        assert_eq!(q.pop().map(|k| k.time), Some(u64::MAX - 1));
    }

    #[test]
    fn saturated_far_future_times_do_not_overflow_geometry() {
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(0);
        q.push(key(u64::MAX, 0));
        q.push(key(0, 1));
        q.push(key(u64::MAX, 2));
        let order: Vec<(u64, u64)> = drain_sorted(&mut q).iter().map(|k| (k.time, k.seq)).collect();
        assert_eq!(order, vec![(0, 1), (u64::MAX, 0), (u64::MAX, 2)]);
    }

    #[test]
    fn population_growth_rebuilds_wheel_instead_of_degrading() {
        // The wheel's geometry is chosen from the first `activation`+1
        // keys. Pour in 100× more over the same span, then run a
        // hold-style pop/push interleave whose successors often land
        // inside the active run. Without the growth rebuild the runs
        // are ~100× the target length, splices shift thousands of keys
        // each, and the tight degrade budget below trips; with it the
        // wheel re-sizes as the population doubles and the calendar
        // survives.
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(64);
        q.degrade_moves = 1 << 14;
        let mut state = 7u64;
        let mut seq = 0u64;
        for _ in 0..6_400u64 {
            q.push(key(rand::splitmix64(&mut state) % 8192, seq));
            seq += 1;
        }
        assert_eq!(q.tier(), "calendar");
        for _ in 0..2_000 {
            let popped = q.pop().expect("queue holds keys");
            let gap = 1 + rand::splitmix64(&mut state) % 256;
            q.push(key(popped.time + gap, seq));
            seq += 1;
        }
        assert_eq!(q.tier(), "calendar", "healthy growth must not degrade");
        assert_eq!(drain_sorted(&mut q).len(), 6_400);
    }

    #[test]
    fn splice_storm_degrades_to_heap_and_keeps_order() {
        let mut q = TieredQueue::new(QueueKind::Tiered);
        q.set_activation(0);
        q.degrade_moves = 1 << 12;
        let mut seq = 0u64;
        // Two-time-value pile-up: one giant bucket becomes `current`.
        for _ in 0..2048u64 {
            q.push(key(1_000_001, seq));
            seq += 1;
        }
        // Activate the pile-up bucket: `current` becomes a 2048-key
        // sorted run at 1_000_001.
        assert_eq!(q.pop().map(|k| k.time), Some(1_000_001));
        assert_eq!(q.tier(), "calendar");
        // Keys landing before the whole run splice at its front, each
        // shifting ~2047 elements — the pathology signal.
        for _ in 0..16 {
            q.push(key(1_000_000, seq));
            seq += 1;
        }
        assert_eq!(q.tier(), "heap", "splice storm must trigger the fallback");
        let drained = drain_sorted(&mut q);
        assert_eq!(drained.len(), 2047 + 16);
        assert_eq!(drained[0].time, 1_000_000);
    }
}
