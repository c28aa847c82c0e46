//! Live fan-out of a telemetry stream to concurrent subscribers.
//!
//! A [`BroadcastRecorder`] wraps any inner [`Recorder`] and tees every
//! recorded event into a [`BroadcastHub`]: a set of per-subscriber
//! bounded queues. The contract, in order of priority:
//!
//! 1. **The run never stalls.** Publishing never blocks: a subscriber
//!    whose queue is full — or whose consumer currently holds the queue
//!    lock — loses that item, and the loss is counted in its
//!    [`BroadcastSubscriber::dropped_events`] counter. A slow or stuck
//!    client can therefore only ever hurt itself.
//! 2. **The inner recorder is byte-exact.** The inner recorder receives
//!    exactly the events it would have received without the tee, in the
//!    same order, whether zero or fifty subscribers are attached; on-disk
//!    artifacts and traces stay byte-identical.
//! 3. **Loss is explicit.** Every dropped item increments a
//!    per-subscriber counter the consumer (and the control plane) can
//!    query; nothing vanishes silently.
//!
//! Besides raw [`Event`]s the hub also carries pre-serialized
//! [`StreamItem::Snapshot`] payloads (metrics-registry snapshots,
//! run-state changes) so a live control plane can multiplex both over
//! one channel — see `crates/serve`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::recorder::Recorder;

/// One item on a live broadcast stream.
#[derive(Debug, Clone)]
pub enum StreamItem {
    /// A telemetry event from the `Recorder` pipeline.
    Event(Event),
    /// A pre-serialized JSON payload (metrics snapshot, state change)
    /// tagged with the kind string a multiplexed consumer dispatches on.
    Snapshot {
        /// Payload kind (e.g. `metrics`, `state`, `artifact`).
        kind: Arc<str>,
        /// The JSON document.
        json: Arc<str>,
    },
}

/// Shared state of one subscription: the bounded queue plus its loss
/// accounting. The producer side only ever `try_lock`s the queue.
#[derive(Debug)]
struct SubShared {
    queue: Mutex<VecDeque<StreamItem>>,
    cap: usize,
    dropped: AtomicU64,
    delivered: AtomicU64,
    closed: AtomicBool,
    /// Cleared by [`BroadcastSubscriber`]'s `Drop`; liveness cannot be
    /// inferred from `Arc::strong_count` because [`SubscriberStats`]
    /// handles also hold strong references.
    consumer_alive: AtomicBool,
}

impl SubShared {
    /// Non-blocking push. Counts (rather than delivers) the item when
    /// the queue is full or the consumer holds the lock.
    fn push(&self, item: StreamItem) {
        match self.queue.try_lock() {
            Ok(mut q) if q.len() < self.cap => {
                q.push_back(item);
                self.delivered.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The consumer half of one subscription. Dropping it detaches the
/// subscription; the hub prunes detached subscribers on the next
/// publish.
#[derive(Debug)]
pub struct BroadcastSubscriber {
    shared: Arc<SubShared>,
}

impl Drop for BroadcastSubscriber {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Relaxed);
    }
}

impl BroadcastSubscriber {
    /// Takes every currently queued item, oldest first.
    #[must_use]
    pub fn drain(&self) -> Vec<StreamItem> {
        let mut q = self.shared.queue.lock().expect("subscriber queue poisoned");
        q.drain(..).collect()
    }

    /// Items lost because this subscriber was slow (full queue or
    /// contended lock at publish time).
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Items successfully enqueued for this subscriber so far.
    #[must_use]
    pub fn delivered_events(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }

    /// True once the hub closed (the producer finished). Queued items
    /// may still remain to drain.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Relaxed)
    }
}

/// Monitoring handle onto a subscription: lets the control plane report
/// a subscriber's loss counters without owning its consumer half.
#[derive(Debug, Clone)]
pub struct SubscriberStats {
    shared: Arc<SubShared>,
}

impl SubscriberStats {
    /// Items lost by this subscriber so far.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Items successfully enqueued for this subscriber so far.
    #[must_use]
    pub fn delivered_events(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }

    /// True when the consumer half has been dropped.
    #[must_use]
    pub fn is_detached(&self) -> bool {
        !self.shared.consumer_alive.load(Ordering::Relaxed)
    }
}

/// A cloneable fan-out hub: subscribers attach bounded queues, the
/// producer publishes items to every attached queue without blocking.
#[derive(Debug, Clone, Default)]
pub struct BroadcastHub {
    subs: Arc<Mutex<Vec<Arc<SubShared>>>>,
    closed: Arc<AtomicBool>,
}

impl BroadcastHub {
    /// Creates a hub with no subscribers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a subscriber whose queue holds at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn subscribe(&self, cap: usize) -> BroadcastSubscriber {
        assert!(cap > 0, "subscriber capacity must be positive");
        let shared = Arc::new(SubShared {
            queue: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
            dropped: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            closed: AtomicBool::new(self.closed.load(Ordering::Relaxed)),
            consumer_alive: AtomicBool::new(true),
        });
        self.subs
            .lock()
            .expect("hub subscriber list poisoned")
            .push(Arc::clone(&shared));
        BroadcastSubscriber { shared }
    }

    /// Stats handles for every currently attached subscriber, in
    /// subscription order.
    #[must_use]
    pub fn subscriber_stats(&self) -> Vec<SubscriberStats> {
        self.subs
            .lock()
            .expect("hub subscriber list poisoned")
            .iter()
            .map(|s| SubscriberStats { shared: Arc::clone(s) })
            .collect()
    }

    /// Number of attached subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().expect("hub subscriber list poisoned").len()
    }

    /// Publishes one item to every subscriber (non-blocking per
    /// subscriber) and prunes subscriptions whose consumer is gone.
    pub fn publish(&self, item: &StreamItem) {
        let mut subs = self.subs.lock().expect("hub subscriber list poisoned");
        subs.retain(|s| s.consumer_alive.load(Ordering::Relaxed));
        for s in subs.iter() {
            s.push(item.clone());
        }
    }

    /// Publishes a telemetry event.
    pub fn publish_event(&self, ev: Event) {
        self.publish(&StreamItem::Event(ev));
    }

    /// Publishes a pre-serialized JSON payload of the given kind.
    pub fn publish_snapshot(&self, kind: &str, json: &str) {
        self.publish(&StreamItem::Snapshot {
            kind: Arc::from(kind),
            json: Arc::from(json),
        });
    }

    /// Marks the stream finished: subscribers see
    /// [`BroadcastSubscriber::is_closed`] after draining what remains.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        let subs = self.subs.lock().expect("hub subscriber list poisoned");
        for s in subs.iter() {
            s.closed.store(true, Ordering::Relaxed);
        }
    }

    /// True once [`BroadcastHub::close`] was called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}

/// A [`Recorder`] that tees every event into a [`BroadcastHub`] while
/// forwarding it unchanged to the inner recorder. The inner recorder's
/// output is byte-identical to running without the tee.
#[derive(Debug)]
pub struct BroadcastRecorder<R: Recorder> {
    inner: R,
    hub: BroadcastHub,
}

impl<R: Recorder> BroadcastRecorder<R> {
    /// Wraps `inner`, teeing into `hub`.
    #[must_use]
    pub fn new(inner: R, hub: BroadcastHub) -> Self {
        Self { inner, hub }
    }

    /// The hub events are teed into.
    #[must_use]
    pub fn hub(&self) -> &BroadcastHub {
        &self.hub
    }

    /// Read access to the inner recorder.
    #[must_use]
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Unwraps into the inner recorder, closing the hub.
    #[must_use]
    pub fn into_inner(self) -> R {
        self.hub.close();
        self.inner
    }
}

impl<R: Recorder> Recorder for BroadcastRecorder<R> {
    #[inline]
    fn enabled(&self) -> bool {
        // Keep recording live for subscribers even when the inner
        // recorder is a NullRecorder: the tee is the point.
        true
    }

    #[inline]
    fn record(&mut self, ev: Event) {
        self.inner.record(ev);
        self.hub.publish_event(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RingRecorder;

    #[test]
    fn tee_forwards_every_event_to_inner_and_subscribers() {
        let hub = BroadcastHub::new();
        let sub = hub.subscribe(16);
        let mut rec = BroadcastRecorder::new(RingRecorder::new(16), hub.clone());
        for ts in 0..5u64 {
            rec.instant(ts, 0, "e");
        }
        assert_eq!(rec.inner().len(), 5);
        let items = sub.drain();
        assert_eq!(items.len(), 5);
        assert_eq!(sub.dropped_events(), 0);
        let ts: Vec<u64> = items
            .iter()
            .map(|i| match i {
                StreamItem::Event(e) => e.ts,
                StreamItem::Snapshot { .. } => panic!("unexpected snapshot"),
            })
            .collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn slow_subscriber_loses_items_without_stalling() {
        let hub = BroadcastHub::new();
        let slow = hub.subscribe(2);
        let fast = hub.subscribe(64);
        for ts in 0..10u64 {
            hub.publish_event(Event::instant(ts, 0, "e"));
        }
        assert_eq!(slow.dropped_events(), 8, "capacity 2 keeps 2 of 10");
        assert_eq!(slow.drain().len(), 2);
        assert_eq!(fast.dropped_events(), 0);
        assert_eq!(fast.drain().len(), 10);
    }

    #[test]
    fn inner_output_is_byte_identical_with_and_without_tee() {
        let record_all = |rec: &mut dyn Recorder| {
            rec.begin(1, 0, "span");
            rec.counter(2, 0, "depth", 7);
            rec.end(3, 0, "span");
        };
        let mut plain = RingRecorder::new(8);
        record_all(&mut plain);

        let hub = BroadcastHub::new();
        let _sub = hub.subscribe(1); // deliberately tiny: drops must not affect inner
        let mut teed = BroadcastRecorder::new(RingRecorder::new(8), hub);
        record_all(&mut teed);
        assert_eq!(plain.events(), teed.into_inner().events());
    }

    #[test]
    fn snapshots_and_events_share_the_channel() {
        let hub = BroadcastHub::new();
        let sub = hub.subscribe(8);
        hub.publish_event(Event::instant(1, 0, "e"));
        hub.publish_snapshot("metrics", "{\"counters\":{}}");
        let items = sub.drain();
        assert_eq!(items.len(), 2);
        match &items[1] {
            StreamItem::Snapshot { kind, json } => {
                assert_eq!(&**kind, "metrics");
                assert!(json.starts_with('{'));
            }
            StreamItem::Event(_) => panic!("expected a snapshot"),
        }
    }

    #[test]
    fn detached_subscribers_are_pruned_and_close_is_visible() {
        let hub = BroadcastHub::new();
        let sub = hub.subscribe(4);
        let gone = hub.subscribe(4);
        drop(gone);
        hub.publish_event(Event::instant(1, 0, "e"));
        assert_eq!(hub.subscriber_count(), 1);
        assert!(!sub.is_closed());
        hub.close();
        assert!(sub.is_closed());
        assert_eq!(sub.drain().len(), 1, "queued items survive close");
        // A late subscriber to a closed hub sees the closed flag.
        assert!(hub.subscribe(4).is_closed());
    }

    #[test]
    fn stats_handles_do_not_keep_dead_subscribers_alive() {
        let hub = BroadcastHub::new();
        let sub = hub.subscribe(4);
        let stats: Vec<SubscriberStats> = hub.subscriber_stats();
        let extra = stats.clone(); // several live handles at once
        drop(sub);
        hub.publish_event(Event::instant(1, 0, "e"));
        assert_eq!(
            hub.subscriber_count(),
            0,
            "a held stats handle must not block pruning of a dropped consumer"
        );
        assert!(stats[0].is_detached());
        assert!(extra[0].is_detached());
    }

    #[test]
    fn stats_handles_track_loss_and_detachment() {
        let hub = BroadcastHub::new();
        let sub = hub.subscribe(1);
        hub.publish_event(Event::instant(1, 0, "e"));
        hub.publish_event(Event::instant(2, 0, "e"));
        let stats = hub.subscriber_stats().remove(0);
        assert_eq!(stats.delivered_events(), 1);
        assert_eq!(stats.dropped_events(), 1);
        assert!(!stats.is_detached());
        drop(sub);
        assert!(stats.is_detached());
    }
}
