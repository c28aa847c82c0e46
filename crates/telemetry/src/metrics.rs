//! A sharded metrics registry: counters, gauges, and histograms.
//!
//! Shards are plain owned values with **no interior locking** — each
//! worker (or sweep point) mutates its own [`MetricsShard`] free of
//! contention, and the [`Registry`] merges shards **in shard-index
//! order**, so a snapshot is deterministic no matter which thread
//! produced which shard. Histograms reuse
//! [`xui_des::stats::Histogram`], so quantiles after a merge are exactly
//! what a single combined recording would have produced.

use std::collections::BTreeMap;

use serde::Serialize;
use xui_des::stats::{Histogram, Summary};

/// A gauge cell: the latest value set plus the extremes observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Gauge {
    /// Most recently set value (from the highest-indexed shard that set
    /// it, when merged).
    pub last: i64,
    /// Minimum value ever set.
    pub min: i64,
    /// Maximum value ever set.
    pub max: i64,
}

/// One shard of metrics, owned by a single thread of execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsShard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    scope: String,
}

impl MetricsShard {
    /// Creates an empty, unscoped shard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a shard whose metric names are prefixed with
    /// `scope` + `.` (e.g. scope `l3fwd` turns `rx` into `l3fwd.rx`).
    #[must_use]
    pub fn scoped(scope: &str) -> Self {
        Self {
            scope: scope.to_string(),
            ..Self::default()
        }
    }

    fn key(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.scope, name)
        }
    }

    /// Adds `n` to counter `name`.
    pub fn inc(&mut self, name: &str, n: u64) {
        *self.counters.entry(self.key(name)).or_insert(0) += n;
    }

    /// Sets gauge `name` to `v`, tracking min/max.
    pub fn gauge(&mut self, name: &str, v: i64) {
        let key = self.key(name);
        self.gauges
            .entry(key)
            .and_modify(|g| {
                g.last = v;
                g.min = g.min.min(v);
                g.max = g.max.max(v);
            })
            .or_insert(Gauge { last: v, min: v, max: v });
    }

    /// Records sample `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(self.key(name))
            .or_default()
            .record(v);
    }

    /// Current counter value (0 if never incremented).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(&self.key(name)).copied().unwrap_or(0)
    }

    /// Current gauge cell, if ever set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(&self.key(name)).copied()
    }

    /// Read access to a histogram, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(&self.key(name))
    }

    /// True if no metric was ever touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges keep `other`'s
    /// `last` (shard order defines "latest") and widen min/max,
    /// histograms merge bucket-by-bucket.
    pub fn merge(&mut self, other: &MetricsShard) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|mine| {
                    mine.last = g.last;
                    mine.min = mine.min.min(g.min);
                    mine.max = mine.max.max(g.max);
                })
                .or_insert(*g);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// A flat, serializable view of this shard.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A flat snapshot of a shard (or of a whole registry after merging):
/// serializes to the metrics JSON attached to sweep-point records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, Gauge>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, Summary>,
}

/// A collection of shards, merged deterministically by index.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    shards: Vec<MetricsShard>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finished shard (e.g. one sweep point's metrics) and
    /// returns its index.
    pub fn push_shard(&mut self, shard: MetricsShard) -> usize {
        self.shards.push(shard);
        self.shards.len() - 1
    }

    /// Places `shard` at `index`, growing the registry with empty shards
    /// as needed — this is how parallel sweep workers deposit per-point
    /// shards without caring about completion order.
    pub fn set_shard(&mut self, index: usize, shard: MetricsShard) {
        if index >= self.shards.len() {
            self.shards.resize_with(index + 1, MetricsShard::default);
        }
        self.shards[index] = shard;
    }

    /// Number of shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True if the registry holds no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Read access to the shards in index order.
    #[must_use]
    pub fn shards(&self) -> &[MetricsShard] {
        &self.shards
    }

    /// Merges every shard **in index order** into one combined shard.
    /// Because merge order is fixed by index (never by thread completion
    /// order), the snapshot is deterministic for any worker count.
    #[must_use]
    pub fn merged(&self) -> MetricsShard {
        let mut out = MetricsShard::new();
        for shard in &self.shards {
            out.merge(shard);
        }
        out
    }

    /// A serializable snapshot of the merged registry.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.merged().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_across_shards() {
        let mut a = MetricsShard::new();
        a.inc("x", 2);
        let mut b = MetricsShard::new();
        b.inc("x", 3);
        b.inc("y", 1);
        let mut reg = Registry::new();
        reg.push_shard(a);
        reg.push_shard(b);
        let merged = reg.merged();
        assert_eq!(merged.counter_value("x"), 5);
        assert_eq!(merged.counter_value("y"), 1);
        assert_eq!(merged.counter_value("z"), 0);
    }

    #[test]
    fn gauges_keep_shard_order_last_and_widen_extremes() {
        let mut a = MetricsShard::new();
        a.gauge("depth", 10);
        a.gauge("depth", 3);
        let mut b = MetricsShard::new();
        b.gauge("depth", 7);
        let mut reg = Registry::new();
        reg.push_shard(a);
        reg.push_shard(b);
        let g = reg.merged().gauge_value("depth").unwrap();
        assert_eq!(g.last, 7, "highest-indexed shard wins 'last'");
        assert_eq!(g.min, 3);
        assert_eq!(g.max, 10);
    }

    #[test]
    fn scoped_names_are_prefixed() {
        let mut s = MetricsShard::scoped("l3fwd");
        s.inc("rx", 1);
        s.observe("lat", 100);
        assert_eq!(s.counter_value("rx"), 1);
        let snap = s.snapshot();
        assert!(snap.counters.contains_key("l3fwd.rx"));
        assert!(snap.histograms.contains_key("l3fwd.lat"));
    }

    #[test]
    fn set_shard_is_order_independent() {
        // Depositing shards out of order (as parallel workers do) yields
        // the same merged snapshot as in-order depositing.
        let make = |seed: u64| {
            let mut s = MetricsShard::new();
            s.inc("n", seed);
            s.gauge("g", seed as i64);
            s.observe("h", seed * 100);
            s
        };
        let mut fwd = Registry::new();
        for i in 0..4 {
            fwd.set_shard(i, make(i as u64 + 1));
        }
        let mut rev = Registry::new();
        for i in (0..4).rev() {
            rev.set_shard(i, make(i as u64 + 1));
        }
        assert_eq!(fwd.snapshot(), rev.snapshot());
        assert_eq!(
            serde_json::to_string(&fwd.snapshot()).unwrap(),
            serde_json::to_string(&rev.snapshot()).unwrap()
        );
    }

    #[test]
    fn snapshot_serializes_to_flat_json() {
        let mut s = MetricsShard::new();
        s.inc("events", 3);
        s.gauge("depth", -2);
        s.observe("latency", 1000);
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let v = serde_json::value_from_str(&json).expect("snapshot JSON parses");
        let counters: serde::Value = serde::field(&v, "snapshot", "counters").unwrap();
        assert_eq!(serde::field::<u64>(&counters, "counters", "events"), Ok(3));
    }

    #[test]
    fn merged_histogram_equals_combined_recording() {
        let mut a = MetricsShard::new();
        let mut b = MetricsShard::new();
        let mut combined = Histogram::new();
        for v in 0..500u64 {
            a.observe("h", v * 3);
            combined.record(v * 3);
        }
        for v in 0..500u64 {
            b.observe("h", v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        let mut reg = Registry::new();
        reg.push_shard(a);
        reg.push_shard(b);
        let merged = reg.merged();
        let h = merged.histogram("h").unwrap();
        assert_eq!(h, &combined);
    }
}
