//! The shared-memory system: per-core L1/L2 caches with LRU replacement, a
//! shared last-level cache, and a MESI-lite directory that charges a
//! cache-to-cache transfer when a core reads a line another agent wrote.
//!
//! This is where polling and UPID costs become emergent rather than
//! assumed: a poll loop hits its flag line in L1 (cheap) until the remote
//! writer invalidates it, and the UIPI notification-processing microcode
//! pays the same remote-read penalty when it drains a UPID a sender just
//! posted into (§4.2 "Cheaper than shared memory notification?").

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::config::MemConfig;

/// Writer id used by devices/DMA agents that are not simulated cores
/// (e.g. the software-timer device posting into a UPID).
pub const EXTERNAL_WRITER: usize = usize::MAX;

const LINE_SHIFT: u32 = 6; // 64-byte lines

fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// The index of `addr`'s aligned 64-bit word within its line.
fn word_in_line(addr: u64) -> usize {
    ((addr >> 3) & 7) as usize
}

#[derive(Debug, Clone, PartialEq)]
struct SetAssocCache {
    sets: Vec<Vec<(u64, u64)>>, // (line, lru_stamp)
    ways: usize,
    stamp: u64,
}

impl SetAssocCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            stamp: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn contains(&mut self, line: u64) -> bool {
        let idx = self.set_index(line);
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(entry) = self.sets[idx].iter_mut().find(|(l, _)| *l == line) {
            entry.1 = stamp;
            true
        } else {
            false
        }
    }

    /// Inserts a line, returning the evicted line if the set was full.
    fn insert(&mut self, line: u64) -> Option<u64> {
        let idx = self.set_index(line);
        self.stamp += 1;
        let stamp = self.stamp;
        let set = &mut self.sets[idx];
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = stamp;
            return None;
        }
        let mut evicted = None;
        if set.len() >= self.ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty set");
            evicted = Some(set.swap_remove(victim).0);
        }
        set.push((line, stamp));
        evicted
    }

    fn invalidate(&mut self, line: u64) {
        let idx = self.set_index(line);
        self.sets[idx].retain(|(l, _)| *l != line);
    }
}

/// Per-core access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses).
    pub l2_hits: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// DRAM accesses (first touch).
    pub mem_accesses: u64,
    /// Reads satisfied by a remote cache-to-cache transfer.
    pub remote_transfers: u64,
}

/// What the memory system knows about one line. A line is on chip (the
/// LLC is effectively infinite) once it has an entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    /// The line's eight 64-bit words (0 until written).
    words: [u64; 8],
    /// Bitmask of cores that may cache the line.
    presence: u64,
    /// The writer that holds the line modified (core id or
    /// [`EXTERNAL_WRITER`]).
    modified_by: Option<usize>,
}

/// A fixed multiplicative hash for line numbers: one folded 64×64-bit
/// multiply, so both the bucket bits and the tag bits depend on every
/// bit of the line. Not randomized: the map is never iterated, so its
/// layout cannot reach any output.
#[derive(Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

/// Caches `line` in one core's L1 and L2, spilling the L1 victim to L2.
fn fill(l1: &mut SetAssocCache, l2: &mut SetAssocCache, line: u64) {
    if let Some(evicted) = l1.insert(line) {
        l2.insert(evicted);
    }
    l2.insert(line);
}

/// The system-wide memory model: values plus timing.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    cfg: MemConfig,
    /// Every on-chip line: its words and its coherence state.
    lines: HashMap<u64, Line, BuildHasherDefault<LineHasher>>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    stats: Vec<MemStats>,
}

impl MemorySystem {
    /// Creates a memory system for `cores` cores.
    #[must_use]
    pub fn new(cfg: MemConfig, cores: usize) -> Self {
        Self {
            l1: (0..cores).map(|_| SetAssocCache::new(cfg.l1_sets, cfg.l1_ways)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(cfg.l2_sets, cfg.l2_ways)).collect(),
            cfg,
            lines: HashMap::default(),
            stats: vec![MemStats::default(); cores],
        }
    }

    /// Number of cores this memory system serves.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Per-core statistics.
    #[must_use]
    pub fn stats(&self, core: usize) -> MemStats {
        self.stats[core]
    }

    /// Drops `line` from every cache but `keeper`'s (which may be
    /// [`EXTERNAL_WRITER`], keeping none).
    fn invalidate_others(
        l1: &mut [SetAssocCache],
        l2: &mut [SetAssocCache],
        state: &mut Line,
        line: u64,
        keeper: usize,
    ) {
        let mask = state.presence;
        if mask == 0 {
            return;
        }
        for core in 0..l1.len() {
            if core != keeper && mask & (1u64 << core) != 0 {
                l1[core].invalidate(line);
                l2[core].invalidate(line);
            }
        }
        state.presence = if keeper == EXTERNAL_WRITER {
            0
        } else {
            mask & (1u64 << keeper)
        };
    }

    /// Performs a timed read: returns `(latency_cycles, value)`.
    pub fn read(&mut self, core: usize, addr: u64) -> (u64, u64) {
        let line = line_of(addr);
        let (l1, l2) = (&mut self.l1[core], &mut self.l2[core]);
        let stats = &mut self.stats[core];
        let state = match self.lines.entry(line) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // First touch: in no cache (the lookups still age LRU).
                let cached = l1.contains(line) | l2.contains(line);
                debug_assert!(!cached, "line {line:#x} cached but not on chip");
                stats.mem_accesses += 1;
                fill(l1, l2, line);
                let state = e.insert(Line::default());
                state.presence |= 1u64 << core;
                return (self.cfg.mem_latency, 0);
            }
        };
        let value = state.words[word_in_line(addr)];
        let latency = match state.modified_by {
            Some(writer) if writer != core => {
                // Dirty in another agent's cache: cache-to-cache transfer;
                // the line becomes shared.
                state.modified_by = None;
                stats.remote_transfers += 1;
                fill(l1, l2, line);
                self.cfg.remote_latency
            }
            _ if l1.contains(line) => {
                stats.l1_hits += 1;
                return (self.cfg.l1_latency, value);
            }
            _ if l2.contains(line) => {
                stats.l2_hits += 1;
                fill(l1, l2, line);
                self.cfg.l2_latency
            }
            _ => {
                stats.llc_hits += 1;
                fill(l1, l2, line);
                self.cfg.llc_latency
            }
        };
        state.presence |= 1u64 << core;
        (latency, value)
    }

    /// Performs a timed write of an aligned 64-bit word; returns the
    /// latency. Other cores' copies are invalidated and the line becomes
    /// modified by `core`.
    pub fn write(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        let line = line_of(addr);
        let state = self.lines.entry(line).or_default();
        Self::invalidate_others(&mut self.l1, &mut self.l2, state, line, core);
        let latency = if core == EXTERNAL_WRITER {
            0
        } else {
            let remote_dirty = matches!(state.modified_by, Some(w) if w != core);
            if !self.l1[core].contains(line) || remote_dirty {
                fill(&mut self.l1[core], &mut self.l2[core], line);
                state.presence |= 1u64 << core;
            }
            self.cfg.l1_latency
        };
        state.modified_by = Some(core);
        state.words[word_in_line(addr)] = value;
        latency
    }

    /// Untimed read for devices/tests.
    #[must_use]
    pub fn peek(&self, addr: u64) -> u64 {
        self.lines
            .get(&line_of(addr))
            .map_or(0, |state| state.words[word_in_line(addr)])
    }

    /// Untimed write that still participates in coherence as an external
    /// agent (used to initialize workload data without billing a core).
    pub fn poke(&mut self, addr: u64, value: u64) {
        let line = line_of(addr);
        let state = self.lines.entry(line).or_default();
        Self::invalidate_others(&mut self.l1, &mut self.l2, state, line, EXTERNAL_WRITER);
        state.modified_by = None;
        state.words[word_in_line(addr)] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::sapphire_rapids_like(), cores)
    }

    #[test]
    fn first_touch_then_l1_hit() {
        let mut m = sys(1);
        let (lat, v) = m.read(0, 0x1000);
        assert_eq!(lat, m.cfg.mem_latency);
        assert_eq!(v, 0);
        let (lat, _) = m.read(0, 0x1000);
        assert_eq!(lat, m.cfg.l1_latency);
        let (lat, _) = m.read(0, 0x1008);
        assert_eq!(lat, m.cfg.l1_latency, "same line, different word");
        assert_eq!(m.stats(0).l1_hits, 2);
    }

    #[test]
    fn write_then_read_value() {
        let mut m = sys(1);
        m.write(0, 0x2000, 42);
        let (_, v) = m.read(0, 0x2000);
        assert_eq!(v, 42);
        assert_eq!(m.peek(0x2000), 42);
    }

    #[test]
    fn remote_write_invalidates_and_costs_remote_latency() {
        let mut m = sys(2);
        // Core 0 caches the flag line.
        m.write(0, 0x3000, 0);
        assert_eq!(m.read(0, 0x3000).0, m.cfg.l1_latency);
        // Core 1 (the notifier) writes the flag.
        m.write(1, 0x3000, 1);
        // Core 0's next poll misses and pays the cache-to-cache price.
        let (lat, v) = m.read(0, 0x3000);
        assert_eq!(lat, m.cfg.remote_latency);
        assert_eq!(v, 1);
        assert_eq!(m.stats(0).remote_transfers, 1);
        // And then it is cheap again.
        assert_eq!(m.read(0, 0x3000).0, m.cfg.l1_latency);
    }

    #[test]
    fn external_writer_behaves_like_remote_agent() {
        let mut m = sys(1);
        m.write(0, 0x4000, 0);
        assert_eq!(m.read(0, 0x4000).0, m.cfg.l1_latency);
        m.write(EXTERNAL_WRITER, 0x4000, 9);
        let (lat, v) = m.read(0, 0x4000);
        assert_eq!(lat, m.cfg.remote_latency);
        assert_eq!(v, 9);
    }

    #[test]
    fn l1_capacity_eviction_falls_back_to_l2() {
        let mut m = sys(1);
        // One L1 set holds 8 ways; touch 9 lines mapping to the same set.
        let set_stride = 64u64 * m.cfg.l1_sets as u64;
        for i in 0..9u64 {
            m.read(0, 0x10_0000 + i * set_stride);
        }
        // The first line was evicted from L1 but lives in L2.
        let (lat, _) = m.read(0, 0x10_0000);
        assert_eq!(lat, m.cfg.l2_latency);
    }

    #[test]
    fn working_set_beyond_l2_hits_llc() {
        let mut m = sys(1);
        let l2_lines = (m.cfg.l2_sets * m.cfg.l2_ways) as u64;
        // Touch 2x the L2 capacity of distinct lines.
        for i in 0..(2 * l2_lines) {
            m.read(0, i * 64);
        }
        // Early lines are out of both L1 and L2 now.
        let (lat, _) = m.read(0, 0);
        assert_eq!(lat, m.cfg.llc_latency);
    }

    #[test]
    fn poke_initializes_without_core_state() {
        let mut m = sys(2);
        m.poke(0x5000, 77);
        assert_eq!(m.peek(0x5000), 77);
        let (lat, v) = m.read(1, 0x5000);
        assert_eq!(v, 77);
        assert_eq!(lat, m.cfg.llc_latency, "poked data is on-chip, not dirty");
    }

    #[test]
    fn two_writers_alternate_ownership() {
        let mut m = sys(2);
        m.write(0, 0x6000, 1);
        m.write(1, 0x6000, 2);
        assert_eq!(m.read(0, 0x6000), (m.cfg.remote_latency, 2));
        m.write(0, 0x6000, 3);
        assert_eq!(m.read(1, 0x6000), (m.cfg.remote_latency, 3));
    }
}
