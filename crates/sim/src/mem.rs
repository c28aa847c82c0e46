//! The shared-memory system: per-core L1/L2 caches with LRU replacement, a
//! shared last-level cache, and a MESI-lite directory that charges a
//! cache-to-cache transfer when a core reads a line another agent wrote.
//!
//! This is where polling and UPID costs become emergent rather than
//! assumed: a poll loop hits its flag line in L1 (cheap) until the remote
//! writer invalidates it, and the UIPI notification-processing microcode
//! pays the same remote-read penalty when it drains a UPID a sender just
//! posted into (§4.2 "Cheaper than shared memory notification?").

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::config::MemConfig;

/// Writer id used by devices/DMA agents that are not simulated cores
/// (e.g. the software-timer device posting into a UPID).
pub const EXTERNAL_WRITER: usize = usize::MAX;

const LINE_SHIFT: u32 = 6; // 64-byte lines

fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

fn word_of(addr: u64) -> u64 {
    addr & !7
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The system-wide memory model: values plus timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySystem {
    cfg: MemConfig,
    words: HashMap<u64, u64>,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    /// Lines resident somewhere on chip (LLC is effectively infinite).
    llc: HashMap<u64, ()>,
    /// Line → writer that holds it modified (core id or
    /// [`EXTERNAL_WRITER`]).
    modified_by: HashMap<u64, usize>,
    /// Line → bitmask of cores that may cache it.
    presence: HashMap<u64, u64>,
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
            words: HashMap::new(),
            llc: HashMap::new(),
            modified_by: HashMap::new(),
            presence: HashMap::new(),
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

    fn note_present(&mut self, line: u64, core: usize) {
        if core != EXTERNAL_WRITER {
            *self.presence.entry(line).or_insert(0) |= 1u64 << core;
        }
        self.llc.insert(line, ());
    }

    fn fill(&mut self, core: usize, line: u64) {
        if core == EXTERNAL_WRITER {
            return;
        }
        if let Some(evicted) = self.l1[core].insert(line) {
            self.l2[core].insert(evicted);
        }
        self.l2[core].insert(line);
        self.note_present(line, core);
    }

    fn invalidate_others(&mut self, line: u64, keeper: usize) {
        let mask = self.presence.get(&line).copied().unwrap_or(0);
        if mask == 0 {
            return;
        }
        for core in 0..self.l1.len() {
            if core != keeper && mask & (1u64 << core) != 0 {
                self.l1[core].invalidate(line);
                self.l2[core].invalidate(line);
            }
        }
        let keep_bit = if keeper == EXTERNAL_WRITER {
            0
        } else {
            mask & (1u64 << keeper)
        };
        self.presence.insert(line, keep_bit);
    }

    /// Performs a timed read: returns `(latency_cycles, value)`.
    pub fn read(&mut self, core: usize, addr: u64) -> (u64, u64) {
        let line = line_of(addr);
        let value = self.words.get(&word_of(addr)).copied().unwrap_or(0);
        let latency = match self.modified_by.get(&line).copied() {
            Some(writer) if writer != core => {
                // Dirty in another agent's cache: cache-to-cache transfer;
                // the line becomes shared.
                self.modified_by.remove(&line);
                self.stats[core].remote_transfers += 1;
                self.fill(core, line);
                self.cfg.remote_latency
            }
            _ => {
                if self.l1[core].contains(line) {
                    self.stats[core].l1_hits += 1;
                    self.cfg.l1_latency
                } else if self.l2[core].contains(line) {
                    self.stats[core].l2_hits += 1;
                    self.fill(core, line);
                    self.cfg.l2_latency
                } else if self.llc.contains_key(&line) {
                    self.stats[core].llc_hits += 1;
                    self.fill(core, line);
                    self.cfg.llc_latency
                } else {
                    self.stats[core].mem_accesses += 1;
                    self.fill(core, line);
                    self.cfg.mem_latency
                }
            }
        };
        (latency, value)
    }

    /// Performs a timed write of an aligned 64-bit word; returns the
    /// latency. Other cores' copies are invalidated and the line becomes
    /// modified by `core`.
    pub fn write(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        let line = line_of(addr);
        self.invalidate_others(line, core);
        let latency = if core == EXTERNAL_WRITER {
            self.note_present(line, core);
            0
        } else if self.l1[core].contains(line) && !self.was_remote_dirty(line, core) {
            self.cfg.l1_latency
        } else {
            self.fill(core, line);
            self.cfg.l1_latency
        };
        self.modified_by.insert(line, core);
        self.words.insert(word_of(addr), value);
        latency
    }

    fn was_remote_dirty(&self, line: u64, core: usize) -> bool {
        matches!(self.modified_by.get(&line), Some(&w) if w != core)
    }

    /// Untimed read for devices/tests.
    #[must_use]
    pub fn peek(&self, addr: u64) -> u64 {
        self.words.get(&word_of(addr)).copied().unwrap_or(0)
    }

    /// Untimed write that still participates in coherence as an external
    /// agent (used to initialize workload data without billing a core).
    pub fn poke(&mut self, addr: u64, value: u64) {
        let line = line_of(addr);
        self.invalidate_others(line, EXTERNAL_WRITER);
        self.modified_by.remove(&line);
        self.note_present(line, EXTERNAL_WRITER);
        self.words.insert(word_of(addr), value);
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
