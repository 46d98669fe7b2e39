//! Timed data-cache hierarchy with dirty-writeback tracking.
//!
//! The replacement structure is the one the metadata caches use —
//! [`toleo_core::cache::LruDirectory`] — with a dirty bit as each tag's
//! payload, so LLC evictions generate the protected writebacks that drive
//! version UPDATE traffic.

use crate::config::CacheConfig;
use toleo_core::cache::LruDirectory;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was resident.
    pub hit: bool,
    /// Block address of a dirty line evicted by the fill, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate data cache (LRU).
#[derive(Debug, Clone)]
pub struct DataCache {
    /// Block tags, each with its dirty bit.
    dir: LruDirectory<bool>,
    hits: u64,
    misses: u64,
}

impl DataCache {
    /// Builds a cache from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        DataCache {
            dir: LruDirectory::new(cfg.sets(), cfg.ways),
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the 64-byte block containing `addr`; fills on miss. `write`
    /// marks the line dirty. Returns hit/miss and any dirty victim.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        let tag = addr / 64;
        let set = (tag % self.dir.num_sets() as u64) as usize;
        let (hit, dirty, victim) = self.dir.access(set, tag, write);
        *dirty |= write;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let writeback = match victim {
            Some((tag, true)) => Some(tag * 64),
            _ => None,
        };
        AccessResult { hit, writeback }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Flushes every dirty line, returning their block addresses (used at
    /// end of simulation so pending writebacks reach the version system).
    /// Sets ascending, most-recent line first: the order feeds the next
    /// level down and so is part of every pinned simulator count.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in 0..self.dir.num_sets() {
            for (tag, dirty) in self.dir.mru_first_mut(set) {
                if std::mem::take(dirty) {
                    out.push(tag * 64);
                }
            }
        }
        out
    }
}

/// Three-level hierarchy; misses at each level descend to the next, and a
/// fill at any level can push a dirty victim down (L1/L2 victims are folded
/// into the next level; L3 victims surface as memory writebacks).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: DataCache,
    /// Private L2.
    pub l2: DataCache,
    /// Shared L3 (LLC).
    pub l3: DataCache,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in L1.
    L1,
    /// Hit in L2.
    L2,
    /// Hit in L3.
    L3,
    /// Missed all levels; goes to memory.
    Memory,
}

/// Outcome of a hierarchy access: where it hit plus any LLC writebacks the
/// access generated (protected writes).
#[derive(Debug, Clone)]
pub struct HierarchyResult {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Dirty blocks evicted from the LLC by fills along the way.
    pub llc_writebacks: Vec<u64>,
}

impl Hierarchy {
    /// Builds the hierarchy from the node config.
    pub fn new(cfg: &crate::config::SimConfig) -> Self {
        Hierarchy {
            l1: DataCache::new(cfg.l1),
            l2: DataCache::new(cfg.l2),
            l3: DataCache::new(cfg.l3),
        }
    }

    /// Performs a load (`write = false`) or store (`write = true`).
    pub fn access(&mut self, addr: u64, write: bool) -> HierarchyResult {
        let mut llc_writebacks = Vec::new();
        let r1 = self.l1.access(addr, write);
        if let Some(wb) = r1.writeback {
            // L1 victim folds into L2 as a dirty fill.
            let r2 = self.l2.access(wb, true);
            if let Some(wb2) = r2.writeback {
                let r3 = self.l3.access(wb2, true);
                if let Some(wb3) = r3.writeback {
                    llc_writebacks.push(wb3);
                }
            }
        }
        if r1.hit {
            return HierarchyResult {
                level: HitLevel::L1,
                llc_writebacks,
            };
        }
        let r2 = self.l2.access(addr, false);
        if let Some(wb2) = r2.writeback {
            let r3 = self.l3.access(wb2, true);
            if let Some(wb3) = r3.writeback {
                llc_writebacks.push(wb3);
            }
        }
        if r2.hit {
            return HierarchyResult {
                level: HitLevel::L2,
                llc_writebacks,
            };
        }
        let r3 = self.l3.access(addr, false);
        if let Some(wb3) = r3.writeback {
            llc_writebacks.push(wb3);
        }
        let level = if r3.hit {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        HierarchyResult {
            level,
            llc_writebacks,
        }
    }

    /// LLC misses so far (the Table 2 MPKI numerator).
    pub fn llc_misses(&self) -> u64 {
        self.l3.misses()
    }

    /// Drains all dirty lines down to memory writebacks.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut wbs = Vec::new();
        for blk in self.l1.drain_dirty() {
            let r = self.l2.access(blk, true);
            if let Some(w) = r.writeback {
                let r3 = self.l3.access(w, true);
                if let Some(w3) = r3.writeback {
                    wbs.push(w3);
                }
            }
        }
        for blk in self.l2.drain_dirty() {
            let r3 = self.l3.access(blk, true);
            if let Some(w3) = r3.writeback {
                wbs.push(w3);
            }
        }
        wbs.extend(self.l3.drain_dirty());
        wbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protection, SimConfig};

    #[derive(Clone, Copy)]
    struct Line {
        tag: u64,
        dirty: bool,
    }

    /// The `Vec<Line>` model `DataCache` was until PR 19 — every set a
    /// most-recent-first stack shuffled on every hit — kept verbatim as
    /// the oracle for the shared ring directory.
    struct VecOracle {
        sets: Vec<Vec<Line>>,
        ways: usize,
    }

    impl VecOracle {
        fn new(cfg: CacheConfig) -> Self {
            VecOracle {
                sets: vec![Vec::new(); cfg.sets()],
                ways: cfg.ways,
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> AccessResult {
            let tag = addr / 64;
            let idx = (tag % self.sets.len() as u64) as usize;
            let oracle_set = &mut self.sets[idx];
            if let Some(pos) = oracle_set.iter().position(|l| l.tag == tag) {
                let mut line = oracle_set.remove(pos);
                line.dirty |= write;
                oracle_set.insert(0, line);
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
            oracle_set.insert(0, Line { tag, dirty: write });
            let mut writeback = None;
            if oracle_set.len() > self.ways {
                let victim = oracle_set.pop().expect("overfull set");
                if victim.dirty {
                    writeback = Some(victim.tag * 64);
                }
            }
            AccessResult {
                hit: false,
                writeback,
            }
        }

        fn drain_dirty(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            for line in self.sets.iter_mut().flatten() {
                if line.dirty {
                    out.push(line.tag * 64);
                    line.dirty = false;
                }
            }
            out
        }
    }

    /// Seeded load/store stream: splitmix64 over `blocks` block addresses,
    /// one access in three a store.
    fn stream(seed: u64, blocks: u64) -> impl Iterator<Item = (u64, bool)> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            ((z >> 8) % blocks * 64 + z % 64, (z >> 2).is_multiple_of(3))
        })
    }

    #[test]
    fn data_cache_matches_vec_oracle() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        for (seed, geometry) in [cfg.l1, cfg.l2, cfg.l3].into_iter().enumerate() {
            let mut cache = DataCache::new(geometry);
            let mut oracle = VecOracle::new(geometry);
            // A quarter more blocks than fit: every set fills, wraps and
            // keeps evicting, and hits land all over the ring.
            let blocks = geometry.blocks() as u64 * 5 / 4;
            let ops = geometry.blocks() * 6;
            for (op, (addr, write)) in stream(seed as u64, blocks).take(ops).enumerate() {
                assert_eq!(
                    cache.access(addr, write),
                    oracle.access(addr, write),
                    "op {op}: addr {addr:#x} write {write}"
                );
                // Drains mid-run too, so lines go dirty again on a
                // wrapped ring and the next drain sees them.
                if op % (ops / 4) == ops / 8 {
                    assert_eq!(cache.drain_dirty(), oracle.drain_dirty(), "op {op}");
                }
            }
            let drained = cache.drain_dirty();
            assert!(!drained.is_empty());
            assert_eq!(drained, oracle.drain_dirty());
            assert!(cache.hits() > 0 && cache.misses() > geometry.blocks() as u64);
        }
    }

    /// `Hierarchy` end to end — where every access hit, every LLC
    /// writeback it caused, and the final `drain` vector, whose order
    /// depends on each level's most-recent-first walk feeding the next —
    /// folded into one FNV-1a fingerprint. The literals were generated at
    /// the parent of PR 19, from the `Vec` model.
    #[test]
    fn hierarchy_trace_and_drain_are_pinned() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        let fnv = |fp: u64, v: u64| (fp ^ v).wrapping_mul(0x100_0000_01b3);
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        for (addr, write) in stream(19, cfg.l3.blocks() as u64 * 5 / 4).take(120_000) {
            let r = h.access(addr, write);
            fp = fnv(fp, r.level as u64);
            fp = r.llc_writebacks.iter().fold(fp, |fp, &wb| fnv(fp, wb));
        }
        let drained = h.drain();
        fp = drained.iter().fold(fp, |fp, &wb| fnv(fp, wb));
        assert_eq!(
            (h.llc_misses(), drained.len(), fp),
            (34_227, 11_717, 16_331_117_063_638_715_574)
        );
    }

    fn tiny_cache(blocks: usize, ways: usize) -> DataCache {
        DataCache::new(CacheConfig {
            capacity: blocks * 64,
            ways,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny_cache(16, 4);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13f, false).hit, "same block, different byte");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn dirty_eviction_surfaces_writeback() {
        let mut c = tiny_cache(4, 4); // one set... no: 4 blocks 4 ways = 1 set
        c.access(0, true); // dirty
        c.access(64, false);
        c.access(64 * 2, false);
        c.access(64 * 3, false);
        let r = c.access(64 * 4, false); // evicts block 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny_cache(4, 4);
        for i in 0..5u64 {
            let r = c.access(i * 64, false);
            assert_eq!(r.writeback, None);
        }
    }

    #[test]
    fn drain_dirty_returns_all() {
        let mut c = tiny_cache(16, 4);
        c.access(0, true);
        c.access(64, true);
        c.access(128, false);
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![0, 64]);
        assert!(c.drain_dirty().is_empty(), "drain clears dirty bits");
    }

    #[test]
    fn hierarchy_levels() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        assert_eq!(h.access(0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0x1000, false).level, HitLevel::L1);
        // Blow L1 (8 KB = 128 blocks) with conflicting lines, keep within L2.
        for i in 1..200u64 {
            h.access(0x1000 + i * 4096, false); // same L1 set pressure
        }
        let lvl = h.access(0x1000, false).level;
        assert!(
            lvl == HitLevel::L2 || lvl == HitLevel::L3,
            "demoted to {lvl:?}"
        );
    }

    #[test]
    fn hierarchy_generates_llc_writebacks_under_dirty_pressure() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        let mut wbs = 0;
        // Write a region much larger than the 1 MB LLC.
        for i in 0..(4 << 20) / 64u64 {
            wbs += h.access(i * 64, true).llc_writebacks.len();
        }
        assert!(wbs > 0, "dirty working set beyond LLC must write back");
    }

    #[test]
    fn hierarchy_drain_flushes_everything() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        h.access(0x40, true);
        let wbs = h.drain();
        assert!(wbs.contains(&0x40));
    }
}
