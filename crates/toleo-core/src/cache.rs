//! Host-side metadata caches (§4.4, Fig. 5).
//!
//! Stealth versions are cached on the trusted host in two inclusive
//! structures, probed in parallel on every LLC miss:
//!
//! * the **L2-TLB stealth extension** — the last-level TLB's data array is
//!   widened by 12 bytes so every TLB entry carries its page's flat entry
//!   (256 entries, fully associative);
//! * the **stealth version overflow buffer** — a 28 KB, 16-way buffer of
//!   56-byte blocks holding uneven and full side entries (a full entry
//!   occupies four blocks, tagged with a 2-bit offset).
//!
//! MAC blocks (with their co-located UVs) are cached in a dedicated 32 KB
//! per-core, 16-way MAC cache, exactly as client SGX does.
//!
//! These caches are *performance* structures: the authoritative version
//! state lives in the Toleo device. Hits avoid CXL round trips; misses are
//! counted as device traffic by the protection engine and the simulator.
//!
//! # One LRU directory
//!
//! All of them — and the SGX baseline's node cache and the simulator's
//! data caches — are faces of one [`LruDirectory`]. Each set is a *recency
//! ring*: a `Vec` of entries, least-recent → most-recent, that once it
//! holds `ways` entries is read as a ring whose least-recent slot is
//! `head`. A hit on the most-recent slot (checked first: 63 of 64 probes
//! of a page-local sweep) moves nothing, any other hit moves only the
//! entries between it and the most-recent end, and a miss in a full set
//! overwrites the slot at `head` and advances it. Sets are *lazy* — no
//! heap until first use — because an engine has 65 of them per shard and
//! allocating each to capacity is several percent of a small working
//! set's `heap_peak_bytes_per_block` (EXPERIMENTS.md "PR 19").
//!
//! What the ring must not change is the **hit / miss / victim sequence**:
//! it decides every version fetch, MAC fetch, hit rate and simulator count
//! this repo pins. The `Vec` stack it replaced survives as the test
//! oracle; `ring_matches_vec_oracle` drives the two side by side.

// audit: allow-file(indexing, callers reduce set indices modulo num_sets; slot indices come from position, head and the length of the same Vec)

use crate::trip::TripFormat;
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found the block resident.
    pub hits: u64,
    /// Accesses that had to fetch.
    pub misses: u64,
}

impl CacheStats {
    /// Accumulates another cache's counters into this one (used to
    /// aggregate per-shard caches in a sharded deployment).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit rate in `[0, 1]`; 0 if never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One set of an [`LruDirectory`].
#[derive(Debug, Clone)]
struct Ring<T> {
    /// `(key, payload)` entries, least-recent → most-recent in ring order:
    /// the least-recent one is `slots[head]`, the most-recent one sits just
    /// before it (wrapping). Empty until first use and grown by `push`,
    /// never past the directory's `ways`: a set nobody touches owns no
    /// heap, which `churn` (144 resident blocks against an engine's 65
    /// sets) would otherwise pay for in `heap_peak_bytes_per_block`.
    slots: Vec<(u64, T)>,
    /// Non-zero only once the set is full.
    head: usize,
}

impl<T> Ring<T> {
    /// Slot of the most-recent entry: the last one pushed while `head` is
    /// still 0, the one before `head` after; out of range while empty.
    fn mru(&self) -> usize {
        let last = self.slots.len().wrapping_sub(1);
        self.head.checked_sub(1).unwrap_or(last)
    }
}

/// A set-associative LRU directory of keys, each with a payload `T`
/// (nothing for the presence-only metadata caches, a dirty bit for the
/// simulator's data caches). The caller picks the set; the directory
/// keeps recency — see the module docs for the ring and what it must
/// not change.
#[derive(Debug, Clone)]
pub struct LruDirectory<T = ()> {
    sets: Vec<Ring<T>>,
    ways: usize,
}

/// Index of the entry with `key`. A whole chunk is first tested without a
/// branch per entry, on the keys' low halves only: the form LLVM turns
/// into four-keys-per-compare SSE2 at the baseline x86-64 target (which
/// has no 64-bit vector equality), so the scan of a missing key — all 256
/// entries of the TLB extension on `scatter` — is eight branches, not 256.
/// A chunk with a low-half match is then searched exactly.
fn position<T>(slots: &[(u64, T)], key: u64) -> Option<usize> {
    const CHUNK: usize = 32;
    let exact = |run: &[(u64, T)]| run.iter().position(|e| e.0 == key);
    let mut chunks = slots.chunks_exact(CHUNK);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let mut maybe = 0u32;
        for e in chunk {
            maybe |= u32::from(e.0 as u32 == key as u32);
        }
        if maybe != 0 {
            if let Some(at) = exact(chunk) {
                return Some(i * CHUNK + at);
            }
        }
    }
    let tail = chunks.remainder();
    Some(slots.len() - tail.len() + exact(tail)?)
}

impl<T: Copy> LruDirectory<T> {
    /// Creates a directory of `num_sets` sets of `ways` ways, all empty.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0` or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache geometry must be non-zero");
        let (slots, head) = (Vec::new(), 0);
        LruDirectory {
            sets: vec![Ring { slots, head }; num_sets],
            ways,
        }
    }

    /// Number of sets. Callers reduce their set index modulo this: every
    /// method below panics on a `set` out of range.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Looks up `key` in `set` and makes it the most-recent entry, filling
    /// it with payload `fill` on a miss. Returns whether it hit, the
    /// payload now resident, and the least-recent entry if the fill had to
    /// evict it from a full set.
    pub fn access(&mut self, set: usize, key: u64, fill: T) -> (bool, &mut T, Option<(u64, T)>) {
        let ways = self.ways;
        let mru = self.sets[set].mru();
        let Ring { slots, head } = &mut self.sets[set];
        let n = slots.len();
        if slots.get(mru).is_some_and(|e| e.0 == key) {
            return (true, &mut slots[mru].1, None);
        }
        if let Some(at) = position(slots, key) {
            // Close the gap the hit leaves: everything more recent moves
            // one step towards `head`, across the wrap if `at` is past it.
            let e = slots[at];
            if at < mru {
                slots.copy_within(at + 1..=mru, at);
            } else {
                slots.copy_within(at + 1.., at);
                slots[n - 1] = slots[0];
                slots.copy_within(1..=mru, 0);
            }
            slots[mru] = e;
            return (true, &mut slots[mru].1, None);
        }
        if n < ways {
            slots.push((key, fill));
            return (false, &mut slots[n].1, None);
        }
        let at = *head;
        *head = if at + 1 == ways { 0 } else { at + 1 };
        let victim = std::mem::replace(&mut slots[at], (key, fill));
        (false, &mut slots[at].1, Some(victim))
    }

    /// Whether `key` is resident in `set`; recency is untouched.
    pub fn contains(&self, set: usize, key: u64) -> bool {
        position(&self.sets[set].slots, key).is_some()
    }

    /// Removes `key` from `set` if present. Rare (stealth reset, page
    /// free), so it un-wraps the ring first and removes in order.
    pub fn invalidate(&mut self, set: usize, key: u64) {
        let Ring { slots, head } = &mut self.sets[set];
        slots.rotate_left(*head);
        *head = 0;
        slots.retain(|e| e.0 != key);
    }

    /// The keys of `set` and their payloads, most-recent first.
    pub fn mru_first_mut(&mut self, set: usize) -> impl Iterator<Item = (u64, &mut T)> {
        let Ring { slots, head } = &mut self.sets[set];
        let (young, old) = slots.split_at_mut(*head);
        let mru_first = young.iter_mut().rev().chain(old.iter_mut().rev());
        mru_first.map(|(key, payload)| (*key, payload))
    }
}

/// The presence-only face of [`LruDirectory`]: bare keys, a multiplicative
/// hash to pick the set, and hit/miss counters.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    dir: LruDirectory,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0` or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        SetAssocCache {
            dir: LruDirectory::new(num_sets, ways),
            stats: CacheStats::default(),
        }
    }

    /// A fully associative cache with `entries` entries.
    pub fn fully_associative(entries: usize) -> Self {
        Self::new(1, entries)
    }

    fn set_index(&self, key: u64) -> usize {
        // Multiplicative hash spreads page-grain keys across sets.
        (key.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % self.dir.num_sets()
    }

    /// Looks up `key`, making it the most-recent entry of its set and
    /// filling it on a miss. Returns `true` on a hit. A miss in a full set
    /// evicts the least-recent key; callers that need to know which use
    /// [`access_with_victim`](Self::access_with_victim).
    pub fn access(&mut self, key: u64) -> bool {
        self.access_with_victim(key).0
    }

    /// Like [`access`](Self::access) but also returns the evicted key.
    pub fn access_with_victim(&mut self, key: u64) -> (bool, Option<u64>) {
        let (hit, _, victim) = self.dir.access(self.set_index(key), key, ());
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        (hit, victim.map(|(key, ())| key))
    }

    /// Probes without filling or touching LRU/stats.
    pub fn contains(&self, key: u64) -> bool {
        self.dir.contains(self.set_index(key), key)
    }

    /// Removes `key` if present (e.g. TLB shootdown / page remap).
    pub fn invalidate(&mut self, key: u64) {
        self.dir.invalidate(self.set_index(key), key);
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.dir.sets.iter().map(|ring| ring.slots.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The combined host-side stealth version cache: TLB extension + overflow
/// buffer, with the paper's geometry by default.
#[derive(Debug, Clone)]
pub struct StealthCache {
    /// Flat entries ride in the L2 TLB extension, keyed by page number.
    tlb_ext: SetAssocCache,
    /// Uneven/full side entries in 56-byte blocks, keyed by
    /// `page * 4 + sub-block`.
    overflow: SetAssocCache,
    combined: CacheStats,
}

/// L2 TLB entries (paper: 256, fully associative).
const TLB_ENTRIES: usize = 256;
/// Overflow buffer blocks (paper: 512 x 56 B = 28 KB).
const OVERFLOW_BLOCKS: usize = 512;
/// Overflow buffer associativity (paper: 16).
const OVERFLOW_WAYS: usize = 16;

impl StealthCache {
    /// Paper-default geometry.
    pub fn paper_default() -> Self {
        StealthCache {
            tlb_ext: SetAssocCache::fully_associative(TLB_ENTRIES),
            overflow: SetAssocCache::new(OVERFLOW_BLOCKS / OVERFLOW_WAYS, OVERFLOW_WAYS),
            combined: CacheStats::default(),
        }
    }

    /// Looks up the stealth version(s) for `page` stored in `format`.
    /// Returns `true` when every structure needed to reconstruct the
    /// version was resident (no CXL access needed).
    pub fn access(&mut self, page: u64, format: TripFormat) -> bool {
        let flat_hit = self.tlb_ext.access(page);
        let hit = match format {
            TripFormat::Flat => flat_hit,
            TripFormat::Uneven => {
                let side_hit = self.overflow.access(page * 4);
                flat_hit && side_hit
            }
            TripFormat::Full => {
                // A full entry spans four 56-byte blocks; all must be
                // resident. Access them all so they fill together.
                let mut all = true;
                for sub in 0..4 {
                    all &= self.overflow.access(page * 4 + sub);
                }
                flat_hit && all
            }
        };
        if hit {
            self.combined.hits += 1;
        } else {
            self.combined.misses += 1;
        }
        hit
    }

    /// Drops any cached state for `page` (reset / remap / downgrade).
    pub fn invalidate_page(&mut self, page: u64) {
        self.tlb_ext.invalidate(page);
        for sub in 0..4 {
            self.overflow.invalidate(page * 4 + sub);
        }
    }

    /// Combined page-grain hit/miss statistics (the paper's Fig. 7 metric).
    pub fn stats(&self) -> CacheStats {
        self.combined
    }
}

/// The per-core MAC cache (32 KB, 16-way, 64-byte blocks -> 512 blocks).
/// Each MAC block covers eight data blocks and carries the page's UV.
#[derive(Debug, Clone)]
pub struct MacCache {
    inner: SetAssocCache,
}

impl MacCache {
    /// Creates a MAC cache of `kib` kibibytes, 16-way, 64-byte blocks.
    pub fn new(kib: usize) -> Self {
        let blocks = kib * 1024 / 64;
        MacCache {
            inner: SetAssocCache::new((blocks / 16).max(1), 16),
        }
    }

    /// Paper default: 32 KB per core.
    pub fn paper_default() -> Self {
        Self::new(32)
    }

    /// Accesses the MAC block covering data block `block_addr` (a 64-byte-
    /// aligned physical address). Returns `true` on hit.
    pub fn access(&mut self, block_addr: u64) -> bool {
        // Eight 56-bit MACs pack per 64-byte MAC block: the covering MAC
        // block index is block_index / 8.
        self.inner.access(block_addr / 64 / 8)
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The `Vec` model `SetAssocCache` was until PR 19 — every set a
    /// most-recent-first stack, every hit a `remove` and a front insert —
    /// kept verbatim as the oracle the ring is driven against: the hit /
    /// miss / victim sequence is what every fetch count downstream is
    /// made of. (CI's lint exempts lines that say `oracle` from its ban on
    /// that idiom in this file.)
    struct VecOracle {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl VecOracle {
        fn access_with_victim(&mut self, set: usize, key: u64) -> (bool, Option<u64>) {
            let oracle_set = &mut self.sets[set];
            if let Some(pos) = oracle_set.iter().position(|&k| k == key) {
                let k = oracle_set.remove(pos);
                oracle_set.insert(0, k);
                return (true, None);
            }
            oracle_set.insert(0, key);
            let victim = if oracle_set.len() > self.ways {
                oracle_set.pop()
            } else {
                None
            };
            (false, victim)
        }
    }

    /// Which ring transitions a differential run went through, read off
    /// the ring's state before each op.
    #[derive(Debug, Default)]
    struct Seen {
        fill: u64,
        evict: u64,
        hit_mru: u64,
        hit_before_head: u64,
        hit_across_wrap: u64,
        invalidate_wrapped: u64,
        refill_after_invalidate: u64,
    }

    fn walk(c: &mut SetAssocCache, set: usize) -> Vec<u64> {
        c.dir.mru_first_mut(set).map(|(key, ())| key).collect()
    }

    /// Drives a ring-backed cache and the oracle through one seeded op
    /// stream over keys just above capacity; every return value and the
    /// touched set's walk are compared after every op, every set's walk
    /// every `full_check_every` ops.
    fn drive(
        (num_sets, ways): (usize, usize),
        seed: u64,
        ops: usize,
        full_check_every: usize,
        seen: &mut Seen,
    ) {
        let mut ring = SetAssocCache::new(num_sets, ways);
        let sets = vec![Vec::new(); num_sets];
        let mut oracle = VecOracle { sets, ways };
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = (num_sets * ways) as u64;
        let keys = capacity + capacity / 4 + 2;
        let mut invalidated = vec![false; num_sets];
        for op in 0..ops {
            // Neighbouring keys share their low 32 bits, the half the
            // chunked scan filters on.
            let key = rng.gen_range(0..keys);
            let key = key >> 1 | (key & 1) << 32;
            let set = ring.set_index(key);
            let before = &ring.dir.sets[set];
            let (at, mru, head) = (position(&before.slots, key), before.mru(), before.head);
            let full = before.slots.len() == ways;
            match rng.gen_range(0..100u32) {
                0..=79 => {
                    match at {
                        Some(at) if at == mru => seen.hit_mru += 1,
                        Some(at) if at < mru => seen.hit_before_head += 1,
                        Some(_) => seen.hit_across_wrap += 1,
                        None if full => seen.evict += 1,
                        None => {
                            seen.fill += 1;
                            seen.refill_after_invalidate += u64::from(invalidated[set]);
                            invalidated[set] = false;
                        }
                    }
                    let got = ring.access_with_victim(key);
                    let want = oracle.access_with_victim(set, key);
                    assert_eq!(got, want, "op {op}: access {key}");
                }
                80..=87 => {
                    let want = oracle.sets[set].contains(&key);
                    assert_eq!(ring.contains(key), want, "op {op}: contains");
                }
                88..=95 => {
                    if at.is_some() {
                        seen.invalidate_wrapped += u64::from(head != 0);
                        invalidated[set] = true;
                    }
                    ring.invalidate(key);
                    oracle.sets[set].retain(|&k| k != key);
                }
                _ => {
                    let want: usize = oracle.sets.iter().map(Vec::len).sum();
                    assert_eq!(ring.len(), want, "op {op}: len");
                }
            }
            assert_eq!(walk(&mut ring, set), oracle.sets[set], "op {op}: set {set}");
            if (op + 1) % full_check_every == 0 {
                for s in 0..num_sets {
                    assert_eq!(walk(&mut ring, s), oracle.sets[s], "op {op}: set {s}");
                }
            }
        }
    }

    const GEOMETRIES: [(usize, usize); 5] = [(1, 256), (32, 16), (4, 8), (1, 3), (1, 1)];

    #[test]
    fn ring_matches_vec_oracle() {
        for geometry in GEOMETRIES {
            let mut seen = Seen::default();
            for case in 0..24 {
                drive(geometry, 0x19 + case, 1500, 1, &mut seen);
            }
            // The stream must actually have walked the ring through every
            // transition the rewrite introduced (a one-way set has no
            // second entry to hit and its `head` never leaves 0).
            let always = [
                seen.fill,
                seen.evict,
                seen.hit_mru,
                seen.refill_after_invalidate,
            ];
            let wrapping = [
                seen.hit_before_head,
                seen.hit_across_wrap,
                seen.invalidate_wrapped,
            ];
            assert!(always.iter().all(|&n| n > 0), "{geometry:?}: {seen:?}");
            assert!(
                geometry.1 == 1 || wrapping.iter().all(|&n| n > 0),
                "{geometry:?}: {seen:?}"
            );
        }
    }

    /// The same differential over 10 M ops: seconds in release, minutes in
    /// debug — CI's release leg runs it with `-- --ignored`.
    #[test]
    #[ignore = "10 M-op soak; run in release"]
    fn ring_matches_vec_oracle_soak() {
        for (i, geometry) in GEOMETRIES.into_iter().enumerate() {
            drive(
                geometry,
                0x50a4 + i as u64,
                2_000_000,
                4096,
                &mut Seen::default(),
            );
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::fully_associative(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // 1 now MRU
        let (hit, victim) = c.access_with_victim(3);
        assert!(!hit);
        assert_eq!(victim, Some(2), "LRU victim is 2");
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = SetAssocCache::fully_associative(4);
        c.access(1);
        c.access(1);
        c.access(2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(SetAssocCache::fully_associative(4).stats().hit_rate(), 0.0);
        assert!(SetAssocCache::fully_associative(4).is_empty());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(10);
        assert!(c.contains(10));
        c.invalidate(10);
        assert!(!c.contains(10));
        assert!(!c.access(10), "re-access misses after invalidate");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        SetAssocCache::new(0, 4);
    }

    #[test]
    fn stealth_cache_flat_needs_only_tlb() {
        let mut sc = StealthCache::paper_default();
        assert!(!sc.access(7, TripFormat::Flat));
        assert!(sc.access(7, TripFormat::Flat));
        assert_eq!(sc.stats().hits, 1);
        assert_eq!(sc.stats().misses, 1);
    }

    #[test]
    fn stealth_cache_uneven_needs_both_structures() {
        let mut sc = StealthCache::paper_default();
        // Warm only the TLB side via a flat access.
        sc.access(7, TripFormat::Flat);
        // Uneven access still misses (side entry cold)...
        assert!(!sc.access(7, TripFormat::Uneven));
        // ...then hits once both are warm.
        assert!(sc.access(7, TripFormat::Uneven));
    }

    #[test]
    fn stealth_cache_full_occupies_four_blocks() {
        let mut sc = StealthCache {
            tlb_ext: SetAssocCache::fully_associative(8),
            overflow: SetAssocCache::new(1, 8),
            combined: CacheStats::default(),
        };
        assert!(!sc.access(1, TripFormat::Full));
        assert!(sc.access(1, TripFormat::Full));
        // A second full page forces the 8-block buffer to evict: with two
        // full entries (8 blocks) the buffer is exactly full.
        assert!(!sc.access(2, TripFormat::Full));
        assert!(sc.access(2, TripFormat::Full));
        // A third page's fill must evict some of page 1 or 2.
        assert!(!sc.access(3, TripFormat::Full));
        let resident_after: usize = [1u64, 2, 3]
            .iter()
            .filter(|&&p| sc.access(p, TripFormat::Full))
            .count();
        assert!(resident_after < 3, "capacity must bound residency");
    }

    #[test]
    fn stealth_cache_invalidate_page() {
        let mut sc = StealthCache::paper_default();
        sc.access(5, TripFormat::Uneven);
        sc.access(5, TripFormat::Uneven);
        sc.invalidate_page(5);
        assert!(
            !sc.access(5, TripFormat::Uneven),
            "post-invalidate access misses"
        );
    }

    #[test]
    fn mac_cache_eight_blocks_share_entry() {
        let mut mc = MacCache::paper_default();
        assert!(!mc.access(0)); // fills MAC block 0 (covers data blocks 0..8)
        for i in 1..8u64 {
            assert!(mc.access(i * 64), "data block {i} shares the MAC block");
        }
        assert!(!mc.access(8 * 64), "ninth block needs the next MAC block");
    }

    #[test]
    fn mac_cache_capacity() {
        let mut mc = MacCache::new(1); // 1 KB = 16 blocks, one 16-way set
        for i in 0..16u64 {
            mc.access(i * 64 * 8);
        }
        for i in 0..16u64 {
            assert!(mc.access(i * 64 * 8), "16 distinct MAC blocks fit in 1 KB");
        }
        mc.access(16 * 64 * 8); // evicts one
        let s = mc.stats();
        assert_eq!(s.misses, 17);
    }
}
