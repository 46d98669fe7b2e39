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
//! # The protocol walk
//!
//! [`StealthCache::read`] and [`StealthCache::update`] are the host side
//! of §4.4–§5, written once: a READ or UPDATE over the
//! [`DeviceChannel`], a stealth-cache probe with the format the device
//! answered, and on a stealth reset the page's cached entry dropped. The
//! engine executes the walk (`ProtectionEngine::{read, write}`); the
//! simulator prices what it returns (`toleo-sim`'s `Node`: link bytes,
//! re-encryption bytes). Neither reaches the device or this cache another
//! way on an access, so the two cannot disagree about which probe missed.
//! A device error returns before anything is probed.
//!
//! # Two LRU structures
//!
//! The 16-way caches — overflow buffer, MAC cache, the SGX baseline's node
//! cache and the simulator's data caches — are faces of one
//! [`LruDirectory`]. A set's entries never move while they are resident:
//! a key is filled into a way and stays there until it is evicted. Beside
//! the `Vec` of entries each set keeps a row of one-byte fingerprints,
//! one per way, and its recency order as a list of way numbers, one
//! nibble per way in a `u64`, most-recent first. A probe checks the
//! most-recent way, then compares the fingerprint row and reads only the
//! keys of the ways whose fingerprint matches; a hit moves its way's
//! nibble to the front (one shift, two masks), and a miss in a full set
//! overwrites the way at the back of the list. No hit moves memory, and
//! a miss reads no key unless two fingerprints collide, so a hit at a
//! random recency rank — what `fanout`, `tenants` and `siege` do — costs
//! what a hit on the most-recent way does (EXPERIMENTS.md "Cache sets
//! keep their keys in place").
//!
//! The TLB extension is not a long set. It is a CAM — 256 entries, fully
//! associative, one cycle in hardware — and a working set *inside* its
//! reach hits it at a uniformly random recency position on every probe.
//! As one 256-way ring that was a 2 KB scan and a shift of half of it
//! per probe, a third of a `tenants` op (EXPERIMENTS.md "PR 23"). It is a
//! `PageCam`: entries that never move, a recency list threaded through
//! them by slot number, and a 512-bucket hash index with its chains
//! threaded the same way, so a hit is a chain step or two and three link
//! writes wherever in the recency order it lands.
//!
//! Both are *lazy* — no heap until first use — because an engine has 65
//! sets and a CAM per shard and allocating each to capacity is several
//! percent of a small working set's `heap_peak_bytes_per_block`
//! (EXPERIMENTS.md "PR 19", "PR 23").
//!
//! # Repeats
//!
//! Page-local traffic probes the same page and the same MAC block op
//! after op. [`StealthCache`] remembers the `(page, format)` it last
//! probed and [`MacCache`] the last MAC-block key; a repeat counts the
//! hits the full probe would have counted and returns, one compare in
//! front of an out-of-line probe. Both memos are exact:
//!
//! * After `access(p, f)` returns, `p` is the CAM's most-recent entry, and
//!   `f`'s overflow keys (none, `p*4`, or `p*4..p*4+3` in that order) were
//!   the last accesses of their sets, in that order. Repeating the same
//!   accesses in the same order hits each one and leaves every recency
//!   order as it was — also when all four Full sub-blocks share one set,
//!   since a set has at least four ways (the paper's has 16). So a repeat
//!   adds 1 to the combined hits, 0, 1 or 4 to the overflow's, and
//!   changes nothing else. `invalidate_page` clears the memo, whichever
//!   page it drops.
//! * `MacCache` has no invalidate: the last key is resident and
//!   most-recent in its set, so a repeat adds one hit. The empty memo is
//!   `u64::MAX`, which no key (an address over 512) reaches.
//!
//! `stealth_cache_memo_matches_the_full_probe` and
//! `mac_cache_memo_matches_the_full_probe` drive each beside a twin that
//! always probes.
//!
//! What neither may change is the **hit / miss / victim sequence**: it
//! decides every version fetch, MAC fetch, hit rate and simulator count
//! this repo pins. The `Vec` stack they replaced survives as the test
//! oracle; `ring_matches_vec_oracle` and `cam_matches_vec_oracle` drive
//! each beside it.

// audit: allow-file(indexing, callers reduce set indices modulo num_sets; way numbers come from the fingerprint mask and the nibble list, below the fill level of the same Vec, and CAM slots from its own links)

use crate::channel::DeviceChannel;
use crate::device::UpdateResponse;
use crate::error::Result;
use crate::trip::TripFormat;
use crate::version::StealthVersion;
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

/// Multiplicative (Fibonacci) hash: its high bits spread page-grain keys
/// across a cache's sets and the CAM's buckets.
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9e3779b97f4a7c15)
}

/// Most ways a set may have: a way number is one nibble of its recency
/// list.
const MAX_WAYS: usize = 16;
/// A one in every nibble of a `u64`.
const NIBBLES: u64 = 0x1111_1111_1111_1111;
/// A one in every byte of a fingerprint row.
const BYTES: u128 = u128::from_le_bytes([1; MAX_WAYS]);

/// A key's fingerprint: the top byte of a second multiplicative hash, so
/// keys that share a set (which the first hash, or the caller, picked)
/// still spread over all 256 values.
fn fingerprint(key: u64) -> u8 {
    (key.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 56) as u8
}

/// The low `ranks` nibbles of a recency list (`ranks <= 16`).
fn low_nibbles(ranks: u32) -> u64 {
    1u64.checked_shl(4 * ranks).map_or(u64::MAX, |bit| bit - 1)
}

/// Rank of way `way` in recency list `order`: the lowest nibble equal to
/// it, found with the SWAR zero-nibble test on `order ^ way·NIBBLES`.
/// Nibbles past the fill level are zero, but they sit above the way's
/// own, and the test is exact for the lowest zero nibble.
fn rank(order: u64, way: usize) -> u32 {
    let x = order ^ (way as u64).wrapping_mul(NIBBLES);
    (x.wrapping_sub(NIBBLES) & !x & (NIBBLES << 3)).trailing_zeros() / 4
}

/// One set of an [`LruDirectory`].
#[derive(Debug, Clone)]
struct Set<T> {
    /// `(key, payload)` of way `w` at index `w`. Empty until first use and
    /// grown by `push`, never past the directory's `ways`: a set nobody
    /// touches owns no heap, which `churn` (144 resident blocks against an
    /// engine's 65 sets) would otherwise pay for in
    /// `heap_peak_bytes_per_block`.
    entries: Vec<(u64, T)>,
    /// `fingerprint` of each way's key; bytes past `entries.len()` are
    /// stale and masked off.
    prints: [u8; MAX_WAYS],
    /// Way numbers by recency, one nibble each, rank 0 (the low nibble)
    /// the most recent; nibbles past `entries.len()` are zero.
    order: u64,
}

impl<T> Set<T> {
    /// Way holding `key`, whose fingerprint is `print`: the ways whose
    /// fingerprint matches, below the fill level, confirmed lowest first.
    fn find(&self, key: u64, print: u8) -> Option<usize> {
        // Zero bytes of `x` are the matching ways; the test below sets the
        // high bit of each zero byte and of no other, since no byte's sum
        // carries into the next.
        let x = u128::from_le_bytes(self.prints) ^ (u128::from(print) * BYTES);
        let low7 = BYTES * 0x7f;
        let filled = 1u128
            .checked_shl(8 * self.entries.len() as u32)
            .map_or(u128::MAX, |bit| bit - 1);
        let mut candidates = !(((x & low7) + low7) | x | low7) & filled;
        while candidates != 0 {
            let way = (candidates.trailing_zeros() / 8) as usize;
            if self.entries[way].0 == key {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Moves `way` to rank 0: the ways more recent than it each drop one
    /// rank, the older ones keep theirs.
    fn touch(&mut self, way: usize) {
        let at = rank(self.order, way);
        let (below, above) = (low_nibbles(at), !low_nibbles(at + 1));
        self.order = (self.order & above) | (self.order & below) << 4 | way as u64;
    }
}

/// A set-associative LRU directory of keys, each with a payload `T`
/// (nothing for the presence-only metadata caches, a dirty bit for the
/// simulator's data caches). The caller picks the set; the directory
/// keeps recency — see the module docs for the set layout and what it
/// must not change.
#[derive(Debug, Clone)]
pub struct LruDirectory<T = ()> {
    sets: Vec<Set<T>>,
    ways: usize,
}

impl<T: Copy> LruDirectory<T> {
    /// Creates a directory of `num_sets` sets of `ways` ways, all empty.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`, `ways == 0` or `ways > 16`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(ways <= MAX_WAYS, "a set has at most 16 ways, not {ways}");
        let empty = Set {
            entries: Vec::new(),
            prints: [0; MAX_WAYS],
            order: 0,
        };
        LruDirectory {
            sets: vec![empty; num_sets],
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
        let s = &mut self.sets[set];
        let mru = (s.order & 0xf) as usize;
        if s.entries.get(mru).is_some_and(|e| e.0 == key) {
            return (true, &mut s.entries[mru].1, None);
        }
        let print = fingerprint(key);
        if let Some(way) = s.find(key, print) {
            s.touch(way);
            return (true, &mut s.entries[way].1, None);
        }
        let n = s.entries.len();
        let (way, victim) = if n < ways {
            s.entries.push((key, fill));
            (n, None)
        } else {
            let way = (s.order >> (4 * (ways - 1)) & 0xf) as usize;
            let victim = std::mem::replace(&mut s.entries[way], (key, fill));
            (way, Some(victim))
        };
        // The filled way takes rank 0; a full set's victim nibble moves
        // past rank `ways - 1` and is masked off.
        s.prints[way] = print;
        s.order = (s.order << 4 | way as u64) & low_nibbles(ways as u32);
        (false, &mut s.entries[way].1, victim)
    }

    /// Whether `key` is resident in `set`; recency is untouched.
    pub fn contains(&self, set: usize, key: u64) -> bool {
        self.sets[set].find(key, fingerprint(key)).is_some()
    }

    /// Removes `key` from `set` if present; an absent key (most overflow
    /// sub-blocks of a reset page) leaves the set as it is. The last way
    /// moves into the hole, with its fingerprint and its nibble renamed,
    /// so ways stay dense and `entries.len()` is the fill level.
    pub fn invalidate(&mut self, set: usize, key: u64) {
        let s = &mut self.sets[set];
        let Some(way) = s.find(key, fingerprint(key)) else {
            return;
        };
        let at = rank(s.order, way);
        let below = low_nibbles(at);
        s.order = (s.order & below) | (s.order >> 4 & !below);
        let last = s.entries.len() - 1;
        if way != last {
            s.order ^= ((last ^ way) as u64) << (4 * rank(s.order, last));
            s.prints[way] = s.prints[last];
        }
        s.entries.swap_remove(way);
    }

    /// The keys of `set` and their payloads, most-recent first.
    pub fn mru_first_mut(&mut self, set: usize) -> impl Iterator<Item = (u64, &mut T)> {
        let Set { entries, order, .. } = &mut self.sets[set];
        let (order, n) = (*order, entries.len() as u32);
        let mut by_way: [Option<&mut (u64, T)>; MAX_WAYS] = Default::default();
        for (slot, entry) in by_way.iter_mut().zip(entries) {
            *slot = Some(entry);
        }
        let ways = (0..n).map(move |at| (order >> (4 * at) & 0xf) as usize);
        ways.filter_map(move |way| by_way[way].take())
            .map(|entry| (entry.0, &mut entry.1))
    }
}

/// The presence-only face of [`LruDirectory`]: bare keys, a multiplicative
/// hash to pick the set, and hit/miss counters.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    dir: LruDirectory,
    /// `num_sets - 1` when that is a mask: every probe reduces a hash to a
    /// set, and a 64-bit `%` is the slowest instruction on that path.
    set_mask: Option<usize>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`, `ways == 0` or `ways > 16`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        SetAssocCache {
            dir: LruDirectory::new(num_sets, ways),
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, key: u64) -> usize {
        let spread = (hash(key) >> 32) as usize;
        match self.set_mask {
            Some(mask) => spread & mask,
            None => spread % self.dir.num_sets(),
        }
    }

    /// Looks up `key`, making it the most-recent entry of its set and
    /// filling it on a miss. Returns `true` on a hit. A miss in a full set
    /// evicts the least-recent key; callers that need to know which use
    /// [`access_with_victim`](Self::access_with_victim).
    #[inline]
    pub fn access(&mut self, key: u64) -> bool {
        self.access_with_victim(key).0
    }

    /// Like [`access`](Self::access) but also returns the evicted key.
    #[inline]
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
        self.dir.sets.iter().map(|set| set.entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Slot number that means "none" in a [`PageCam`]'s links and heads.
const NIL: u16 = u16::MAX;
/// Hash buckets of a [`PageCam`]: twice the paper's 256 entries, so a
/// chain is rarely longer than two.
const CAM_BUCKETS: usize = 512;
/// What each of a [`PageCam`] slot's three links names.
const OLDER: usize = 0;
const NEWER: usize = 1;
const CHAIN: usize = 2;

/// The TLB extension's directory: a fully associative, exact-LRU set of
/// page numbers whose entries never move. Each slot carries three slot
/// numbers — its neighbours in recency order and the next entry of its
/// hash bucket — so lookup, touch, fill, evict and invalidate are a short
/// chain walk and a few link writes. See the module docs for why this is
/// not one long [`LruDirectory`] set.
#[derive(Debug, Clone)]
struct PageCam {
    /// Resident page numbers, in fill order. Grown by `push`, never past
    /// `ways`; empty until first use, like a ring.
    pages: Vec<u64>,
    /// `[OLDER, NEWER, CHAIN]` of the slot with the same index.
    links: Vec<[u16; 3]>,
    /// First slot of each bucket's chain; allocated at the first fill.
    heads: Vec<u16>,
    /// Least- and most-recent slots; `NIL` while empty.
    lru: u16,
    mru: u16,
    ways: usize,
}

impl PageCam {
    /// An empty CAM of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or so large a slot number would be `NIL`.
    fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways <= usize::from(NIL),
            "CAM size must be non-zero and fit its links"
        );
        PageCam {
            pages: Vec::new(),
            links: Vec::new(),
            heads: Vec::new(),
            lru: NIL,
            mru: NIL,
            ways,
        }
    }

    fn bucket(page: u64) -> usize {
        // Top nine bits: one of `CAM_BUCKETS`.
        (hash(page) >> 55) as usize
    }

    /// Slot of `page`, by walking its bucket's chain.
    fn find(&self, page: u64) -> Option<u16> {
        let mut at = *self.heads.get(Self::bucket(page))?;
        while at != NIL {
            if self.pages[usize::from(at)] == page {
                return Some(at);
            }
            at = self.links[usize::from(at)][CHAIN];
        }
        None
    }

    /// Rewrites the two recency links that cross one place in the list:
    /// the slot after `older` becomes `next`, the slot before `newer`
    /// becomes `prev`. `NIL` stands for the list's own ends.
    fn join(&mut self, older: u16, next: u16, newer: u16, prev: u16) {
        match older {
            NIL => self.lru = next,
            _ => self.links[usize::from(older)][NEWER] = next,
        }
        match newer {
            NIL => self.mru = prev,
            _ => self.links[usize::from(newer)][OLDER] = prev,
        }
    }

    /// Takes slot `at` out of the recency list.
    fn unlink(&mut self, at: u16) {
        let [older, newer, _] = self.links[usize::from(at)];
        self.join(older, newer, newer, older);
    }

    /// Puts slot `at` at the most-recent end of the recency list.
    fn link_mru(&mut self, at: u16) {
        let older = self.mru;
        self.links[usize::from(at)][OLDER] = older;
        self.links[usize::from(at)][NEWER] = NIL;
        self.join(older, at, NIL, at);
    }

    /// Makes whatever names slot `from` in its bucket's chain — the
    /// bucket head or the entry before it — name `to` instead.
    fn rechain(&mut self, from: u16, to: u16) {
        let bucket = Self::bucket(self.pages[usize::from(from)]);
        let mut at = self.heads[bucket];
        if at == from {
            self.heads[bucket] = to;
            return;
        }
        while self.links[usize::from(at)][CHAIN] != from {
            at = self.links[usize::from(at)][CHAIN];
        }
        self.links[usize::from(at)][CHAIN] = to;
    }

    /// Takes slot `at` out of its bucket's chain and the recency list.
    fn detach(&mut self, at: u16) {
        self.rechain(at, self.links[usize::from(at)][CHAIN]);
        self.unlink(at);
    }

    /// Looks up `page` and makes it the most-recent entry, filling it on a
    /// miss — into a new slot while there is room, else over the
    /// least-recent entry. Returns whether it hit.
    fn access(&mut self, page: u64) -> bool {
        if self.pages.get(usize::from(self.mru)) == Some(&page) {
            return true;
        }
        if let Some(at) = self.find(page) {
            self.unlink(at);
            self.link_mru(at);
            return true;
        }
        let at = if self.pages.len() < self.ways {
            if self.heads.is_empty() {
                self.heads = vec![NIL; CAM_BUCKETS];
            }
            self.pages.push(page);
            self.links.push([NIL; 3]);
            (self.pages.len() - 1) as u16
        } else {
            let at = self.lru;
            self.detach(at);
            self.pages[usize::from(at)] = page;
            at
        };
        let head = std::mem::replace(&mut self.heads[Self::bucket(page)], at);
        self.links[usize::from(at)][CHAIN] = head;
        self.link_mru(at);
        false
    }

    /// Removes `page` if present. The last physical entry takes the slot
    /// it leaves, so slots stay dense and `pages.len()` is the fill level.
    fn invalidate(&mut self, page: u64) {
        let Some(at) = self.find(page) else {
            return;
        };
        self.detach(at);
        let last = (self.pages.len() - 1) as u16;
        if at != last {
            self.rechain(last, at);
            let [older, newer, _] = self.links[usize::from(last)];
            self.join(older, at, newer, at);
        }
        self.pages.swap_remove(usize::from(at));
        self.links.swap_remove(usize::from(at));
    }
}

/// The combined host-side stealth version cache: TLB extension + overflow
/// buffer, with the paper's geometry by default.
#[derive(Debug, Clone)]
pub struct StealthCache {
    /// Flat entries ride in the L2 TLB extension, keyed by page number.
    tlb_ext: PageCam,
    /// Uneven/full side entries in 56-byte blocks, keyed by
    /// `page * 4 + sub-block`.
    overflow: SetAssocCache,
    combined: CacheStats,
    /// The last `access`, while nothing has been invalidated since (module
    /// docs, "Repeats").
    last: Option<(u64, TripFormat)>,
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
            tlb_ext: PageCam::new(TLB_ENTRIES),
            overflow: SetAssocCache::new(OVERFLOW_BLOCKS / OVERFLOW_WAYS, OVERFLOW_WAYS),
            combined: CacheStats::default(),
            last: None,
        }
    }

    /// Looks up the stealth version(s) for `page` stored in `format`.
    /// Returns `true` when every structure needed to reconstruct the
    /// version was resident (no CXL access needed).
    #[inline]
    pub fn access(&mut self, page: u64, format: TripFormat) -> bool {
        if self.last == Some((page, format)) {
            self.combined.hits += 1;
            self.overflow.stats.hits += match format {
                TripFormat::Flat => 0,
                TripFormat::Uneven => 1,
                TripFormat::Full => 4,
            };
            return true;
        }
        self.access_slow(page, format)
    }

    /// The full probe behind [`access`](Self::access)'s memo, which it
    /// refills.
    #[inline(never)]
    fn access_slow(&mut self, page: u64, format: TripFormat) -> bool {
        self.last = Some((page, format));
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
        self.last = None;
        self.tlb_ext.invalidate(page);
        for sub in 0..4 {
            self.overflow.invalidate(page * 4 + sub);
        }
    }

    /// The walk on an LLC miss: READ the stealth version of `line` in
    /// `page`, then probe with the format the device answered. Returns the
    /// version, that format and whether the probe hit.
    ///
    /// # Errors
    ///
    /// The channel's errors, with nothing probed.
    pub fn read(
        &mut self,
        dev: &mut DeviceChannel,
        page: u64,
        line: usize,
    ) -> Result<(StealthVersion, TripFormat, bool)> {
        let (stealth, format) = dev.read_versioned(page, line)?;
        Ok((stealth, format, self.access(page, format)))
    }

    /// The walk on a dirty eviction: UPDATE the stealth version of `line`
    /// in `page`, probe with the page's format when the UPDATE arrived
    /// (`UpdateResponse::format`, pre-upgrade), and drop the page's cached
    /// entry if the UPDATE fired a stealth reset. Returns the response and
    /// whether the probe hit.
    ///
    /// # Errors
    ///
    /// The channel's errors, with nothing probed:
    /// [`ToleoError::DeviceFull`](crate::error::ToleoError::DeviceFull)
    /// leaves the device and this cache as they were.
    #[inline]
    pub fn update(
        &mut self,
        dev: &mut DeviceChannel,
        page: u64,
        line: usize,
    ) -> Result<(UpdateResponse, bool)> {
        let resp = dev.update(page, line)?;
        let hit = self.access(page, resp.format);
        if resp.uv_update() {
            self.invalidate_page(page);
        }
        Ok((resp, hit))
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
    /// The last key accessed; `u64::MAX` while empty (module docs,
    /// "Repeats").
    last: u64,
}

impl MacCache {
    /// Paper (Table 3) capacity per core, in KiB.
    pub const PAPER_KIB: usize = 32;
    /// Associativity at every capacity.
    pub const WAYS: usize = 16;

    /// Creates a MAC cache of `kib` kibibytes, 16-way, 64-byte blocks.
    pub fn new(kib: usize) -> Self {
        let blocks = kib * 1024 / 64;
        MacCache {
            inner: SetAssocCache::new((blocks / Self::WAYS).max(1), Self::WAYS),
            last: u64::MAX,
        }
    }

    /// Paper default: 32 KB per core.
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_KIB)
    }

    /// Accesses the MAC block covering data block `block_addr` (a 64-byte-
    /// aligned physical address). Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, block_addr: u64) -> bool {
        let key = crate::layout::mac_block_index(block_addr);
        if key == self.last {
            self.inner.stats.hits += 1;
            return true;
        }
        self.access_slow(key)
    }

    /// The full probe behind [`access`](Self::access)'s memo, which it
    /// refills.
    #[inline(never)]
    fn access_slow(&mut self, key: u64) -> bool {
        self.last = key;
        self.inner.access(key)
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::RetryPolicy;
    use crate::config::ToleoConfig;
    use crate::device::ToleoDevice;
    use crate::error::ToleoError;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The `Vec` model `SetAssocCache` was until PR 19 — every set a
    /// most-recent-first stack, every hit a `remove` and a front insert —
    /// kept verbatim as the oracle the directory is driven against: the
    /// hit / miss / victim sequence is what every fetch count downstream
    /// is made of. (CI's lint exempts lines that say `oracle` from its ban on
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

    /// Which paths through a set a differential run went through, read
    /// off the set's state before each op.
    #[derive(Debug, Default)]
    struct Seen {
        hit_mru: u64,
        hit_deeper: u64,
        rejected_candidate: u64,
        fill: u64,
        evict: u64,
        invalidate_non_last: u64,
        refill_after_invalidate: u64,
    }

    fn walk(c: &mut SetAssocCache, set: usize) -> Vec<u64> {
        c.dir.mru_first_mut(set).map(|(key, ())| key).collect()
    }

    /// What the set's layout must keep true between ops: the recency list
    /// holds each filled way once and zeros past it, and each filled way's
    /// fingerprint is its key's.
    fn check_layout(set: &Set<()>) {
        let n = set.entries.len();
        let mut ways: Vec<usize> = (0..n)
            .map(|at| (set.order >> (4 * at) & 0xf) as usize)
            .collect();
        ways.sort_unstable();
        assert_eq!(ways, (0..n).collect::<Vec<_>>(), "order {:#x}", set.order);
        assert_eq!(
            set.order & !low_nibbles(n as u32),
            0,
            "order {:#x}",
            set.order
        );
        for (way, &(key, ())) in set.entries.iter().enumerate() {
            assert_eq!(set.prints[way], fingerprint(key), "way {way}");
        }
    }

    /// A key other than `key` in the same set of `c` with the same
    /// fingerprint, searched upward from `from`.
    fn twin(c: &SetAssocCache, key: u64, from: u64) -> u64 {
        let (set, print) = (c.set_index(key), fingerprint(key));
        (from..)
            .find(|&k| k != key && c.set_index(k) == set && fingerprint(k) == print)
            .unwrap()
    }

    /// Drives a cache and the oracle through one seeded op stream over keys
    /// just above capacity, plus a twin for one key in eight so that
    /// fingerprints collide in every geometry; every return value and the
    /// touched set's walk and layout are compared after every op, every
    /// set's walk every `full_check_every` ops.
    fn drive(
        (num_sets, ways): (usize, usize),
        seed: u64,
        ops: usize,
        full_check_every: usize,
        seen: &mut Seen,
    ) {
        let mut cache = SetAssocCache::new(num_sets, ways);
        let sets = vec![Vec::new(); num_sets];
        let mut oracle = VecOracle { sets, ways };
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = (num_sets * ways) as u64;
        let plain = capacity + capacity / 4 + 2;
        let twins: Vec<u64> = (0..plain / 8 + 1)
            .map(|k| twin(&cache, k, 1 << 32))
            .collect();
        let keys: Vec<u64> = (0..plain).chain(twins).collect();
        let mut invalidated = vec![false; num_sets];
        for op in 0..ops {
            let key = keys[rng.gen_range(0..keys.len())];
            let set = cache.set_index(key);
            let before = &cache.dir.sets[set];
            let print = fingerprint(key);
            let at = before.find(key, print);
            let mru = (before.order & 0xf) as usize;
            let n = before.entries.len();
            match rng.gen_range(0..100u32) {
                0..=79 => {
                    let mut filled = before.entries.iter().zip(before.prints);
                    let rejected = filled.any(|(e, p)| p == print && e.0 != key);
                    seen.rejected_candidate += u64::from(rejected);
                    match at {
                        Some(at) if at == mru => seen.hit_mru += 1,
                        Some(_) => seen.hit_deeper += 1,
                        None if n == ways => seen.evict += 1,
                        None => {
                            seen.fill += 1;
                            seen.refill_after_invalidate += u64::from(invalidated[set]);
                            invalidated[set] = false;
                        }
                    }
                    let got = cache.access_with_victim(key);
                    let want = oracle.access_with_victim(set, key);
                    assert_eq!(got, want, "op {op}: access {key}");
                }
                80..=87 => {
                    let want = oracle.sets[set].contains(&key);
                    assert_eq!(cache.contains(key), want, "op {op}: contains");
                }
                88..=95 => {
                    if let Some(at) = at {
                        seen.invalidate_non_last += u64::from(at + 1 != n);
                        invalidated[set] = true;
                    }
                    cache.invalidate(key);
                    oracle.sets[set].retain(|&k| k != key);
                }
                _ => {
                    let want: usize = oracle.sets.iter().map(Vec::len).sum();
                    assert_eq!(cache.len(), want, "op {op}: len");
                }
            }
            check_layout(&cache.dir.sets[set]);
            assert_eq!(
                walk(&mut cache, set),
                oracle.sets[set],
                "op {op}: set {set}"
            );
            if (op + 1) % full_check_every == 0 {
                for s in 0..num_sets {
                    assert_eq!(walk(&mut cache, s), oracle.sets[s], "op {op}: set {s}");
                }
            }
        }
    }

    const GEOMETRIES: [(usize, usize); 4] = [(32, 16), (4, 8), (1, 3), (1, 1)];

    #[test]
    fn ring_matches_vec_oracle() {
        for geometry in GEOMETRIES {
            let mut seen = Seen::default();
            for case in 0..24 {
                drive(geometry, 0x19 + case, 1500, 1, &mut seen);
            }
            // The stream must actually have taken every path through a
            // set. A one-way set has no second way to hit or to move into
            // a hole.
            let always = [
                seen.hit_mru,
                seen.rejected_candidate,
                seen.fill,
                seen.evict,
                seen.refill_after_invalidate,
            ];
            let deeper = [seen.hit_deeper, seen.invalidate_non_last];
            assert!(always.iter().all(|&n| n > 0), "{geometry:?}: {seen:?}");
            assert!(
                geometry.1 == 1 || deeper.iter().all(|&n| n > 0),
                "{geometry:?}: {seen:?}"
            );
        }
    }

    /// The same differential over 8 M ops: seconds in release, minutes in
    /// debug — CI's release leg runs it with `-- --ignored`.
    #[test]
    #[ignore = "8 M-op soak; run in release"]
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

    /// An absent key must cost nothing: `invalidate_page` asks for four
    /// overflow sub-blocks per reset and most were never filled. A
    /// present one that is not in the last way gets that way's entry,
    /// fingerprint and nibble.
    #[test]
    fn invalidate_of_an_absent_key_leaves_the_ring_untouched() {
        let mut dir = LruDirectory::new(1, 4);
        for key in 0..6 {
            dir.access(0, key, ());
        }
        dir.access(0, 3, ());
        let before = dir.sets[0].clone();
        assert_eq!(before.entries, [(4, ()), (5, ()), (2, ()), (3, ())]);
        assert_eq!(before.order, 0x2013, "mru first: ways 3, 1, 0, 2");
        dir.invalidate(0, 99);
        let after = &dir.sets[0];
        assert_eq!((after.prints, after.order), (before.prints, before.order));
        assert_eq!(after.entries, before.entries);

        dir.invalidate(0, 4);
        let after = &dir.sets[0];
        assert_eq!(after.entries, [(3, ()), (5, ()), (2, ())]);
        assert_eq!(after.order, 0x210, "mru first: ways 0, 1, 2");
        let p = before.prints;
        assert_eq!(after.prints[..3], [p[3], p[1], p[2]], "way 3's byte moved");
    }

    /// Two keys of one set with one fingerprint: the second misses past
    /// the first's matching byte and fills beside it, and each leaves on
    /// its own.
    #[test]
    fn keys_that_share_a_set_and_a_fingerprint_stay_apart() {
        let mut c = SetAssocCache::new(32, 16);
        let a = 7;
        let b = twin(&c, a, 1 << 40);
        assert!(!c.access(a));
        assert!(c.contains(a) && !c.contains(b));
        assert!(!c.access(b), "a matching fingerprint is not a hit");
        assert!(c.access(a) && c.access(b));
        c.invalidate(a);
        assert!(!c.contains(a) && c.contains(b));
        assert!(!c.access(a), "a refills after its invalidate");
        c.invalidate(b);
        assert!(c.contains(a) && !c.contains(b));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 3 });
        check_layout(&c.dir.sets[c.set_index(a)]);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_panics() {
        SetAssocCache::new(1, 17);
    }

    /// Which `PageCam` transitions a differential run went through, read
    /// off the CAM's state before each op.
    #[derive(Debug, Default)]
    struct CamSeen {
        hit_mru: u64,
        hit_chained: u64,
        hit_lru: u64,
        fill: u64,
        evict_bucket_head: u64,
        evict_mid_chain: u64,
        invalidate_mru: u64,
        invalidate_lru: u64,
        invalidate_last_slot: u64,
        invalidate_middle_slot: u64,
        refill_after_invalidate: u64,
    }

    /// `(depth, has_next)` of slot `at` in its bucket's chain.
    fn chain_place(cam: &PageCam, at: u16) -> (usize, bool) {
        let mut walk = cam.heads[PageCam::bucket(cam.pages[usize::from(at)])];
        let mut depth = 0;
        while walk != at {
            walk = cam.links[usize::from(walk)][CHAIN];
            depth += 1;
        }
        (depth, cam.links[usize::from(at)][CHAIN] != NIL)
    }

    fn cam_walk(cam: &PageCam) -> Vec<u64> {
        let mut at = cam.mru;
        std::iter::from_fn(|| {
            let page = *cam.pages.get(usize::from(at))?;
            at = cam.links[usize::from(at)][OLDER];
            Some(page)
        })
        .collect()
    }

    /// Drives a `PageCam` and a one-set oracle through one seeded stream
    /// of accesses and ~8% invalidations over pages just above capacity;
    /// the hit / miss answer and the whole recency walk are compared
    /// after every op.
    fn drive_cam(ways: usize, seed: u64, ops: usize, seen: &mut CamSeen) {
        let mut cam = PageCam::new(ways);
        let sets = vec![Vec::new()];
        let mut oracle = VecOracle { sets, ways };
        let mut rng = StdRng::seed_from_u64(seed);
        // Random page numbers: the multiplicative hash spreads a run of
        // consecutive ones too evenly for two to share a bucket.
        let pages: Vec<u64> = (0..ways + ways / 4 + 2)
            .map(|_| rng.gen_range(0..1u64 << 52))
            .collect();
        let mut invalidated = false;
        for op in 0..ops {
            let page = pages[rng.gen_range(0..pages.len())];
            let at = cam.find(page);
            if rng.gen_range(0..100u32) < 92 {
                match at {
                    Some(at) => {
                        seen.hit_mru += u64::from(at == cam.mru);
                        seen.hit_lru += u64::from(at == cam.lru);
                        seen.hit_chained += u64::from(chain_place(&cam, at).0 >= 2);
                    }
                    None if cam.pages.len() == ways => {
                        let (depth, has_next) = chain_place(&cam, cam.lru);
                        seen.evict_bucket_head += u64::from(depth == 0);
                        seen.evict_mid_chain += u64::from(depth > 0 && has_next);
                    }
                    None => {
                        seen.fill += 1;
                        seen.refill_after_invalidate += u64::from(invalidated);
                        invalidated = false;
                    }
                }
                let want = oracle.access_with_victim(0, page).0;
                assert_eq!(cam.access(page), want, "op {op}: access {page}");
            } else {
                if let Some(at) = at {
                    let last = cam.pages.len() - 1;
                    seen.invalidate_mru += u64::from(at == cam.mru);
                    seen.invalidate_lru += u64::from(at == cam.lru);
                    seen.invalidate_last_slot += u64::from(usize::from(at) == last);
                    seen.invalidate_middle_slot += u64::from(usize::from(at) != last);
                    invalidated = true;
                }
                cam.invalidate(page);
                oracle.sets[0].retain(|&k| k != page);
            }
            assert_eq!(cam_walk(&cam), oracle.sets[0], "op {op}");
            assert_eq!(cam.links.len(), cam.pages.len(), "op {op}");
        }
    }

    const CAM_WAYS: [usize; 4] = [256, 16, 3, 1];

    #[test]
    fn cam_matches_vec_oracle() {
        for ways in CAM_WAYS {
            let mut seen = CamSeen::default();
            for case in 0..24 {
                drive_cam(ways, 0x23 + case, 4000, &mut seen);
            }
            // Every path through the CAM must actually have been taken.
            // Chains two deep need the paper's size; a one-entry CAM has
            // one slot, which is every end at once.
            let always = [
                seen.hit_mru,
                seen.hit_lru,
                seen.fill,
                seen.evict_bucket_head,
                seen.invalidate_mru,
                seen.invalidate_lru,
                seen.invalidate_last_slot,
                seen.refill_after_invalidate,
            ];
            let chains = [seen.hit_chained, seen.evict_mid_chain];
            assert!(always.iter().all(|&n| n > 0), "{ways}: {seen:?}");
            assert!(
                ways == 1 || seen.invalidate_middle_slot > 0,
                "{ways}: {seen:?}"
            );
            assert!(
                ways < 256 || chains.iter().all(|&n| n > 0),
                "{ways}: {seen:?}"
            );
        }
    }

    /// The same differential over 8 M ops: CI's release leg runs it with
    /// `-- --ignored`, beside the directory's.
    #[test]
    #[ignore = "8 M-op soak; run in release"]
    fn cam_matches_vec_oracle_soak() {
        for (i, ways) in CAM_WAYS.into_iter().enumerate() {
            drive_cam(ways, 0x50a4 + i as u64, 2_000_000, &mut CamSeen::default());
        }
    }

    /// `churn` is 16 pages on one engine and `heap_peak_bytes_per_block`
    /// sees every byte a cache allocates ahead of use: the CAM's arrays
    /// grow with the pages resident and its head table waits for the
    /// first one.
    #[test]
    fn stealth_cache_owns_no_heap_until_used_and_little_at_16_pages() {
        let mut sc = StealthCache::paper_default();
        let cam = &sc.tlb_ext;
        let capacities = [
            cam.pages.capacity(),
            cam.links.capacity(),
            cam.heads.capacity(),
        ];
        assert_eq!(capacities, [0; 3]);
        assert!(sc
            .overflow
            .dir
            .sets
            .iter()
            .all(|s| s.entries.capacity() == 0));

        for page in 0..16 {
            sc.access(page, TripFormat::Flat);
        }
        let cam = &sc.tlb_ext;
        let entries = cam.pages.capacity() * 8 + cam.links.capacity() * 6;
        assert!(entries <= 16 * 14, "{entries} bytes of entries");
        assert_eq!(cam.heads.capacity() * 2, 1024);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(1, 2);
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
        let mut c = SetAssocCache::new(1, 4);
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
        assert_eq!(SetAssocCache::new(1, 4).stats().hit_rate(), 0.0);
        assert!(SetAssocCache::new(1, 4).is_empty());
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
            tlb_ext: PageCam::new(8),
            overflow: SetAssocCache::new(1, 8),
            combined: CacheStats::default(),
            last: None,
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

    /// Every overflow set's recency walk.
    fn overflow_walks(sc: &mut StealthCache) -> Vec<Vec<u64>> {
        (0..sc.overflow.dir.num_sets())
            .map(|set| walk(&mut sc.overflow, set))
            .collect()
    }

    /// How often a memo differential took each path.
    #[derive(Debug, Default)]
    struct MemoSeen {
        repeats: [u64; 3],
        invalidate_memo_page: u64,
        invalidate_other_page: u64,
        misses: u64,
    }

    /// Stealth-cache geometries `(CAM entries, overflow sets, ways)`: the
    /// paper's, and one-set buffers where a Full page's four sub-blocks
    /// share a set, down to four ways.
    const MEMO_GEOMETRIES: [(usize, usize, usize); 4] =
        [(256, 32, 16), (8, 1, 8), (4, 1, 4), (16, 4, 4)];

    /// Drives a memoized `StealthCache` beside a twin that always takes
    /// the full probe, over one seeded stream: about half the ops repeat
    /// the previous `(page, format)`, the rest pick a page just past the
    /// CAM's reach and any of the three formats, and ~6% invalidate the
    /// memo page or another. Every answer and both stats are compared
    /// after every op, the CAM walk and every overflow walk every
    /// `full_check_every` ops.
    fn drive_stealth_memo(
        (cam, sets, ways): (usize, usize, usize),
        seed: u64,
        ops: usize,
        full_check_every: usize,
        seen: &mut MemoSeen,
    ) {
        let build = || StealthCache {
            tlb_ext: PageCam::new(cam),
            overflow: SetAssocCache::new(sets, ways),
            combined: CacheStats::default(),
            last: None,
        };
        let (mut memo, mut twin) = (build(), build());
        let mut rng = StdRng::seed_from_u64(seed);
        let pages = (cam + cam / 4 + 2) as u64;
        let formats = [TripFormat::Flat, TripFormat::Uneven, TripFormat::Full];
        let (mut page, mut format) = (0, TripFormat::Flat);
        for op in 0..ops {
            let roll = rng.gen_range(0..100u32);
            if roll < 6 {
                let target = if roll < 3 {
                    page
                } else {
                    rng.gen_range(0..pages)
                };
                let on_memo = memo.last.is_some_and(|(p, _)| p == target);
                seen.invalidate_memo_page += u64::from(on_memo);
                seen.invalidate_other_page += u64::from(!on_memo);
                memo.invalidate_page(target);
                twin.invalidate_page(target);
            } else {
                if roll >= 50 {
                    page = rng.gen_range(0..pages);
                    format = formats[rng.gen_range(0..3usize)];
                }
                if memo.last == Some((page, format)) {
                    seen.repeats[format as usize] += 1;
                }
                let got = memo.access(page, format);
                assert_eq!(got, twin.access_slow(page, format), "op {op}");
                seen.misses += u64::from(!got);
            }
            assert_eq!(memo.stats(), twin.stats(), "op {op}");
            assert_eq!(memo.overflow.stats(), twin.overflow.stats(), "op {op}");
            if (op + 1) % full_check_every == 0 {
                let cam = cam_walk(&twin.tlb_ext);
                assert_eq!(cam_walk(&memo.tlb_ext), cam, "op {op}");
                let overflow = overflow_walks(&mut twin);
                assert_eq!(overflow_walks(&mut memo), overflow, "op {op}");
            }
        }
    }

    #[test]
    fn stealth_cache_memo_matches_the_full_probe() {
        for geometry in MEMO_GEOMETRIES {
            let mut seen = MemoSeen::default();
            for case in 0..8 {
                drive_stealth_memo(geometry, 0x45 + case, 1500, 1, &mut seen);
            }
            let paths = [
                seen.invalidate_memo_page,
                seen.invalidate_other_page,
                seen.misses,
            ];
            assert!(
                seen.repeats.iter().all(|&n| n > 0),
                "{geometry:?}: {seen:?}"
            );
            assert!(paths.iter().all(|&n| n > 0), "{geometry:?}: {seen:?}");
        }
    }

    /// Drives a memoized `MacCache` beside a twin that always probes: about
    /// half the ops stay in the previous op's MAC block (any of its eight
    /// lines), the rest go anywhere in a span just past capacity. Answers
    /// and stats are compared after every op, every set's walk every
    /// `full_check_every` ops; returns the number of repeats.
    fn drive_mac_memo(kib: usize, seed: u64, ops: usize, full_check_every: usize) -> u64 {
        let (mut memo, mut twin) = (MacCache::new(kib), MacCache::new(kib));
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = (kib * 1024 / 64 + kib * 4 + 2) as u64;
        let (mut key, mut repeats) = (0, 0);
        for op in 0..ops {
            if rng.gen_bool(0.5) {
                key = rng.gen_range(0..keys);
            }
            repeats += u64::from(memo.last == key);
            let addr = key * 512 + rng.gen_range(0..8u64) * 64;
            assert_eq!(memo.access(addr), twin.access_slow(key), "op {op}");
            assert_eq!(memo.stats(), twin.stats(), "op {op}");
            if (op + 1) % full_check_every == 0 {
                for set in 0..memo.inner.dir.num_sets() {
                    let want = walk(&mut twin.inner, set);
                    assert_eq!(walk(&mut memo.inner, set), want, "op {op}: set {set}");
                }
            }
        }
        repeats
    }

    #[test]
    fn mac_cache_memo_matches_the_full_probe() {
        for kib in [32, 1] {
            let repeats: u64 = (0..8)
                .map(|case| drive_mac_memo(kib, 0x4d + case, 1500, 1))
                .sum();
            assert!(repeats > 0, "{kib} KiB: no repeat was taken");
        }
    }

    /// Both memo differentials over ~8 M ops: CI's release leg runs them
    /// with `-- --ignored`, beside the oracle soaks.
    #[test]
    #[ignore = "8 M-op soak; run in release"]
    fn cache_memos_match_the_full_probe_soak() {
        for (i, geometry) in MEMO_GEOMETRIES.into_iter().enumerate() {
            drive_stealth_memo(
                geometry,
                0x50a4 + i as u64,
                1_000_000,
                4096,
                &mut MemoSeen::default(),
            );
        }
        for (i, kib) in [32, 1].into_iter().enumerate() {
            drive_mac_memo(kib, 0x50a4 + i as u64, 2_000_000, 4096);
        }
    }

    fn bare_channel(cfg: ToleoConfig) -> DeviceChannel {
        let dev = ToleoDevice::new(cfg).unwrap();
        DeviceChannel::new(dev, None, RetryPolicy::default())
    }

    /// The reset arm of the walk: at `reset_log2 = 1` half the UPDATEs
    /// that advance a hot line's page reset it, and each one must leave
    /// the page uncached so the next READ misses; every other UPDATE
    /// leaves it resident.
    #[test]
    fn an_update_that_resets_its_page_leaves_it_uncached() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 1;
        let mut dev = bare_channel(cfg);
        let mut sc = StealthCache::paper_default();
        let (mut resets, mut kept) = (0, 0);
        for _ in 0..200 {
            let (resp, _) = sc.update(&mut dev, 3, 0).unwrap();
            if resp.uv_update() {
                resets += 1;
                assert_eq!(sc.tlb_ext.find(3), None);
                let misses = sc.stats().misses;
                let (_, format, hit) = sc.read(&mut dev, 3, 0).unwrap();
                assert_eq!(format, TripFormat::Flat, "a reset page is flat");
                assert!(!hit, "the READ after a reset must miss");
                assert_eq!(sc.stats().misses, misses + 1);
            } else {
                kept += 1;
                assert!(sc.tlb_ext.find(3).is_some());
            }
        }
        assert!(resets > 20 && kept > 20, "{resets} resets, {kept} kept");
        assert_eq!(dev.device().stats().stealth_resets, resets);
    }

    /// A refused walk changes nothing: an upgrading UPDATE against a
    /// dynamic region of zero blocks returns `DeviceFull` and a READ out
    /// of range `PageOutOfRange`, each with the cache's stats, the
    /// device's versions, format and usage as they were.
    #[test]
    fn a_refused_walk_leaves_cache_and_device_untouched() {
        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = cfg.flat_array_bytes(); // zero dynamic blocks
        let mut dev = bare_channel(cfg);
        let mut sc = StealthCache::paper_default();
        sc.update(&mut dev, 0, 3).unwrap();
        let version = dev.read_versioned(0, 3).unwrap();
        let (cache, usage) = (sc.stats(), dev.device().usage());
        let updates = dev.device().stats().updates;

        let refused = sc.update(&mut dev, 0, 3);
        assert!(matches!(refused, Err(ToleoError::DeviceFull { page: 0 })));
        let pages = dev.config().protected_pages();
        assert!(sc.read(&mut dev, pages, 0).is_err());

        assert_eq!(sc.stats(), cache);
        assert_eq!(dev.device().usage(), usage);
        assert_eq!(dev.device().stats().updates, updates);
        assert_eq!(dev.device().stats().rejected_full, 1);
        assert_eq!(dev.read_versioned(0, 3).unwrap(), version);
        assert_eq!(version.1, TripFormat::Flat);
    }
}
