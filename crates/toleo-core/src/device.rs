//! The Toleo device: trusted smart memory storing stealth versions.
//!
//! The device accepts the paper's three request types (§5):
//!
//! * **READ** — return the stealth version of a cache block.
//! * **UPDATE** — increment and return the stealth version of a cache block
//!   (issued on every LLC dirty-eviction / memory write).
//! * **RESET** — OS-initiated downgrade of a page to flat (page free or
//!   remap), which re-randomizes the stealth base.
//!
//! UPDATE may additionally signal **UV_UPDATE** back to the host when the
//! probabilistic stealth reset fires; the host then increments the page's
//! shared upper version and re-encrypts the page.
//!
//! The device owns a statically mapped flat-entry array (one 12-byte entry
//! per protected page) and a dynamic region from which uneven (1 block) and
//! full (4 block) side entries are allocated. When the dynamic region is
//! exhausted, upgrades are rejected with [`ToleoError::DeviceFull`] until
//! the host frees space via RESET.
//!
//! A page is **born** at the first UPDATE the device accepts after it
//! materialized the page or RESET it, and the UPDATE's response says so
//! ([`UpdateResponse::born`]). The host then blanks the page's other lines
//! instead of trusting whatever untrusted memory holds for them. The bit
//! lives in the page's entry, a trusted fact the adversary cannot set: a
//! `DeviceFull` refusal is no birth, a stealth reset's fresh entry is born
//! already, and the channel replays a dropped response whole, so a page
//! is born once.
//!
//! An UPDATE is check → write → count → maybe reset: the page's entry
//! decides the write once against the region's free blocks
//! (`PageEntry::record_write_within`), which is the one place a
//! device-full refusal is made. The stealth reset and the OS RESET share
//! one routine that swaps a fresh flat entry in; a stealth reset hands the
//! replaced entry to the host in its [`ResetNotice`].
//!
//! # Repeats
//!
//! Page-local traffic asks for the same page op after op, so the device
//! remembers the `(page, entry index)` its page lookup last returned and
//! answers a repeat with one compare instead of a hash probe. The memo is
//! exact: `entries` is only pushed to and replaced in place, never moved
//! or shrunk, so a remembered index names that page's entry for the
//! device's lifetime; and a memo hit means the page is already
//! materialized, so no first-touch base draw is skipped or reordered.
//! The empty memo is page `u64::MAX`, which `check_page` refuses before
//! any lookup and the page index never holds.

// audit: allow-file(indexing, entry indices come from the page index that allocated them, or from the one-entry memo of its last answer)

use crate::config::{ToleoConfig, DYNAMIC_BLOCK_BYTES, FLAT_ENTRY_BYTES};
use crate::error::{Result, ToleoError};
use crate::pagetable::PageIndex;
use crate::trip::{PageEntry, TripFormat, UpdateEffect};
use crate::version::StealthVersion;
use toleo_crypto::range::DRange;

/// Streamed to the host when a stealth reset fires: the page's replaced
/// Trip entry, which the host asks for each block's pre-reset version to
/// decrypt it before re-encrypting under the incremented UV and the fresh
/// stealth base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetNotice {
    /// The page's entry immediately before the reset (after the
    /// triggering write's increment).
    pub old: PageEntry,
    /// The page's fresh shared stealth base after the reset, so the host
    /// can re-encrypt without a follow-up READ round trip.
    pub new_base: StealthVersion,
}

/// Outcome of an UPDATE request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateResponse {
    /// The cache block's new stealth version (post-reset if one fired).
    pub stealth: StealthVersion,
    /// The page's Trip format at the time the request arrived (pre-upgrade),
    /// which is what the host's stealth-cache lookup raced against.
    pub format: TripFormat,
    /// If set, the stealth versions of the page were reset: the host must
    /// increment the page's UV and re-encrypt all its cache blocks
    /// (UV_UPDATE in the paper's protocol, §5).
    pub reset: Option<ResetNotice>,
    /// Whether this is the page's birth: the first UPDATE the device
    /// accepted since it materialized or RESET the page. The host then
    /// blanks every other line of the page instead of walking it.
    pub born: bool,
}

impl UpdateResponse {
    /// Whether this update fired a stealth reset (UV_UPDATE).
    pub fn uv_update(&self) -> bool {
        self.reset.is_some()
    }

    /// After a birth, the stealth version of every line but the written
    /// one; `None` for any other UPDATE. A birth is the first write to a
    /// fresh flat entry, which lifts the written line to base + 1 and
    /// leaves the rest at the base; a reset fired by the same UPDATE puts
    /// every line at its new base.
    pub fn birth_version(&self, stealth_bits: u32) -> Option<StealthVersion> {
        self.born.then(|| match &self.reset {
            Some(notice) => notice.new_base,
            // `+ (2^32 − 1)` wraps to `− 1` within any width up to 32.
            None => self.stealth.offset_by(u32::MAX, stealth_bits),
        })
    }
}

/// Running usage statistics, sampled for Fig. 11/12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceUsage {
    /// Pages currently in flat format that have been touched.
    pub flat_pages: u64,
    /// Pages currently in uneven format.
    pub uneven_pages: u64,
    /// Pages currently in full format.
    pub full_pages: u64,
    /// Bytes of statically mapped flat entries for *touched* pages (the
    /// paper derives static usage from RSS).
    pub flat_bytes: u64,
    /// Bytes of dynamically allocated side entries.
    pub dynamic_bytes: u64,
}

impl DeviceUsage {
    /// Total Toleo bytes in use for the touched working set.
    pub fn total_bytes(&self) -> u64 {
        self.flat_bytes + self.dynamic_bytes
    }
}

/// Cumulative event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// READ requests served.
    pub reads: u64,
    /// UPDATE requests served.
    pub updates: u64,
    /// OS RESET (downgrade) requests served.
    pub resets: u64,
    /// Probabilistic stealth resets fired (each implies one UV_UPDATE).
    pub stealth_resets: u64,
    /// Flat -> uneven upgrades.
    pub upgrades_to_uneven: u64,
    /// Uneven -> full upgrades.
    pub upgrades_to_full: u64,
    /// Updates rejected because the dynamic region was exhausted.
    pub rejected_full: u64,
}

impl DeviceStats {
    /// Accumulates another device's counters into this one (used to
    /// aggregate per-shard devices in a sharded deployment).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads += other.reads;
        self.updates += other.updates;
        self.resets += other.resets;
        self.stealth_resets += other.stealth_resets;
        self.upgrades_to_uneven += other.upgrades_to_uneven;
        self.upgrades_to_full += other.upgrades_to_full;
        self.rejected_full += other.rejected_full;
    }
}

/// The trusted Toleo smart-memory device.
///
/// # Examples
///
/// ```
/// use toleo_core::config::ToleoConfig;
/// use toleo_core::device::ToleoDevice;
///
/// let mut dev = ToleoDevice::new(ToleoConfig::small()).unwrap();
/// let v0 = dev.read(0, 0).unwrap();
/// let r = dev.update(0, 0).unwrap();
/// assert_eq!(r.stealth.raw(), v0.raw().wrapping_add(1) & ((1 << 27) - 1));
/// ```
#[derive(Debug)]
pub struct ToleoDevice {
    cfg: ToleoConfig,
    /// Flat open-addressed `page -> entry` index over `entries`. Pages are
    /// materialized on first touch with a random base (the full array is
    /// statically mapped in hardware; sparseness here is a simulation
    /// artifact), and the index probe is one multiply-shift hash plus a
    /// short linear scan — this runs on every READ and UPDATE.
    index: PageIndex,
    /// Dense storage for materialized page entries.
    entries: Vec<PageEntry>,
    /// `(page, index into entries)` of the last lookup; page `u64::MAX`
    /// while empty (see the module docs, "Repeats").
    last: (u64, usize),
    /// Allocated dynamic blocks (56 B each).
    dynamic_blocks_used: u64,
    /// Capacity of the dynamic region in blocks.
    dynamic_blocks_cap: u64,
    rng: DRange,
    stats: DeviceStats,
}

impl ToleoDevice {
    /// Creates a device for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ToleoError::InvalidConfig`] if `cfg` fails
    /// [`ToleoConfig::validate`].
    pub fn new(cfg: ToleoConfig) -> Result<Self> {
        cfg.validate()
            .map_err(|detail| ToleoError::InvalidConfig { detail })?;
        let dynamic_blocks_cap = cfg.dynamic_region_bytes() / DYNAMIC_BLOCK_BYTES as u64;
        let rng = DRange::from_seed(cfg.rng_seed);
        Ok(ToleoDevice {
            cfg,
            index: PageIndex::new(),
            entries: Vec::new(),
            last: (u64::MAX, 0),
            dynamic_blocks_used: 0,
            dynamic_blocks_cap,
            rng,
            stats: DeviceStats::default(),
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &ToleoConfig {
        &self.cfg
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Current space usage snapshot.
    pub fn usage(&self) -> DeviceUsage {
        let mut u = DeviceUsage::default();
        for entry in &self.entries {
            match entry.format() {
                TripFormat::Flat => u.flat_pages += 1,
                TripFormat::Uneven => u.uneven_pages += 1,
                TripFormat::Full => u.full_pages += 1,
            }
        }
        u.flat_bytes = self.entries.len() as u64 * FLAT_ENTRY_BYTES as u64;
        u.dynamic_bytes = self.dynamic_blocks_used * DYNAMIC_BLOCK_BYTES as u64;
        u
    }

    fn check_page(&self, page: u64) -> Result<()> {
        let pages = self.cfg.protected_pages();
        if page >= pages {
            return Err(ToleoError::PageOutOfRange { page, pages });
        }
        Ok(())
    }

    /// READ: the stealth version of cache block `line` in `page`.
    ///
    /// # Errors
    ///
    /// [`ToleoError::PageOutOfRange`] for addresses beyond the protected
    /// pool.
    pub fn read(&mut self, page: u64, line: usize) -> Result<StealthVersion> {
        self.read_versioned(page, line).map(|(stealth, _)| stealth)
    }

    /// READ plus the page's Trip format, from a single flat-array probe.
    /// The host needs both on every LLC miss (the format decides which
    /// stealth-cache structures the lookup raced against), so answering
    /// them together halves the device probes on the read hot path.
    ///
    /// # Errors
    ///
    /// [`ToleoError::PageOutOfRange`] for addresses beyond the protected
    /// pool.
    pub fn read_versioned(
        &mut self,
        page: u64,
        line: usize,
    ) -> Result<(StealthVersion, TripFormat)> {
        self.check_page(page)?;
        self.stats.reads += 1;
        let ToleoDevice {
            cfg,
            index,
            entries,
            last,
            rng,
            ..
        } = self;
        let entry = materialize(index, entries, last, rng, cfg.stealth_bits, page);
        Ok((entry.version_of(line, cfg), entry.format()))
    }

    /// Serves a whole run of READs against one page from a *single*
    /// flat-array probe, amortizing the index lookup that
    /// [`read_versioned`](Self::read_versioned) pays per line. Counts one
    /// READ per requested line, exactly as the per-op path would. No
    /// in-tree caller — the engine reads one line at a time; this stays
    /// only because `benchmark/` times it
    /// (`core.device.read_run_ns_per_op`), and the `benchmark` PR that
    /// drops that row deletes it.
    ///
    /// # Errors
    ///
    /// [`ToleoError::PageOutOfRange`] for addresses beyond the protected
    /// pool (in which case no READ is counted and `out` is left empty).
    pub fn read_run(
        &mut self,
        page: u64,
        lines: &[usize],
        out: &mut Vec<(StealthVersion, TripFormat)>,
    ) -> Result<()> {
        out.clear();
        self.check_page(page)?;
        self.stats.reads += lines.len() as u64;
        let ToleoDevice {
            cfg,
            index,
            entries,
            last,
            rng,
            ..
        } = self;
        let entry = materialize(index, entries, last, rng, cfg.stealth_bits, page);
        let format = entry.format();
        out.extend(lines.iter().map(|&l| (entry.version_of(l, cfg), format)));
        Ok(())
    }

    /// UPDATE: increment and return the stealth version of a cache block,
    /// possibly firing the probabilistic stealth reset.
    ///
    /// # Errors
    ///
    /// [`ToleoError::DeviceFull`] if the update requires an uneven/full
    /// allocation and the dynamic region is exhausted;
    /// [`ToleoError::PageOutOfRange`] for bad addresses. On `DeviceFull`
    /// the version state is unchanged — the host may retry after freeing
    /// space.
    pub fn update(&mut self, page: u64, line: usize) -> Result<UpdateResponse> {
        self.check_page(page)?;
        let ToleoDevice {
            cfg,
            index,
            entries,
            last,
            dynamic_blocks_used,
            dynamic_blocks_cap,
            rng,
            stats,
        } = self;
        let entry = materialize(index, entries, last, rng, cfg.stealth_bits, page);
        let format = entry.format();
        let held = entry.dynamic_blocks();
        let room = *dynamic_blocks_cap - *dynamic_blocks_used;
        let Some((effect, advanced)) = entry.record_write_within(line, room, cfg) else {
            stats.rejected_full += 1;
            return Err(ToleoError::DeviceFull { page });
        };
        stats.updates += 1;
        let born = !entry.is_born();
        entry.set_born();
        *dynamic_blocks_used += (entry.dynamic_blocks() - held) as u64;
        match effect {
            UpdateEffect::UpgradedToUneven => stats.upgrades_to_uneven += 1,
            UpdateEffect::UpgradedToFull => stats.upgrades_to_full += 1,
            UpdateEffect::None => {}
        }
        // Reset check (§4.3): only when the page's leading version advanced.
        let mut reset = None;
        if advanced && rng.one_in_pow2(cfg.reset_log2) {
            let new_base = random_base(rng, cfg.stealth_bits);
            let old = reset_entry(entry, new_base, dynamic_blocks_used);
            entry.set_born();
            stats.stealth_resets += 1;
            reset = Some(ResetNotice { old, new_base });
        }
        Ok(UpdateResponse {
            stealth: entry.version_of(line, cfg),
            format,
            reset,
            born,
        })
    }

    /// RESET: OS-initiated downgrade of `page` to flat (free / remap). The
    /// stealth base re-randomizes and the page is unborn again, so its
    /// next accepted UPDATE is a birth; the host must also bump the UV,
    /// which scrambles the old contents (their MACs can no longer verify).
    ///
    /// Returns the page's new shared stealth version.
    ///
    /// # Errors
    ///
    /// [`ToleoError::PageOutOfRange`] for bad addresses.
    pub fn reset(&mut self, page: u64) -> Result<StealthVersion> {
        self.check_page(page)?;
        self.stats.resets += 1;
        let bits = self.cfg.stealth_bits;
        // The fresh base is drawn before a first touch materializes the page.
        let base = random_base(&mut self.rng, bits);
        let entry = materialize(
            &mut self.index,
            &mut self.entries,
            &mut self.last,
            &mut self.rng,
            bits,
            page,
        );
        reset_entry(entry, base, &mut self.dynamic_blocks_used);
        Ok(base)
    }

    /// Read-only peek at a page's shared stealth base, if the page has
    /// been touched. For analysis and tests; does not count as a READ and
    /// does not materialize the page.
    pub fn peek_base(&self, page: u64) -> Option<StealthVersion> {
        self.index
            .get(page)
            .map(|i| self.entries[i as usize].base())
    }

    /// Whether `page` is born (see [`UpdateResponse::born`]); an untouched
    /// page is not. Like [`peek_base`](Self::peek_base), no READ is
    /// counted and nothing is materialized: recovery asks this of a dead
    /// shard's device post-mortem.
    pub fn is_born(&self, page: u64) -> bool {
        self.index
            .get(page)
            .is_some_and(|i| self.entries[i as usize].is_born())
    }

    /// Marks a page this device has already materialized as born, with no
    /// UPDATE: recovery carries each page's birth over to a fresh device
    /// after reading the page through it. An untouched page is left as it
    /// is.
    pub(crate) fn mark_born(&mut self, page: u64) {
        if let Some(i) = self.index.get(page) {
            self.entries[i as usize].set_born();
        }
    }
}

/// Swaps a fresh flat entry at `base` in for `entry`, returns the old
/// side entry's blocks to the dynamic region, and hands back the replaced
/// entry. The stealth reset and the OS RESET both end here.
fn reset_entry(entry: &mut PageEntry, base: StealthVersion, used: &mut u64) -> PageEntry {
    let old = std::mem::replace(entry, PageEntry::new_flat(base));
    *used -= old.dynamic_blocks() as u64;
    old
}

fn random_base(rng: &mut DRange, bits: u32) -> StealthVersion {
    StealthVersion::new(rng.below(1u64 << bits), bits)
}

/// First-touch materialization of a page's flat entry, shared by every
/// request path. A free function over the split borrows so callers holding
/// other `ToleoDevice` fields can still use it. A repeat of the last page
/// is answered from `last` (module docs, "Repeats").
#[inline]
fn materialize<'a>(
    index: &mut PageIndex,
    entries: &'a mut Vec<PageEntry>,
    last: &mut (u64, usize),
    rng: &mut DRange,
    bits: u32,
    page: u64,
) -> &'a mut PageEntry {
    if last.0 == page {
        return &mut entries[last.1];
    }
    materialize_slow(index, entries, last, rng, bits, page)
}

/// The index probe behind [`materialize`]'s memo, which it refills.
#[inline(never)]
fn materialize_slow<'a>(
    index: &mut PageIndex,
    entries: &'a mut Vec<PageEntry>,
    last: &mut (u64, usize),
    rng: &mut DRange,
    bits: u32,
    page: u64,
) -> &'a mut PageEntry {
    let slot = match index.get(page) {
        Some(i) => i as usize,
        None => {
            // audit: allow(panic, 2^32 page entries exhaust memory long before this overflows; a wrapped index would alias two pages)
            let i = u32::try_from(entries.len()).expect("device entry count fits u32");
            entries.push(PageEntry::new_flat(random_base(rng, bits)));
            index.insert(page, i);
            i as usize
        }
    };
    *last = (page, slot);
    &mut entries[slot]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LINES_PER_PAGE, MAX_UNEVEN_OFFSET};

    fn dev() -> ToleoDevice {
        ToleoDevice::new(ToleoConfig::small()).unwrap()
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = ToleoConfig::small();
        cfg.stealth_bits = 0; // fails validate()
        match ToleoDevice::new(cfg) {
            Err(ToleoError::InvalidConfig { detail }) => {
                assert!(detail.contains("stealth_bits"), "detail: {detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }

        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = cfg.flat_array_bytes() - 1; // too small
        assert!(matches!(
            ToleoDevice::new(cfg),
            Err(ToleoError::InvalidConfig { .. })
        ));
    }

    /// `read_run` against the per-line READ it amortizes: same versions,
    /// same formats, same `DeviceStats`, over flat, uneven and full pages.
    #[test]
    fn read_run_matches_per_line_reads() {
        let (mut run, mut per_line) = (dev(), dev());
        for i in 0..600usize {
            // Page 0 is swept evenly (flat), page 1 has one line 200
            // writes ahead (full), page 2 a few lines a little ahead
            // (uneven).
            let (page, line) = match i % 3 {
                0 => (0, i % LINES_PER_PAGE),
                1 => (1, 7),
                _ => (2, (i * i) % 23),
            };
            run.update(page, line).unwrap();
            per_line.update(page, line).unwrap();
        }
        let mut got = vec![(StealthVersion::new(0, 27), TripFormat::Flat)];
        for page in 0..4u64 {
            let lines: Vec<usize> = (0..40).map(|k| (k * 5 + page as usize) % 64).collect();
            run.read_run(page, &lines, &mut got).unwrap();
            let want: Vec<_> = lines
                .iter()
                .map(|&l| per_line.read_versioned(page, l).unwrap())
                .collect();
            assert_eq!(got, want, "page {page}");
        }
        let formats: Vec<TripFormat> = (0..3)
            .map(|page| run.read_versioned(page, 0).unwrap().1)
            .collect();
        assert_eq!(
            formats,
            [TripFormat::Flat, TripFormat::Full, TripFormat::Uneven]
        );
        let pages = run.config().protected_pages();
        assert!(matches!(
            run.read_run(pages, &[0, 1], &mut got),
            Err(ToleoError::PageOutOfRange { .. })
        ));
        assert!(got.is_empty(), "a refused run leaves no stale versions");
        for page in 0..3 {
            per_line.read_versioned(page, 0).unwrap();
        }
        assert_eq!(run.stats(), per_line.stats());
    }

    #[test]
    fn update_increments_version() {
        let mut d = dev();
        let v0 = d.read(3, 5).unwrap();
        let r = d.update(3, 5).unwrap();
        assert_eq!(r.stealth.raw(), v0.incremented(27).raw());
        assert_eq!(d.read(3, 5).unwrap(), r.stealth);
    }

    /// The memo names the page's entry, not a copy of it: a RESET
    /// between two lookups of one page is seen by the second.
    #[test]
    fn a_memoized_page_sees_its_reset() {
        let mut d = dev();
        let r = d.update(4, 9).unwrap();
        assert_eq!(d.read(4, 9).unwrap(), r.stealth);
        let base = d.reset(4).unwrap();
        assert_eq!(d.read(4, 9).unwrap(), base);
        assert_eq!(d.peek_base(4), Some(base));
    }

    /// A memo hit draws nothing: page `b`'s first-touch base is the same
    /// whether page `a` was looked up once or twice before it.
    #[test]
    fn a_memo_hit_draws_no_base() {
        let (mut once, mut twice) = (dev(), dev());
        once.read(1, 0).unwrap();
        twice.read(1, 0).unwrap();
        twice.read(1, 5).unwrap();
        assert_eq!(once.read(2, 0).unwrap(), twice.read(2, 0).unwrap());
        assert_eq!(once.peek_base(2), twice.peek_base(2));
    }

    #[test]
    fn fresh_pages_have_random_bases() {
        let mut d = dev();
        let a = d.read(0, 0).unwrap();
        let b = d.read(1, 0).unwrap();
        let c = d.read(2, 0).unwrap();
        // Three identical random 27-bit draws would be astronomically
        // unlikely; equality of all three means initialization is broken.
        assert!(!(a == b && b == c), "bases look non-random: {a:?}");
    }

    #[test]
    fn page_out_of_range_rejected() {
        let mut d = dev();
        let pages = d.config().protected_pages();
        assert!(matches!(
            d.read(pages, 0),
            Err(ToleoError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            d.update(pages + 5, 0),
            Err(ToleoError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            d.reset(u64::MAX),
            Err(ToleoError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn upgrade_allocates_and_reset_frees() {
        let mut d = dev();
        assert_eq!(d.usage().dynamic_bytes, 0);
        d.update(0, 7).unwrap();
        d.update(0, 7).unwrap(); // -> uneven
        assert_eq!(d.usage().dynamic_bytes, DYNAMIC_BLOCK_BYTES as u64);
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Uneven);
        d.reset(0).unwrap();
        assert_eq!(d.usage().dynamic_bytes, 0);
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Flat);
        let s = d.stats();
        assert_eq!(s.upgrades_to_uneven, 1);
        assert_eq!(s.resets, 1);
    }

    #[test]
    fn full_upgrade_uses_four_blocks() {
        let mut d = dev();
        for _ in 0..200 {
            d.update(0, 7).unwrap();
        }
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Full);
        assert_eq!(d.usage().dynamic_bytes, 4 * DYNAMIC_BLOCK_BYTES as u64);
        assert_eq!(d.stats().upgrades_to_full, 1);
    }

    #[test]
    fn device_full_rejects_upgrades_but_not_flat_updates() {
        let mut cfg = ToleoConfig::small();
        // Dynamic region of exactly 1 block.
        cfg.device_capacity_bytes = cfg.flat_array_bytes() + DYNAMIC_BLOCK_BYTES as u64;
        let mut d = ToleoDevice::new(cfg).unwrap();
        // First upgrade succeeds and consumes the only block.
        d.update(0, 3).unwrap();
        d.update(0, 3).unwrap();
        // Second page cannot upgrade...
        d.update(1, 4).unwrap();
        assert!(matches!(
            d.update(1, 4),
            Err(ToleoError::DeviceFull { page: 1 })
        ));
        assert_eq!(d.stats().rejected_full, 1);
        // ...but uniform (flat) updates still work.
        d.update(1, 5).unwrap();
        // Freeing page 0 lets page 1 upgrade.
        d.reset(0).unwrap();
        d.update(1, 4).unwrap();
        assert_eq!(d.read_versioned(1, 0).unwrap().1, TripFormat::Uneven);
    }

    #[test]
    fn device_full_leaves_state_unchanged() {
        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = cfg.flat_array_bytes(); // zero dynamic blocks
        let mut d = ToleoDevice::new(cfg).unwrap();
        d.update(0, 3).unwrap();
        let v_before = d.read(0, 3).unwrap();
        assert!(d.update(0, 3).is_err());
        assert_eq!(
            d.read(0, 3).unwrap(),
            v_before,
            "rejected update must not mutate"
        );
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Flat);
    }

    /// The uneven → full refusal: a page at offset 127 with MIN 0 needs 3
    /// more blocks, and with fewer free the UPDATE changes nothing but
    /// `rejected_full`; once a RESET elsewhere frees blocks it upgrades.
    #[test]
    fn device_full_refuses_the_full_upgrade_and_leaves_state_unchanged() {
        let mut cfg = ToleoConfig::small();
        // Four dynamic blocks: pages 0 and 1 go uneven, leaving two free.
        cfg.device_capacity_bytes = cfg.flat_array_bytes() + 4 * DYNAMIC_BLOCK_BYTES as u64;
        let mut d = ToleoDevice::new(cfg).unwrap();
        for _ in 0..2 {
            d.update(1, 0).unwrap();
        }
        // Line 7 of page 0 climbs to offset 127 while line 0 stays at 0.
        let base = d.read(0, 0).unwrap();
        for _ in 0..MAX_UNEVEN_OFFSET {
            d.update(0, 7).unwrap();
        }
        assert_eq!(d.read(0, 7).unwrap(), base.offset_by(MAX_UNEVEN_OFFSET, 27));
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Uneven);
        assert_eq!(d.usage().dynamic_bytes, 2 * DYNAMIC_BLOCK_BYTES as u64);

        let versions = |d: &mut ToleoDevice| -> Vec<StealthVersion> {
            (0..LINES_PER_PAGE).map(|l| d.read(0, l).unwrap()).collect()
        };
        let (before, usage, stats) = (versions(&mut d), d.usage(), d.stats());
        assert!(matches!(
            d.update(0, 7),
            Err(ToleoError::DeviceFull { page: 0 })
        ));
        assert_eq!(d.stats().rejected_full, stats.rejected_full + 1);
        assert_eq!(d.stats().updates, stats.updates);
        assert_eq!(d.usage(), usage);
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Uneven);
        assert_eq!(versions(&mut d), before, "a refused UPDATE must not mutate");

        // Freeing page 1's side entry leaves room for the four-block entry.
        d.reset(1).unwrap();
        let r = d.update(0, 7).unwrap();
        assert_eq!(r.stealth, base.offset_by(MAX_UNEVEN_OFFSET + 1, 27));
        assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Full);
        assert_eq!(d.stats().upgrades_to_full, 1);
        assert_eq!(d.usage().dynamic_bytes, 4 * DYNAMIC_BLOCK_BYTES as u64);
    }

    #[test]
    fn uniform_writes_never_allocate() {
        let mut d = dev();
        for round in 0..3 {
            for line in 0..LINES_PER_PAGE {
                d.update(9, line).unwrap();
            }
            assert_eq!(d.usage().dynamic_bytes, 0, "round {round}");
        }
        assert_eq!(d.read_versioned(9, 0).unwrap().1, TripFormat::Flat);
    }

    #[test]
    fn stealth_reset_fires_at_expected_rate() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 6; // 1/64 for a fast statistical test
        let mut d = ToleoDevice::new(cfg).unwrap();
        let mut resets = 0u64;
        let mut leading_increments = 0u64;
        // Hot-line updates: every update advances the leading version once
        // the page is uneven/full.
        for i in 0..20_000u64 {
            let r = d.update(0, 0).unwrap();
            leading_increments += 1;
            if r.uv_update() {
                resets += 1;
            }
            let _ = i;
        }
        let rate = resets as f64 / leading_increments as f64;
        assert!(
            (rate - 1.0 / 64.0).abs() < 0.006,
            "reset rate {rate}, expected ~{}",
            1.0 / 64.0
        );
    }

    #[test]
    fn reset_downgrades_and_frees() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4; // 1/16: resets happen fast
        let mut d = ToleoDevice::new(cfg).unwrap();
        let mut saw_reset_from_nonflat = false;
        for _ in 0..2_000 {
            let fmt_before = d.read_versioned(0, 0).unwrap().1;
            let r = d.update(0, 1).unwrap();
            if r.uv_update() {
                assert_eq!(d.read_versioned(0, 0).unwrap().1, TripFormat::Flat);
                if fmt_before != TripFormat::Flat {
                    saw_reset_from_nonflat = true;
                    assert_eq!(d.usage().dynamic_bytes, 0, "side entry freed on reset");
                }
            }
        }
        assert!(
            saw_reset_from_nonflat,
            "test never exercised a non-flat reset"
        );
    }

    /// Birth is a trusted device fact: the first UPDATE accepted after a
    /// page materializes or is RESET reports it, and no other does — not
    /// one that fires a stealth reset, whose fresh entry is born already.
    /// `birth_version` is what a READ of any other line then returns.
    #[test]
    fn a_page_is_born_at_its_first_accepted_update_after_a_reset() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 2;
        let bits = cfg.stealth_bits;
        let mut d = ToleoDevice::new(cfg).unwrap();
        assert!(!d.is_born(3), "untouched");
        d.read(3, 0).unwrap();
        assert!(!d.is_born(3), "materialized by a READ");
        let (mut births, mut resets) = (0, 0);
        for round in 0..40usize {
            if round % 8 == 0 {
                d.reset(3).unwrap();
                assert!(!d.is_born(3), "a RESET leaves the page unborn");
            }
            let line = round % 5;
            let r = d.update(3, line).unwrap();
            assert!(d.is_born(3));
            assert_eq!(r.born, round % 8 == 0, "round {round}");
            births += u32::from(r.born);
            resets += u32::from(r.uv_update());
            if let Some(others) = r.birth_version(bits) {
                assert_eq!(d.read(3, line + 1).unwrap(), others, "round {round}");
                assert_eq!(d.read(3, 63).unwrap(), others, "round {round}");
            }
        }
        assert_eq!(births, 5);
        assert!(resets > 3, "resets fired on and after births");
    }

    #[test]
    fn update_response_reflects_post_reset_version() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 3;
        let mut d = ToleoDevice::new(cfg).unwrap();
        for _ in 0..500 {
            let r = d.update(0, 2).unwrap();
            let now = d.read(0, 2).unwrap();
            assert_eq!(r.stealth, now, "UPDATE must return the live version");
        }
    }

    #[test]
    fn usage_counts_formats() {
        let mut d = dev();
        d.update(0, 0).unwrap(); // flat
        d.update(1, 0).unwrap();
        d.update(1, 0).unwrap(); // uneven
        for _ in 0..200 {
            d.update(2, 0).unwrap(); // full
        }
        let u = d.usage();
        assert_eq!(u.flat_pages, 1);
        assert_eq!(u.uneven_pages, 1);
        assert_eq!(u.full_pages, 1);
        assert_eq!(u.flat_bytes, 3 * FLAT_ENTRY_BYTES as u64);
        assert_eq!(u.total_bytes(), u.flat_bytes + u.dynamic_bytes);
    }
}
