//! Trip (Tri-level Page) stealth-version compression (paper §4.3).
//!
//! Every protected 4 KB page is statically mapped to a 12-byte **flat**
//! entry. Depending on how much version locality the page's write stream
//! exhibits, the page is represented in one of three formats:
//!
//! * **Flat** — one shared 27-bit stealth base plus a 64-bit written-vector.
//!   A cache block's version is `base + bit`. When every block has been
//!   written once, the base increments and the vector clears. 12 B per 4 KB
//!   (341:1).
//! * **Uneven** — the flat entry gains a pointer to a 56-byte side entry
//!   holding a 7-bit private offset per block; a block's version is
//!   `base + offset`. Strides up to 127 are representable; offsets are
//!   renormalized (subtract MIN, fold into base) on overflow. 68 B per 4 KB
//!   (60:1).
//! * **Full** — an uncompressed 27-bit stealth per block (216 B logical,
//!   four 56-byte blocks allocated). 228 B per 4 KB (18:1).
//!
//! Pages upgrade flat → uneven → full as locality degrades and can be
//! downgraded back to flat (with a stealth reset + UV bump) by the OS or by
//! the probabilistic reset policy; the device does that by swapping a fresh
//! flat entry in.
//!
//! A write is decided once, by `PageEntry::record_write_within`: it
//! refuses an upgrade that does not fit the device's free dynamic blocks
//! before touching the entry, and otherwise reports the structural effect
//! and whether the page's leading version advanced (the reset draw's
//! trigger).

// audit: allow-file(indexing, line indices are bounded by LINES_PER_PAGE at every call site)

use crate::config::{ToleoConfig, FULL_ENTRY_BLOCKS, LINES_PER_PAGE, MAX_UNEVEN_OFFSET};
use crate::version::StealthVersion;
use serde::{Deserialize, Serialize};

/// Which Trip representation a page currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TripFormat {
    /// Shared base + written bit-vector (12 B).
    Flat,
    /// Base + 7-bit per-line offsets (12 + 56 B).
    Uneven,
    /// Full 27-bit stealth per line (12 + 216 B).
    Full,
}

impl std::fmt::Display for TripFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripFormat::Flat => f.write_str("flat"),
            TripFormat::Uneven => f.write_str("uneven"),
            TripFormat::Full => f.write_str("full"),
        }
    }
}

/// The structural change a write makes to its page; the device allocates
/// dynamic blocks for the upgrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateEffect {
    /// Version incremented in place; no structural change.
    None,
    /// The page upgraded flat → uneven (device must allocate 1 block).
    UpgradedToUneven,
    /// The page upgraded uneven → full (device must allocate 4, free 1).
    UpgradedToFull,
}

/// Per-page Trip state. This is the logical content of the flat entry and
/// its (optional) side entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageEntry {
    format: PageRepr,
    /// Shared stealth base (the "27b base" of the flat entry).
    base: StealthVersion,
    /// Whether the device has accepted an UPDATE to the page since it was
    /// materialized or RESET: the trusted fact behind a page's birth. The
    /// 12-byte flat entry holds 27 + 64 bits, so this bit sits in its
    /// spare bits and costs no modeled byte.
    born: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PageRepr {
    Flat {
        /// Bit i set <=> line i written since the last base increment.
        written: u64,
    },
    Uneven {
        /// 7-bit private offsets; version(i) = base + offsets[i].
        offsets: Box<[u8; LINES_PER_PAGE]>,
    },
    Full {
        /// Absolute stealth version per line.
        stealth: Box<[u32; LINES_PER_PAGE]>,
    },
}

impl PageEntry {
    /// Creates a fresh, unborn flat entry with the given random initial
    /// base.
    pub fn new_flat(base: StealthVersion) -> Self {
        PageEntry {
            format: PageRepr::Flat { written: 0 },
            base,
            born: false,
        }
    }

    /// Whether the page is born: an UPDATE has been accepted since the
    /// entry was created.
    pub fn is_born(&self) -> bool {
        self.born
    }

    /// Marks the page born.
    pub(crate) fn set_born(&mut self) {
        self.born = true;
    }

    /// Current representation format.
    pub fn format(&self) -> TripFormat {
        match self.format {
            PageRepr::Flat { .. } => TripFormat::Flat,
            PageRepr::Uneven { .. } => TripFormat::Uneven,
            PageRepr::Full { .. } => TripFormat::Full,
        }
    }

    /// The shared stealth base.
    pub fn base(&self) -> StealthVersion {
        self.base
    }

    /// Stealth version of line `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn version_of(&self, line: usize, cfg: &ToleoConfig) -> StealthVersion {
        assert!(line < LINES_PER_PAGE, "line index {line} out of page");
        match &self.format {
            PageRepr::Flat { written } => {
                let bump = ((written >> line) & 1) as u32;
                self.base.offset_by(bump, cfg.stealth_bits)
            }
            PageRepr::Uneven { offsets } => {
                self.base.offset_by(offsets[line] as u32, cfg.stealth_bits)
            }
            PageRepr::Full { stealth } => {
                StealthVersion::new(stealth[line] as u64, cfg.stealth_bits)
            }
        }
    }

    /// The page's *leading* stealth version — the maximum across lines.
    /// Reset checks happen when the leading version is incremented (§4.3).
    pub fn leading_version(&self, cfg: &ToleoConfig) -> StealthVersion {
        match &self.format {
            PageRepr::Flat { written } => {
                let bump = if *written != 0 { 1 } else { 0 };
                self.base.offset_by(bump, cfg.stealth_bits)
            }
            PageRepr::Uneven { offsets } => {
                let max = offsets.iter().copied().max().unwrap_or(0) as u32;
                self.base.offset_by(max, cfg.stealth_bits)
            }
            PageRepr::Full { .. } => {
                // The flat entry's 27-bit base tracks the leading version in
                // full format (§4.3 "Stealth Reset").
                self.base
            }
        }
    }

    /// Records a write to `line`, incrementing its version and upgrading the
    /// representation if the page's version locality no longer fits — the
    /// write `record_write_within` admits when the dynamic region has
    /// unlimited room.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn record_write(&mut self, line: usize, cfg: &ToleoConfig) -> UpdateEffect {
        // Unlimited room admits every write; the default is never taken.
        self.record_write_within(line, u64::MAX, cfg)
            .map_or(UpdateEffect::None, |(effect, _)| effect)
    }

    /// Records a write to `line` if the upgrade it causes fits in `room`
    /// free dynamic blocks (flat → uneven takes 1, uneven → full 3 more).
    /// A write that does not fit returns `None` and leaves the entry as it
    /// was. An admitted write returns its structural effect and whether it
    /// advanced the page's leading version — the only writes on which the
    /// device draws the stealth reset (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub(crate) fn record_write_within(
        &mut self,
        line: usize,
        room: u64,
        cfg: &ToleoConfig,
    ) -> Option<(UpdateEffect, bool)> {
        assert!(line < LINES_PER_PAGE, "line index {line} out of page");
        match &mut self.format {
            PageRepr::Flat { written } => {
                let bit = 1u64 << line;
                if *written & bit == 0 {
                    // The round's first write lifts the leading version to
                    // base + 1; the rest of the round leaves it there.
                    let advanced = *written == 0;
                    *written |= bit;
                    if *written == u64::MAX {
                        // Whole page written uniformly: advance base, clear.
                        self.base = self.base.incremented(cfg.stealth_bits);
                        *written = 0;
                    }
                    return Some((UpdateEffect::None, advanced));
                }
                // Second write to the same line before the round
                // completes: stride exceeds 1, upgrade to uneven.
                if room < 1 {
                    return None;
                }
                let mut offsets = Box::new([0u8; LINES_PER_PAGE]);
                for i in 0..LINES_PER_PAGE {
                    offsets[i] = ((*written >> i) & 1) as u8;
                }
                offsets[line] += 1; // the triggering write
                self.format = PageRepr::Uneven { offsets };
                Some((UpdateEffect::UpgradedToUneven, true))
            }
            PageRepr::Uneven { offsets } => {
                let offset = offsets[line];
                if (offset as u32) < MAX_UNEVEN_OFFSET {
                    // A plain `max` vectorises; an early-exit scan does not.
                    let advanced = offset == offsets.iter().copied().max().unwrap_or(0);
                    offsets[line] += 1;
                    return Some((UpdateEffect::None, advanced));
                }
                // Offset overflow: the line sits at the maximum, so the
                // leading version advances whichever way this goes.
                // Renormalize by folding MIN into the base; any MIN > 0
                // brings the incremented offset back in range.
                let min = offsets.iter().copied().min().unwrap_or(0);
                if min > 0 {
                    for o in offsets.iter_mut() {
                        *o -= min;
                    }
                    offsets[line] += 1;
                    self.base = self.base.offset_by(min as u32, cfg.stealth_bits);
                    return Some((UpdateEffect::None, true));
                }
                // MIN == 0: stride truly exceeds 127, upgrade to full. The
                // incremented offset (128) still fits its byte.
                if room < FULL_ENTRY_BLOCKS as u64 - 1 {
                    return None;
                }
                offsets[line] += 1;
                let (stealth, leading) = full_from_uneven(self.base, offsets, cfg.stealth_bits);
                self.format = PageRepr::Full { stealth };
                self.base = leading;
                Some((UpdateEffect::UpgradedToFull, true))
            }
            PageRepr::Full { stealth } => {
                let v = StealthVersion::new(stealth[line] as u64, cfg.stealth_bits)
                    .incremented(cfg.stealth_bits);
                stealth[line] = v.raw();
                // Track the leading version in the flat entry's base field
                // (§4.3: full format uses the 27-bit base for reset checks).
                let advanced = v.raw() > self.base.raw();
                if advanced {
                    self.base = v;
                }
                Some((UpdateEffect::None, advanced))
            }
        }
    }

    /// Serialized size of the side entry in Toleo dynamic memory, in
    /// 56-byte allocation blocks (0 for flat).
    pub fn dynamic_blocks(&self) -> usize {
        match self.format {
            PageRepr::Flat { .. } => 0,
            PageRepr::Uneven { .. } => 1,
            PageRepr::Full { .. } => FULL_ENTRY_BLOCKS,
        }
    }
}

/// The full-format stealth array of an uneven page — every line's
/// absolute version `base + offset` — and its leading version, the new
/// base.
fn full_from_uneven(
    base: StealthVersion,
    offsets: &[u8; LINES_PER_PAGE],
    bits: u32,
) -> (Box<[u32; LINES_PER_PAGE]>, StealthVersion) {
    let stealth = Box::new(offsets.map(|o| base.offset_by(o as u32, bits).raw()));
    let leading = stealth.iter().copied().max().unwrap_or(0);
    (stealth, StealthVersion::new(leading as u64, bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ToleoConfig {
        ToleoConfig::small()
    }

    fn flat(base: u64) -> PageEntry {
        PageEntry::new_flat(StealthVersion::new(base, 27))
    }

    /// The born bit fits `PageEntry`'s padding: the entry stays 24 bytes
    /// on the host (it models a 12-byte flat entry on the device).
    #[test]
    fn the_born_bit_costs_no_host_byte() {
        assert_eq!(std::mem::size_of::<PageEntry>(), 24);
        let mut p = flat(7);
        assert!(!p.is_born());
        p.set_born();
        assert!(p.is_born());
    }

    #[test]
    fn fresh_page_is_flat_with_base_versions() {
        let cfg = cfg();
        let p = flat(100);
        assert_eq!(p.format(), TripFormat::Flat);
        for line in 0..LINES_PER_PAGE {
            assert_eq!(p.version_of(line, &cfg).raw(), 100);
        }
    }

    #[test]
    fn uniform_write_round_stays_flat() {
        let cfg = cfg();
        let mut p = flat(5);
        for line in 0..LINES_PER_PAGE {
            assert_eq!(p.record_write(line, &cfg), UpdateEffect::None);
        }
        // All 64 written -> base advanced, vector cleared, still flat.
        assert_eq!(p.format(), TripFormat::Flat);
        for line in 0..LINES_PER_PAGE {
            assert_eq!(p.version_of(line, &cfg).raw(), 6);
        }
    }

    #[test]
    fn partial_round_gives_mixed_versions() {
        let cfg = cfg();
        let mut p = flat(5);
        p.record_write(0, &cfg);
        p.record_write(1, &cfg);
        assert_eq!(p.version_of(0, &cfg).raw(), 6);
        assert_eq!(p.version_of(1, &cfg).raw(), 6);
        assert_eq!(p.version_of(2, &cfg).raw(), 5);
        assert_eq!(p.leading_version(&cfg).raw(), 6);
    }

    #[test]
    fn rewrite_before_round_completes_upgrades_to_uneven() {
        let cfg = cfg();
        let mut p = flat(5);
        p.record_write(0, &cfg);
        assert_eq!(p.record_write(0, &cfg), UpdateEffect::UpgradedToUneven);
        assert_eq!(p.format(), TripFormat::Uneven);
        assert_eq!(p.version_of(0, &cfg).raw(), 7); // base 5 + offset 2
        assert_eq!(p.version_of(1, &cfg).raw(), 5);
        assert_eq!(p.dynamic_blocks(), 1);
    }

    #[test]
    fn uneven_preserves_flat_versions_at_upgrade() {
        let cfg = cfg();
        let mut p = flat(10);
        for line in 0..10 {
            p.record_write(line, &cfg);
        }
        let before: Vec<u32> = (0..LINES_PER_PAGE)
            .map(|l| p.version_of(l, &cfg).raw())
            .collect();
        p.record_write(3, &cfg); // upgrade
        for (l, b) in before.iter().enumerate() {
            let expect = if l == 3 { b + 1 } else { *b };
            assert_eq!(p.version_of(l, &cfg).raw(), expect, "line {l}");
        }
    }

    #[test]
    fn uneven_strides_accumulate() {
        let cfg = cfg();
        let mut p = flat(0);
        p.record_write(7, &cfg);
        p.record_write(7, &cfg); // -> uneven, offset 2
        for _ in 0..50 {
            assert_eq!(p.record_write(7, &cfg), UpdateEffect::None);
        }
        assert_eq!(p.version_of(7, &cfg).raw(), 52);
        assert_eq!(p.version_of(0, &cfg).raw(), 0);
        assert_eq!(p.leading_version(&cfg).raw(), 52);
    }

    #[test]
    fn offset_overflow_without_floor_upgrades_to_full() {
        let cfg = cfg();
        let mut p = flat(0);
        p.record_write(7, &cfg);
        p.record_write(7, &cfg); // uneven, offset 2
        let mut effect = UpdateEffect::None;
        for _ in 0..MAX_UNEVEN_OFFSET as usize + 2 {
            effect = p.record_write(7, &cfg);
            if effect != UpdateEffect::None {
                break;
            }
        }
        assert_eq!(effect, UpdateEffect::UpgradedToFull);
        assert_eq!(p.format(), TripFormat::Full);
        assert_eq!(p.dynamic_blocks(), crate::config::FULL_ENTRY_BLOCKS);
        assert_eq!(p.version_of(7, &cfg).raw(), MAX_UNEVEN_OFFSET + 1);
        assert_eq!(p.version_of(0, &cfg).raw(), 0);
    }

    #[test]
    fn offset_overflow_with_floor_renormalizes_and_stays_uneven() {
        let cfg = cfg();
        let mut p = flat(0);
        // Give every line offset >= 1 by writing each once, then once more
        // on line 0 (upgrade), then complete so MIN becomes 1.
        p.record_write(0, &cfg);
        p.record_write(0, &cfg); // uneven: line0 offset 2, others 0
        for l in 1..LINES_PER_PAGE {
            p.record_write(l, &cfg); // offsets 1
        }
        // Now MIN = 1. Drive line 0 to overflow.
        while p.version_of(0, &cfg).raw() < MAX_UNEVEN_OFFSET {
            assert_eq!(p.record_write(0, &cfg), UpdateEffect::None);
            assert_eq!(p.format(), TripFormat::Uneven);
        }
        // Next write overflows the 7-bit offset but MIN=1 can be folded.
        assert_eq!(p.record_write(0, &cfg), UpdateEffect::None);
        assert_eq!(
            p.format(),
            TripFormat::Uneven,
            "renormalization avoids full"
        );
        assert_eq!(p.base().raw(), 1, "MIN folded into base");
        assert_eq!(p.version_of(0, &cfg).raw(), MAX_UNEVEN_OFFSET + 1);
        assert_eq!(p.version_of(1, &cfg).raw(), 1);
    }

    #[test]
    fn full_format_tracks_leading_in_base() {
        let cfg = cfg();
        let mut p = flat(0);
        p.record_write(7, &cfg);
        p.record_write(7, &cfg);
        for _ in 0..200 {
            p.record_write(7, &cfg);
        }
        assert_eq!(p.format(), TripFormat::Full);
        assert_eq!(p.leading_version(&cfg).raw(), p.version_of(7, &cfg).raw());
    }

    #[test]
    fn reset_returns_to_flat() {
        let cfg = cfg();
        let mut p = flat(0);
        p.record_write(3, &cfg);
        p.record_write(3, &cfg);
        assert_eq!(p.format(), TripFormat::Uneven);
        // The device's reset: a fresh flat entry in, the old one handed
        // back so the host can still ask it each line's pre-reset version.
        let old = std::mem::replace(&mut p, flat(777));
        assert_eq!(p.format(), TripFormat::Flat);
        assert_eq!(p.dynamic_blocks(), 0);
        for l in 0..LINES_PER_PAGE {
            assert_eq!(p.version_of(l, &cfg).raw(), 777);
            assert_eq!(old.version_of(l, &cfg).raw(), if l == 3 { 2 } else { 0 });
        }
    }

    #[test]
    fn stealth_wraps_within_width() {
        let mut cfg = cfg();
        cfg.stealth_bits = 8; // tiny space to see the wrap
        let mut p = PageEntry::new_flat(StealthVersion::new(255, 8));
        for line in 0..LINES_PER_PAGE {
            p.record_write(line, &cfg);
        }
        assert_eq!(p.version_of(0, &cfg).raw(), 0, "base wrapped 255 -> 0");
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn out_of_range_line_panics() {
        let cfg = cfg();
        flat(0).version_of(64, &cfg);
    }

    /// `record_write_within` against the unbounded `record_write` and
    /// `leading_version`, on seeded write streams through all three formats
    /// with 0..=4 free blocks: a write is refused exactly when its upgrade
    /// needs more blocks than are free, and then leaves the entry as it was;
    /// an admitted one has the effect and leaves the state `record_write`
    /// would, and reports an advance exactly when the leading version moved.
    #[test]
    fn bounded_write_is_refused_whole_or_matches_record_write() {
        use rand::{Rng, SeedableRng};
        let cfg = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (mut refused, mut advanced, mut upgrades) = ([0u32; 2], 0u32, [0u32; 2]);
        for trial in 0..20 {
            // Odd trials hammer three lines: their offsets overflow before
            // the other lines lift MIN, so they reach full.
            let hot = if trial % 2 == 0 { 0.5 } else { 0.95 };
            let mut p = flat(rng.gen_range(0..1u64 << 27));
            for step in 0..2_000 {
                let line = if rng.gen_bool(hot) {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..LINES_PER_PAGE)
                };
                let room = rng.gen_range(0..=4u64);
                let (before, leading) = (p.clone(), p.leading_version(&cfg));
                let mut oracle = before.clone();
                let effect = oracle.record_write(line, &cfg);
                let needed = (oracle.dynamic_blocks() - before.dynamic_blocks()) as u64;
                let at = format!("trial {trial} step {step} line {line} room {room}");
                match p.record_write_within(line, room, &cfg) {
                    None => {
                        assert!(needed > room, "{at}: refused a write that fits");
                        assert_eq!(p, before, "{at}: a refusal mutated the entry");
                        refused[(p.format() == TripFormat::Uneven) as usize] += 1;
                    }
                    Some((got, moved)) => {
                        assert!(needed <= room, "{at}: admitted a write that does not fit");
                        assert_eq!(got, effect, "{at}");
                        assert_eq!(p, oracle, "{at}");
                        assert_eq!(moved, p.leading_version(&cfg) != leading, "{at}");
                        advanced += moved as u32;
                        match effect {
                            UpdateEffect::UpgradedToUneven => upgrades[0] += 1,
                            UpdateEffect::UpgradedToFull => upgrades[1] += 1,
                            UpdateEffect::None => {}
                        }
                    }
                }
                // Occasionally reset so flat is revisited.
                if rng.gen_bool(0.001) {
                    p = flat(rng.gen_range(0..1u64 << 27));
                }
            }
        }
        assert!(refused.iter().all(|&n| n > 0), "refusals {refused:?}");
        assert!(upgrades.iter().all(|&n| n > 0), "upgrades {upgrades:?}");
        assert!(advanced > 0);
    }

    /// Versions computed via any representation must agree with a naive
    /// shadow array of per-line counters.
    #[test]
    fn versions_match_shadow_model_under_random_writes() {
        use rand::{Rng, SeedableRng};
        let cfg = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mask = (1u32 << 27) - 1;
        for trial in 0..20 {
            let base = rng.gen_range(0..1u64 << 27);
            let mut p = PageEntry::new_flat(StealthVersion::new(base, 27));
            let mut shadow = [base as u32; LINES_PER_PAGE];
            for step in 0..500 {
                // Mix of hot-line and uniform writes to exercise upgrades.
                let line = if rng.gen_bool(0.3) {
                    rng.gen_range(0..4)
                } else {
                    rng.gen_range(0..LINES_PER_PAGE)
                };
                p.record_write(line, &cfg);
                shadow[line] = shadow[line].wrapping_add(1) & mask;
                for (l, expect) in shadow.iter().enumerate() {
                    let got = p.version_of(l, &cfg).raw();
                    assert_eq!(
                        got, *expect,
                        "trial {trial} step {step}: line {l} got {got}, shadow {expect}"
                    );
                }
            }
        }
    }
}
