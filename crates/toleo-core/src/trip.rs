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
//! the probabilistic reset policy.

// audit: allow-file(indexing, line indices are bounded by LINES_PER_PAGE at every call site)

use crate::config::{ToleoConfig, LINES_PER_PAGE, MAX_UNEVEN_OFFSET};
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

/// Events a page update can raise; the device acts on these (allocation,
/// reset signalling to the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateEffect {
    /// Version incremented in place; no structural change.
    None,
    /// The page upgraded flat → uneven (device must allocate 1 block).
    UpgradedToUneven,
    /// The page upgraded uneven → full (device must allocate 4, free 1).
    UpgradedToFull,
    /// The probabilistic reset fired: page returned to flat with a fresh
    /// random base; the host must bump the UV and re-encrypt the page.
    StealthReset,
}

/// Per-page Trip state. This is the logical content of the flat entry and
/// its (optional) side entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PageEntry {
    format: PageRepr,
    /// Shared stealth base (the "27b base" of the flat entry).
    base: StealthVersion,
}

#[derive(Debug, Clone, PartialEq)]
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
    /// Creates a fresh flat entry with the given random initial base.
    pub fn new_flat(base: StealthVersion) -> Self {
        PageEntry {
            format: PageRepr::Flat { written: 0 },
            base,
        }
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

    /// Predicts the structural effect [`record_write`](Self::record_write)
    /// would have, without mutating the entry. The device uses this to
    /// check dynamic-region headroom before committing an update, instead
    /// of cloning the entry and trial-running the write.
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn predict_effect(&self, line: usize) -> UpdateEffect {
        assert!(line < LINES_PER_PAGE, "line index {line} out of page");
        match &self.format {
            PageRepr::Flat { written } => {
                if *written & (1u64 << line) == 0 {
                    UpdateEffect::None
                } else {
                    UpdateEffect::UpgradedToUneven
                }
            }
            PageRepr::Uneven { offsets } => {
                if (offsets[line] as u32) < MAX_UNEVEN_OFFSET {
                    return UpdateEffect::None;
                }
                // Offset would overflow: renormalization absorbs it whenever
                // there is a MIN to fold (mirrors the record_write overflow
                // arm).
                if offsets.iter().all(|&o| o > 0) {
                    UpdateEffect::None
                } else {
                    UpdateEffect::UpgradedToFull
                }
            }
            PageRepr::Full { .. } => UpdateEffect::None,
        }
    }

    /// Records a write to `line`, incrementing its version and upgrading the
    /// representation if the page's version locality no longer fits.
    ///
    /// Returns the structural effect, *excluding* resets — the caller (the
    /// device) performs the reset draw when [`UpdateEffect`] indicates the
    /// leading version advanced; see [`PageEntry::leading_advanced`].
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn record_write(&mut self, line: usize, cfg: &ToleoConfig) -> UpdateEffect {
        assert!(line < LINES_PER_PAGE, "line index {line} out of page");
        match &mut self.format {
            PageRepr::Flat { written } => {
                let bit = 1u64 << line;
                if *written & bit == 0 {
                    *written |= bit;
                    if *written == u64::MAX {
                        // Whole page written uniformly: advance base, clear.
                        self.base = self.base.incremented(cfg.stealth_bits);
                        *written = 0;
                    }
                    UpdateEffect::None
                } else {
                    // Second write to the same line before the round
                    // completes: stride exceeds 1, upgrade to uneven.
                    let mut offsets = Box::new([0u8; LINES_PER_PAGE]);
                    for i in 0..LINES_PER_PAGE {
                        offsets[i] = ((*written >> i) & 1) as u8;
                    }
                    offsets[line] += 1; // the triggering write
                    self.format = PageRepr::Uneven { offsets };
                    UpdateEffect::UpgradedToUneven
                }
            }
            PageRepr::Uneven { offsets } => {
                if (offsets[line] as u32) < MAX_UNEVEN_OFFSET {
                    offsets[line] += 1;
                    return UpdateEffect::None;
                }
                // Offset overflow: renormalize by folding MIN into the base.
                // The overflowing line sits at the maximum, so any MIN > 0
                // brings its incremented offset back in range.
                let min = offsets.iter().copied().min().unwrap_or(0);
                if min > 0 {
                    for o in offsets.iter_mut() {
                        *o -= min;
                    }
                    offsets[line] += 1;
                    self.base = self.base.offset_by(min as u32, cfg.stealth_bits);
                    return UpdateEffect::None;
                }
                // MIN == 0: stride truly exceeds 127, upgrade to full. The
                // incremented offset (128) still fits its byte.
                offsets[line] += 1;
                let (stealth, leading) = full_from_uneven(self.base, offsets, cfg.stealth_bits);
                self.format = PageRepr::Full { stealth };
                self.base = leading;
                UpdateEffect::UpgradedToFull
            }
            PageRepr::Full { stealth } => {
                let v = StealthVersion::new(stealth[line] as u64, cfg.stealth_bits)
                    .incremented(cfg.stealth_bits);
                stealth[line] = v.raw();
                // Track the leading version in the flat entry's base field
                // (§4.3: full format uses the 27-bit base for reset checks).
                if v.raw() > self.base.raw() {
                    self.base = v;
                }
                UpdateEffect::None
            }
        }
    }

    /// Whether the most recent [`record_write`](Self::record_write) advanced
    /// the page's leading version to `after` from a strictly lower value.
    ///
    /// The device compares leading versions before/after an update and draws
    /// the probabilistic reset only when the leading version advanced.
    pub fn leading_advanced(before: StealthVersion, after: StealthVersion) -> bool {
        after != before
    }

    /// Resets the page to flat with a fresh random base. Used by the
    /// probabilistic reset policy and by OS-initiated downgrades (page free
    /// or remap). The caller must increment the page's UV.
    pub fn reset_to_flat(&mut self, new_base: StealthVersion) {
        self.base = new_base;
        self.format = PageRepr::Flat { written: 0 };
    }

    /// Serialized size of the side entry in Toleo dynamic memory, in
    /// 56-byte allocation blocks (0 for flat).
    pub fn dynamic_blocks(&self) -> usize {
        match self.format {
            PageRepr::Flat { .. } => 0,
            PageRepr::Uneven { .. } => 1,
            PageRepr::Full { .. } => crate::config::FULL_ENTRY_BLOCKS,
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
        p.reset_to_flat(StealthVersion::new(777, 27));
        assert_eq!(p.format(), TripFormat::Flat);
        for l in 0..LINES_PER_PAGE {
            assert_eq!(p.version_of(l, &cfg).raw(), 777);
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

    /// `predict_effect` must agree with the effect `record_write` actually
    /// produces, across random write streams that visit all three formats.
    #[test]
    fn predicted_effect_matches_recorded_effect() {
        use rand::{Rng, SeedableRng};
        let cfg = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let mut p = flat(rng.gen_range(0..1u64 << 27));
            for step in 0..2_000 {
                let line = if rng.gen_bool(0.5) {
                    rng.gen_range(0..3)
                } else {
                    rng.gen_range(0..LINES_PER_PAGE)
                };
                let predicted = p.predict_effect(line);
                let actual = p.record_write(line, &cfg);
                assert_eq!(predicted, actual, "trial {trial} step {step} line {line}");
                // Occasionally reset so flat is revisited.
                if rng.gen_bool(0.001) {
                    p.reset_to_flat(StealthVersion::new(rng.gen_range(0..1 << 27), 27));
                }
            }
        }
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
