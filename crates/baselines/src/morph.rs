//! Morphable Counters (Saileshwar et al., MICRO'18): a 64-byte counter
//! leaf that *morphs* between encodings based on the observed write
//! skew, covering 128 blocks (8 KB) per leaf — the densest Merkle-leaf
//! design Toleo is compared against in Table 4.
//!
//! Two encodings are modelled:
//!
//! * **Uniform** — 128 small same-width counters (ZCC-style), best when
//!   writes are spread evenly.
//! * **Skewed** — a bit-vector plus a few large counters for the hot
//!   blocks, best when a handful of blocks take most writes.
//!
//! Either way, exceeding the encoding's capacity forces a leaf re-base
//! with re-encryption of all 128 covered blocks.
//!
//! [`MorphEngine`] wraps the leaves in a functional protection engine
//! that seals as Toleo does (into the same page arena) so Morphable
//! Counters competes in the same evaluation arena: leaf versions seal the
//! data blocks, and a leaf re-base *actually re-encrypts* the covered
//! 8 KB — exactly the cost the denser 128:1 encoding trades for.

// audit: allow-file(indexing, slot indices are reduced modulo BLOCKS_PER_LEAF)

/// Current encoding of a morphable leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// 128 uniform 3-bit deltas over a shared base.
    Uniform,
    /// Bit-vector + 4 large per-block counters for the hottest blocks.
    Skewed,
}

/// Blocks covered by one morphable leaf (8 KB of data).
pub const BLOCKS_PER_LEAF: usize = 128;
/// Capacity of a uniform 3-bit delta.
const UNIFORM_MAX: u64 = 7;
/// Capacity of a skewed large counter (20-bit).
const SKEWED_MAX: u64 = (1 << 20) - 1;
/// Hot slots available in skewed encoding.
const HOT_SLOTS: usize = 4;

/// One morphable counter leaf with its covered blocks' write state.
#[derive(Debug, Clone)]
pub struct MorphLeaf {
    encoding: Encoding,
    base: u64,
    deltas: [u64; BLOCKS_PER_LEAF],
    /// Re-encryptions of the covered 8 KB forced by overflow/re-base.
    pub rebases: u64,
    /// Encoding switches performed.
    pub morphs: u64,
}

impl Default for MorphLeaf {
    fn default() -> Self {
        Self::new()
    }
}

impl MorphLeaf {
    /// A fresh, uniform-encoded leaf.
    pub fn new() -> Self {
        MorphLeaf {
            encoding: Encoding::Uniform,
            base: 0,
            deltas: [0; BLOCKS_PER_LEAF],
            rebases: 0,
            morphs: 0,
        }
    }

    /// Current encoding.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Version of a covered block.
    pub fn version(&self, slot: usize) -> u64 {
        self.base + self.deltas[slot]
    }

    /// Every covered block's version, in slot order.
    fn versions(&self) -> [u64; BLOCKS_PER_LEAF] {
        std::array::from_fn(|slot| self.version(slot))
    }

    /// How many of the covered blocks exceed the uniform delta capacity.
    fn over_uniform(&self) -> usize {
        self.deltas.iter().filter(|&&d| d > UNIFORM_MAX).count()
    }

    /// Records a write to `slot`. Returns the number of covered blocks
    /// re-encrypted (0 in the common case; 128 on a re-base).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 128`.
    pub fn update(&mut self, slot: usize) -> u64 {
        assert!(slot < BLOCKS_PER_LEAF, "slot out of leaf");
        self.deltas[slot] += 1;
        match self.encoding {
            Encoding::Uniform => {
                if self.deltas[slot] > UNIFORM_MAX {
                    // Try morphing to the skewed encoding first.
                    if self.over_uniform() <= HOT_SLOTS {
                        self.encoding = Encoding::Skewed;
                        self.morphs += 1;
                        0
                    } else {
                        self.rebase()
                    }
                } else {
                    0
                }
            }
            Encoding::Skewed => {
                let over = self.over_uniform();
                if over > HOT_SLOTS || self.deltas[slot] > SKEWED_MAX {
                    self.rebase()
                } else {
                    0
                }
            }
        }
    }

    fn rebase(&mut self) -> u64 {
        // Fold the minimum delta into the base and clear; if skew persists
        // the encoding stays skewed, otherwise return to uniform.
        let min = self.deltas.iter().copied().min().unwrap_or(0);
        self.base += min;
        for d in self.deltas.iter_mut() {
            *d -= min;
        }
        // Any remaining over-capacity deltas force a full reset.
        if self.over_uniform() > HOT_SLOTS {
            let max = self.deltas.iter().copied().max().unwrap_or(0);
            self.base += max;
            self.deltas = [0; BLOCKS_PER_LEAF];
        }
        self.encoding = if self.over_uniform() == 0 {
            Encoding::Uniform
        } else {
            Encoding::Skewed
        };
        self.rebases += 1;
        BLOCKS_PER_LEAF as u64
    }

    /// Leaf data-to-version ratio (Table 4: 64 B covers 8 KB = 128:1).
    pub fn ratio() -> f64 {
        (BLOCKS_PER_LEAF * 64) as f64 / 64.0
    }
}

use crate::{reseal, seal, unseal, whole_block};
use toleo_core::arena::UntrustedDram;
use toleo_core::config::LINES_PER_PAGE;
use toleo_core::layout;
use toleo_core::protected::{MemoryError, MemoryStats, ProtectedMemory};
use toleo_core::seal::LineSealer;

/// A functional Morphable-Counters protection engine: data blocks sealed
/// under their morphable-leaf version, with leaf re-bases re-encrypting
/// the whole covered 8 KB.
///
/// A re-base may advance the versions of *unwritten* sibling blocks (the
/// fold adds the evicted maximum into the shared base), so the engine
/// re-seals every resident covered block whenever
/// [`MorphLeaf::update`] reports a re-base — and in doing so catches any
/// tampered or replayed sibling *during the walk*. A leaf covers two
/// pages, so a re-base is two of the engine's page walks. Versions are
/// nonces: a write moves its block's version up by at least one, and a
/// re-base never moves one down, so a re-sealed block either keeps its
/// version (same plaintext, same ciphertext) or takes one it never had.
/// As with [`VaultEngine`](crate::vault::VaultEngine), the counter store itself
/// is modelled as authenticated (the MAC-chain mechanics live in
/// [`CounterTree`](crate::tree::CounterTree)); the arena comparison
/// focuses on the scheme's distinguishing cost: encoding morphs and
/// re-base storms.
///
/// # Examples
///
/// ```
/// use toleo_baselines::morph::MorphEngine;
///
/// let mut m = MorphEngine::new(1 << 20); // 1 MB protected
/// m.write(0x40, &[9u8; 64]).unwrap();
/// assert_eq!(m.read(0x40).unwrap(), [9u8; 64]);
/// ```
#[derive(Debug)]
pub struct MorphEngine {
    leaves: Vec<MorphLeaf>,
    sealer: LineSealer,
    dram: UntrustedDram,
    bytes: u64,
    reads: u64,
    writes: u64,
    version_fetches: u64,
}

impl MorphEngine {
    /// Creates an engine protecting `bytes` of memory (one morphable leaf
    /// per 8 KB).
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 64`.
    pub fn new(bytes: u64) -> Self {
        assert!(bytes >= 64, "must protect at least one block");
        let blocks = (bytes / 64) as usize;
        MorphEngine {
            leaves: vec![MorphLeaf::new(); blocks.div_ceil(BLOCKS_PER_LEAF)],
            sealer: LineSealer::new(b"morph-data-key16morph-tweak-key!morph-mac-key16!"),
            dram: UntrustedDram::default(),
            bytes,
            reads: 0,
            writes: 0,
            version_fetches: 0,
        }
    }

    /// Total leaf re-bases (each re-encrypted 8 KB).
    pub fn rebases(&self) -> u64 {
        self.leaves.iter().map(|l| l.rebases).sum()
    }

    /// Total encoding switches (uniform ↔ skewed), which cost nothing.
    pub fn morphs(&self) -> u64 {
        self.leaves.iter().map(|l| l.morphs).sum()
    }

    fn check(&self, addr: u64) -> Result<u64, MemoryError> {
        whole_block(addr, self.bytes).ok_or(MemoryError::OutOfRange { address: addr })
    }

    /// Writes a block: bump its leaf delta, seal under the new version,
    /// and on a leaf re-base re-encrypt every resident covered block.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfRange`] beyond the protected size;
    /// [`MemoryError::IntegrityViolation`] if the re-base walk catches a
    /// tampered/replayed covered block.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn write(&mut self, addr: u64, plaintext: &[u8; 64]) -> Result<(), MemoryError> {
        let block = self.check(addr)?;
        let leaf_idx = block as usize / BLOCKS_PER_LEAF;
        let slot = block as usize % BLOCKS_PER_LEAF;
        // Snapshot pre-update versions: a re-base can move EVERY covered
        // block's version, and the walk must unseal each resident block
        // under the version it was sealed with.
        let old_versions = self.leaves[leaf_idx].versions();
        let reencrypted = self.leaves[leaf_idx].update(slot);
        self.version_fetches += 1;
        self.writes += 1;
        let leaf = &self.leaves[leaf_idx];
        if reencrypted > 0 {
            // A leaf covers two pages: one page walk each.
            let new_versions = leaf.versions();
            let first_page = (leaf_idx * BLOCKS_PER_LEAF / LINES_PER_PAGE) as u64;
            let halves = old_versions
                .chunks(LINES_PER_PAGE)
                .zip(new_versions.chunks(LINES_PER_PAGE));
            for (page, (old, new)) in (first_page..).zip(halves) {
                let skip = (page == layout::page_of(addr)).then_some(layout::line_of(addr));
                reseal(
                    &self.sealer,
                    &mut self.dram,
                    page,
                    skip,
                    |l| old[l],
                    |l| new[l],
                )?;
            }
        }
        let version = leaf.version(slot);
        seal(&self.sealer, &mut self.dram, addr, version, plaintext);
        Ok(())
    }

    /// Reads a block, verifying the MAC under its current leaf version.
    ///
    /// # Errors
    ///
    /// [`MemoryError::IntegrityViolation`] on tamper/replay;
    /// [`MemoryError::OutOfRange`] beyond the protected size.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn read(&mut self, addr: u64) -> Result<[u8; 64], MemoryError> {
        let block = self.check(addr)?;
        let leaf_idx = block as usize / BLOCKS_PER_LEAF;
        let slot = block as usize % BLOCKS_PER_LEAF;
        self.version_fetches += 1;
        self.reads += 1;
        let version = self.leaves[leaf_idx].version(slot);
        unseal(&self.sealer, &self.dram, addr, version)
            .ok_or(MemoryError::IntegrityViolation { address: addr })
    }
}

impl ProtectedMemory for MorphEngine {
    fn scheme(&self) -> &'static str {
        "morph"
    }

    fn read(&mut self, addr: u64) -> Result<[u8; 64], MemoryError> {
        MorphEngine::read(self, addr)
    }

    fn write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), MemoryError> {
        MorphEngine::write(self, addr, data)
    }

    fn stats(&self) -> MemoryStats {
        MemoryStats {
            reads: self.reads,
            writes: self.writes,
            version_fetches: self.version_fetches,
            reencryption_events: self.rebases(),
        }
    }

    fn untrusted(&mut self, _addr: u64) -> &mut UntrustedDram {
        &mut self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_is_128_to_1() {
        assert!((MorphLeaf::ratio() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_writes_stay_uniform() {
        let mut leaf = MorphLeaf::new();
        for round in 0..7 {
            for slot in 0..BLOCKS_PER_LEAF {
                assert_eq!(leaf.update(slot), 0, "round {round}");
            }
        }
        assert_eq!(leaf.encoding(), Encoding::Uniform);
        assert_eq!(leaf.rebases, 0);
        assert_eq!(leaf.version(5), 7);
    }

    #[test]
    fn skewed_writes_morph_without_rebase() {
        let mut leaf = MorphLeaf::new();
        // One hot block blows the 3-bit delta: the leaf morphs to skewed
        // instead of re-encrypting.
        for _ in 0..8 {
            leaf.update(3);
        }
        assert_eq!(leaf.encoding(), Encoding::Skewed);
        assert_eq!(leaf.morphs, 1);
        assert_eq!(leaf.rebases, 0);
        assert_eq!(leaf.version(3), 8);
    }

    #[test]
    fn too_many_hot_blocks_force_rebase() {
        let mut leaf = MorphLeaf::new();
        let mut reenc = 0;
        for hot in 0..6 {
            for _ in 0..9 {
                reenc += leaf.update(hot);
            }
        }
        assert!(reenc >= BLOCKS_PER_LEAF as u64, "re-based at least once");
        assert!(leaf.rebases >= 1);
    }

    #[test]
    fn versions_survive_morph_and_rebase() {
        let mut leaf = MorphLeaf::new();
        let mut shadow = [0u64; BLOCKS_PER_LEAF];
        // Deterministic skewed pattern.
        for i in 0..2000usize {
            let slot = if i % 3 == 0 {
                i % 5
            } else {
                i % BLOCKS_PER_LEAF
            };
            leaf.update(slot);
            shadow[slot] += 1;
        }
        // Versions must be non-decreasing and consistent with the shadow
        // for the monotone property (rebases may advance the base past
        // intermediate values but never lose increments).
        for (slot, s) in shadow.iter().enumerate() {
            assert!(
                leaf.version(slot) >= *s,
                "slot {slot}: {} < {s}",
                leaf.version(slot)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of leaf")]
    fn bad_slot_panics() {
        MorphLeaf::new().update(128);
    }

    fn engine() -> MorphEngine {
        MorphEngine::new(1 << 16)
    }

    #[test]
    fn engine_roundtrip_and_range() {
        let mut e = engine();
        e.write(0x40, &[1u8; 64]).unwrap();
        e.write(0x40, &[2u8; 64]).unwrap();
        assert_eq!(e.read(0x40).unwrap(), [2u8; 64]);
        assert_eq!(e.read(0x2000).unwrap(), [0u8; 64]);
        assert!(matches!(
            e.read(1 << 16),
            Err(MemoryError::OutOfRange { .. })
        ));
    }

    #[test]
    fn engine_survives_rebases_and_preserves_covered_blocks() {
        let mut e = engine();
        // Residents spread over one leaf's 128 blocks.
        for b in [1u64, 20, 64, 127] {
            e.write(b * 64, &[b as u8; 64]).unwrap();
        }
        // Six hot blocks overflowing the skewed encoding force re-bases
        // (same shape as the leaf-level too_many_hot_blocks test).
        for hot in 2..8u64 {
            for i in 0..12u64 {
                e.write(hot * 64, &[i as u8; 64]).unwrap();
            }
        }
        assert!(e.rebases() >= 1, "rebases: {}", e.rebases());
        for b in [1u64, 20, 64, 127] {
            assert_eq!(e.read(b * 64).unwrap(), [b as u8; 64], "block {b}");
        }
    }

    #[test]
    fn engine_tamper_and_replay_detected() {
        let mut e = engine();
        e.write(0x40, &[7u8; 64]).unwrap();
        assert!(ProtectedMemory::corrupt(&mut e, 0x40, 63, 0x01));
        assert!(matches!(
            e.read(0x40),
            Err(MemoryError::IntegrityViolation { address: 0x40 })
        ));

        let mut e = engine();
        e.write(0x80, &[1u8; 64]).unwrap();
        let stale = ProtectedMemory::capture(&mut e, 0x80);
        e.write(0x80, &[2u8; 64]).unwrap();
        ProtectedMemory::replay(&mut e, &stale);
        assert!(e.read(0x80).is_err());
    }

    /// A 100-byte Morph engine holds one whole block; bytes 64..100 used
    /// to be served as a block of the leaf.
    #[test]
    fn trailing_partial_block_is_out_of_range() {
        let mut e = MorphEngine::new(100);
        e.write(0, &[1u8; 64]).unwrap();
        let out = MemoryError::OutOfRange { address: 64 };
        assert_eq!(e.write(64, &[2u8; 64]), Err(out.clone()));
        assert_eq!(e.read(64), Err(out));
        assert_eq!(e.read(0).unwrap(), [1u8; 64]);
    }

    /// The nonce argument of the engine docs, observed across re-bases:
    /// six hot blocks overflow the skewed encoding, so re-bases fold the
    /// maximum into the base (every delta back to zero); after every
    /// write of the seeded trace, no verifying line's `(version,
    /// address)` has held two ciphertexts.
    #[test]
    fn no_nonce_ever_seals_two_ciphertexts() {
        let mut e = engine();
        let mut nonces = crate::tests::Nonces::default();
        let mut full_resets = 0;
        for (block, fill) in crate::tests::hot_trace(28, 600, 6, 256) {
            let rebases = e.rebases();
            e.write(block * 64, &[fill; 64]).unwrap();
            let leaf = &e.leaves[block as usize / BLOCKS_PER_LEAF];
            if e.rebases() > rebases && leaf.deltas.iter().all(|&d| d == 0) {
                full_resets += 1;
            }
            let leaves = &e.leaves;
            nonces.observe(&e.sealer, &e.dram, |b| {
                let b = b as usize;
                leaves[b / BLOCKS_PER_LEAF].version(b % BLOCKS_PER_LEAF)
            });
        }
        assert!(
            e.rebases() >= 3 && full_resets >= 1,
            "{} / {full_resets}",
            e.rebases()
        );
        assert!(nonces.len() > 500, "only {} nonces observed", nonces.len());
    }

    #[test]
    fn rebase_walk_detects_replayed_sibling() {
        let mut e = engine();
        // A resident sibling in leaf 0 gets replayed to a stale version.
        e.write(64, &[0xA0u8; 64]).unwrap();
        e.write(64, &[0xA1u8; 64]).unwrap();
        let stale = ProtectedMemory::capture(&mut e, 64);
        e.write(64, &[0xA2u8; 64]).unwrap();
        ProtectedMemory::replay(&mut e, &stale);
        // Drive the leaf into a re-base with >4 hot blocks.
        let mut caught = None;
        'drive: for hot in 2..8u64 {
            for i in 0..12u64 {
                if let Err(err) = e.write(hot * 64, &[i as u8; 64]) {
                    caught = Some(err);
                    break 'drive;
                }
            }
        }
        assert!(
            matches!(
                caught,
                Some(MemoryError::IntegrityViolation { address: 64 })
            ),
            "re-base walk must catch the stale sibling, got {caught:?}"
        );
    }
}
