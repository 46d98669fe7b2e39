//! VAULT-style variable-arity counter tree (Taassori et al., ASPLOS'18).
//!
//! VAULT increases tree arity by shrinking per-child counters as one moves
//! toward the leaves: a 64-byte node packs 16 25-bit counters near the
//! root, 32 12-bit ones in the middle and 64 6-bit ones at the leaves, so
//! the tree is shallower than SGX's 8-ary tree for the same protected
//! size. Small counters overflow quickly; an overflow forces a *node
//! reset*: all sibling counters re-base and every covered block must be
//! re-encrypted.
//!
//! [`VaultEngine`] seals under `(epoch || leaf counter, address)`: each
//! leaf group keeps an epoch that bumps on every overflow reset, so
//! `(epoch, counter)` pairs never repeat and stale capsules from before a
//! reset stay detectable. A write moves its counter up by one, and a
//! reset re-seals the group's other blocks at counter 0 of an epoch
//! nothing was sealed under yet. A leaf group is 64 blocks, one page, so
//! the reset is the engine's page walk — the cost (and the
//! replay-detection window) the paper's Table 4 row abstracts away. The
//! tree's internal MAC chain is modelled by
//! [`CounterTree`](crate::tree::CounterTree) in the SGX engine; here the
//! version store itself is treated as authenticated.

// audit: allow-file(indexing, leaf and counter indices come from a block below `blocks`, asserted by update())

use crate::{Baseline, Fetched, Moved, VersionStore};
use toleo_core::config::LINES_PER_PAGE;

/// Children per leaf node — the group that re-bases together on a
/// counter overflow, one page of lines.
const LEAF_ARITY: usize = 64;
/// Width of a leaf counter in bits.
const LEAF_COUNTER_BITS: u32 = 6;
/// Children per node from the leaves up; the last repeats for deeper
/// trees.
const ARITIES: [u64; 3] = [LEAF_ARITY as u64, 32, 16];

const _: () = assert!(LEAF_ARITY == LINES_PER_PAGE, "a leaf group is a page");

/// One leaf node: its group's small counters and the group's epoch.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    epoch: u64,
    counters: [u64; LEAF_ARITY],
}

/// A VAULT tree's leaves and cost model, with the paper's geometry.
#[derive(Debug, Clone)]
pub struct VaultTree {
    blocks: u64,
    leaves: Vec<Leaf>,
    /// Re-encryptions forced by counter overflows.
    pub overflow_resets: u64,
}

impl VaultTree {
    /// Builds a tree protecting `blocks` cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn new(blocks: u64) -> Self {
        assert!(blocks > 0, "must protect at least one block");
        let leaf = Leaf {
            epoch: 0,
            counters: [0; LEAF_ARITY],
        };
        VaultTree {
            blocks,
            leaves: vec![leaf; (blocks as usize).div_ceil(LEAF_ARITY)],
            overflow_resets: 0,
        }
    }

    /// Depth of the tree for the protected size (levels needed so the
    /// product of arities covers all blocks).
    pub fn depth(&self) -> usize {
        let mut covered = 1u64;
        let mut depth = 0;
        while depth == 0 || covered < self.blocks {
            covered = covered.saturating_mul(ARITIES[depth.min(ARITIES.len() - 1)]);
            depth += 1;
        }
        depth
    }

    /// Leaf data-to-version ratio: one 64-byte leaf node covers
    /// `64 * 64` bytes of data (the paper's Table 4 "VAULT (Leaf)" row:
    /// 64 B protects 4 KB = 64:1).
    pub fn leaf_ratio(&self) -> f64 {
        LEAF_ARITY as f64
    }

    /// Records a write to `block`, bumping its leaf counter. Returns the
    /// number of blocks that had to be re-encrypted (0 in the common case,
    /// the leaf's 64 when the small counter overflowed and the node
    /// re-based under a fresh epoch).
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn update(&mut self, block: u64) -> u64 {
        assert!(block < self.blocks, "block out of range");
        let slot = block as usize % LEAF_ARITY;
        let leaf = &mut self.leaves[block as usize / LEAF_ARITY];
        if leaf.counters[slot] < (1 << LEAF_COUNTER_BITS) - 1 {
            leaf.counters[slot] += 1;
            return 0;
        }
        // Overflow: a fresh epoch re-bases every sibling counter.
        self.overflow_resets += 1;
        leaf.epoch += 1;
        leaf.counters = [0; LEAF_ARITY];
        leaf.counters[slot] = 1;
        LEAF_ARITY as u64
    }

    /// The current counter of a block.
    pub fn counter(&self, block: u64) -> u64 {
        self.leaves[block as usize / LEAF_ARITY].counters[block as usize % LEAF_ARITY]
    }

    /// The version `block` seals under: `epoch << 6 | counter`.
    fn version(&self, block: u64) -> u64 {
        let leaf = &self.leaves[block as usize / LEAF_ARITY];
        leaf.epoch << LEAF_COUNTER_BITS | self.counter(block)
    }

    /// Every version of `block`'s group.
    fn group_versions(&self, block: u64) -> [u64; LEAF_ARITY] {
        let leaf = &self.leaves[block as usize / LEAF_ARITY];
        leaf.counters.map(|c| leaf.epoch << LEAF_COUNTER_BITS | c)
    }
}

/// A functional VAULT-style protection engine: one hot block forces its
/// whole group through re-encryption every `2^6 - 1` writes.
///
/// # Examples
///
/// ```
/// use toleo_baselines::vault::VaultEngine;
/// use toleo_core::protected::ProtectedMemory;
///
/// let mut v = VaultEngine::new(1 << 20); // 1 MB protected
/// v.write(0x40, &[9u8; 64]).unwrap();
/// assert_eq!(v.read(0x40).unwrap(), [9u8; 64]);
/// ```
pub type VaultEngine = Baseline<VaultTree>;

impl VersionStore for VaultTree {
    const SCHEME: &'static str = "vault";
    const KEY: &'static [u8; 48] = b"vault-data-key16vault-tweak-key!vault-mac-key16!";

    /// Each leaf holds a whole page's group of counters, the ones past
    /// the protected range included.
    fn for_bytes(bytes: u64) -> Self {
        VaultTree::new((bytes / 64).next_multiple_of(LEAF_ARITY as u64))
    }

    fn fetch(&mut self, block: u64) -> Option<Fetched> {
        Some(Fetched {
            version: self.version(block),
            fetches: 1,
        })
    }

    /// An overflow moves every other resident line of the group from the
    /// versions it was sealed under to counter 0 of the new epoch.
    fn advance(&mut self, block: u64) -> Option<(Fetched, Option<Moved>)> {
        let old = self.group_versions(block);
        let moved = (self.update(block) > 0).then(|| Moved {
            first_page: block / LEAF_ARITY as u64,
            old: old.to_vec(),
            new: self.group_versions(block).to_vec(),
        });
        Some((self.fetch(block)?, moved))
    }

    fn rebases(&self) -> u64 {
        self.overflow_resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toleo_core::protected::{MemoryError, ProtectedMemory};

    fn vault(blocks: u64) -> VaultTree {
        VaultTree::new(blocks)
    }

    #[test]
    fn leaf_ratio_is_64_to_1() {
        assert!((vault(1024).leaf_ratio() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn depth_shallower_than_8ary() {
        // 2^21 blocks (128 MB): VAULT with 64/32/16 arity needs fewer
        // levels than the 8-ary SGX tree's 6.
        let v = vault(1 << 21);
        assert!(v.depth() < 6, "vault depth {}", v.depth());
    }

    #[test]
    fn updates_count() {
        let mut v = vault(256);
        v.update(7);
        v.update(7);
        assert_eq!(v.counter(7), 2);
        assert_eq!(v.overflow_resets, 0);
    }

    #[test]
    fn overflow_rebases_group() {
        let mut v = vault(256);
        // 6-bit leaf counters overflow at 63.
        for _ in 0..63 {
            assert_eq!(v.update(0), 0);
        }
        let reencrypted = v.update(0);
        assert_eq!(reencrypted, 64, "whole 64-block group re-encrypted");
        assert_eq!(v.overflow_resets, 1);
        assert_eq!(v.counter(0), 1);
        assert_eq!(v.counter(1), 0);
    }

    #[test]
    fn hot_blocks_cause_frequent_overflow() {
        // The VAULT weakness Toleo's uneven format avoids: one hot block
        // forces group-wide re-encryption every 63 writes.
        let mut v = vault(256);
        let mut reenc = 0;
        for _ in 0..1000 {
            reenc += v.update(0);
        }
        assert!(
            reenc >= 15 * 64,
            "re-encrypted {reenc} blocks for 1000 writes"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        vault(16).update(16);
    }

    fn engine() -> VaultEngine {
        VaultEngine::new(1 << 16)
    }

    #[test]
    fn engine_roundtrip_and_versioning() {
        let mut e = engine();
        e.write(0, &[1u8; 64]).unwrap();
        e.write(0, &[2u8; 64]).unwrap();
        assert_eq!(e.read(0).unwrap(), [2u8; 64]);
        assert_eq!(e.read(0x8000).unwrap(), [0u8; 64], "unwritten reads zero");
        assert!(matches!(
            e.write(1 << 16, &[0u8; 64]),
            Err(MemoryError::OutOfRange { .. })
        ));
    }

    #[test]
    fn engine_survives_overflow_resets_and_preserves_siblings() {
        let mut e = engine();
        // Residents across the hot block's 64-block group.
        for b in [1u64, 7, 33, 63] {
            e.write(b * 64, &[b as u8; 64]).unwrap();
        }
        // 200 writes to block 0: 6-bit counters overflow at 63, so the
        // group resets multiple times and re-encrypts the residents.
        for i in 0..200u64 {
            e.write(0, &[i as u8; 64]).unwrap();
        }
        assert!(
            e.store.overflow_resets >= 3,
            "resets: {}",
            e.store.overflow_resets
        );
        assert_eq!(e.read(0).unwrap(), [199u8; 64]);
        for b in [1u64, 7, 33, 63] {
            assert_eq!(e.read(b * 64).unwrap(), [b as u8; 64], "sibling {b}");
        }
    }

    #[test]
    fn overflow_reset_detects_active_replay() {
        // The satellite scenario: the adversary replays a sibling's stale
        // capsule while the hot block drives the group into a counter
        // overflow. The reset walk unseals every resident sibling — the
        // stale capsule fails its MAC *during the reset*, before the
        // group could be re-based over the forgery.
        let mut e = engine();
        e.write(64, &[0xAAu8; 64]).unwrap(); // sibling, block 1
        e.write(64, &[0xABu8; 64]).unwrap();
        let stale = e.capture(64);
        e.write(64, &[0xACu8; 64]).unwrap(); // version moves past capture
        e.replay(&stale);
        // Hammer block 0 to force the group overflow; the walk must trip.
        let mut caught = None;
        for i in 0..100u64 {
            if let Err(err) = e.write(0, &[i as u8; 64]) {
                caught = Some(err);
                break;
            }
        }
        assert!(
            matches!(
                caught,
                Some(MemoryError::IntegrityViolation { address: 64 })
            ),
            "reset walk must catch the replayed sibling, got {caught:?}"
        );
        assert!(e.store.overflow_resets >= 1);
    }

    #[test]
    fn engine_replay_detected_on_read_before_any_reset() {
        let mut e = engine();
        e.write(0x40, &[1u8; 64]).unwrap();
        let stale = e.capture(0x40);
        e.write(0x40, &[2u8; 64]).unwrap();
        e.replay(&stale);
        assert!(matches!(
            e.read(0x40),
            Err(MemoryError::IntegrityViolation { address: 0x40 })
        ));
    }

    /// A 100-byte VAULT holds one whole block; bytes 64..100 used to
    /// reach past the leaf counters (a panic on write and on read).
    #[test]
    fn trailing_partial_block_is_out_of_range() {
        let mut e = VaultEngine::new(100);
        e.write(0, &[1u8; 64]).unwrap();
        let out = MemoryError::OutOfRange { address: 64 };
        assert_eq!(e.write(64, &[2u8; 64]), Err(out.clone()));
        assert_eq!(e.read(64), Err(out));
        assert_eq!(e.read(0).unwrap(), [1u8; 64]);
    }

    /// The nonce argument of the engine docs, observed across overflow
    /// resets: after every write of a seeded hot-block trace, no verifying
    /// line's `(version, address)` has held two ciphertexts.
    #[test]
    fn no_nonce_ever_seals_two_ciphertexts() {
        let mut e = engine();
        let mut nonces = crate::tests::Nonces::default();
        for (block, fill) in crate::tests::hot_trace(28, 600, 1, 128) {
            e.write(block * 64, &[fill; 64]).unwrap();
            nonces.observe(&mut e);
        }
        assert!(
            e.store.overflow_resets >= 3,
            "resets: {}",
            e.store.overflow_resets
        );
        let (sealed, blanks) = nonces.len();
        assert!(
            sealed > 500 && blanks > 100,
            "only {sealed} + {blanks} nonces observed"
        );
    }

    #[test]
    fn epoch_keeps_versions_unique_across_resets() {
        // (epoch, counter) must never repeat for a block: collect the
        // write-time versions of the hot block across several overflows.
        let mut e = engine();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300u64 {
            e.write(0, &[0u8; 64]).unwrap();
            assert!(seen.insert(e.store.version(0)), "version repeated");
        }
        assert!(e.store.overflow_resets >= 4);
    }
}
