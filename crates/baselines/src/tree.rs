//! A functional Merkle counter tree — the mechanism client SGX, VAULT and
//! Morphable Counters use to protect version-number freshness, and the
//! scalability bottleneck Toleo eliminates.
//!
//! Every leaf holds the version counters of eight data blocks; every
//! internal node holds its eight children's counters. A node is eight
//! 8-byte counters, one 64-byte line, tagged with the line MAC
//! ([`LineMac`]) under the pad of `(parent counter, node address)`: the
//! parent's counter for a node bumps on every write beneath it, so that
//! pair is a nonce (SGX MEE's argument), and the 64-byte-aligned node
//! address keeps siblings with equal parent counters apart. The root
//! counters live in trusted on-chip storage. Verifying one data block's
//! version requires walking root→leaf and checking each tag; updating
//! requires bumping a counter at every level. Both costs grow with
//! `log_8(N)`, which is why the approach cannot scale to tera-scale
//! memory (§1).

// audit: allow-file(indexing, level/index pairs come from path() and parent arithmetic, bounded by the tree geometry)

use crate::Fetched;
use toleo_core::cache::SetAssocCache;
use toleo_core::protected::MemoryError;
use toleo_crypto::mac::{LineMac, Tag56};
use toleo_crypto::modes::{AesXts, Tweak};

/// Children per node: eight 8-byte counters fill one 64-byte line.
pub const ARITY: usize = 8;
/// `log2(ARITY)`.
const ARITY_BITS: u32 = 3;

/// One tree node: per-child counters and the tag binding them to this
/// node's counter in the parent. Everything here lives in *untrusted*
/// memory.
#[derive(Debug, Clone, Copy, Default)]
struct TreeNode {
    counters: [u64; ARITY],
    tag: Tag56,
}

/// The 64-byte-aligned pseudo-address a node's tag pad is keyed by.
fn node_address(level: usize, index: usize) -> u64 {
    ((level as u64) << 48 | index as u64) * 64
}

/// A functional Merkle counter tree with a node cache.
///
/// # Examples
///
/// ```
/// use toleo_baselines::tree::CounterTree;
///
/// let mut tree = CounterTree::new(4096, 64);
/// let v0 = tree.verify(17).unwrap().version;
/// tree.update(17).unwrap();
/// assert_eq!(tree.verify(17).unwrap().version, v0 + 1);
/// ```
#[derive(Debug)]
pub struct CounterTree {
    blocks: u64,
    /// levels[0] = children of the root ... levels.last() = leaves.
    levels: Vec<Vec<TreeNode>>,
    /// The trusted root counters (always on chip).
    root_counters: [u64; ARITY],
    /// The node tags' pads (`line_pads`) and hash.
    xts: AesXts,
    mac: LineMac,
    /// On-chip metadata cache over (level, index) node keys.
    cache: SetAssocCache,
}

impl CounterTree {
    /// Builds an 8-ary tree protecting `blocks` data blocks with a node
    /// cache of `cache_nodes` entries.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn new(blocks: u64, cache_nodes: usize) -> Self {
        assert!(blocks > 0, "must protect at least one block");
        // Level sizes bottom-up: leaves hold `ARITY` block counters.
        let mut levels = Vec::new();
        let mut n = blocks.div_ceil(ARITY as u64);
        loop {
            levels.push(vec![TreeNode::default(); n as usize]);
            if n <= ARITY as u64 {
                break;
            }
            n = n.div_ceil(ARITY as u64);
        }
        levels.reverse(); // now top-down
        let mut tree = CounterTree {
            blocks,
            levels,
            root_counters: [0; ARITY],
            // Keys of its own: node addresses overlap data-line
            // addresses, so under the lines' keys a node pad could be a
            // line's pad.
            xts: AesXts::new(b"sgx-tree-data-k!", b"sgx-tree-tweak-k"),
            mac: LineMac::new(b"sgx-tree-mac-key"),
            cache: SetAssocCache::new((cache_nodes / 8).max(1), 8),
        };
        // Tag every node under its initial parent counter.
        for level in 0..tree.levels.len() {
            for index in 0..tree.levels[level].len() {
                tree.levels[level][index].tag = tree.node_tag(level, index);
            }
        }
        tree
    }

    /// Number of levels below the root.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total bytes of tree metadata in untrusted memory (counters + tags),
    /// assuming 8-byte counters and 7-byte tags.
    pub fn metadata_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.len() as u64 * (ARITY as u64 * 8 + 7))
            .sum()
    }

    /// Node `(level, index)`'s counter in its parent (the root's are
    /// on chip).
    fn parent_counter(&self, level: usize, index: usize) -> u64 {
        match level {
            0 => self.root_counters[index % ARITY],
            _ => self.levels[level - 1][index / ARITY].counters[index % ARITY],
        }
    }

    /// The tag node `(level, index)` should carry: its counters as one
    /// line, MACed under the pad of `(parent counter, node address)`.
    fn node_tag(&self, level: usize, index: usize) -> Tag56 {
        let mut line = [0u8; 64];
        for (bytes, counter) in line
            .as_chunks_mut()
            .0
            .iter_mut()
            .zip(self.levels[level][index].counters)
        {
            *bytes = counter.to_le_bytes();
        }
        let tweak = Tweak {
            version: self.parent_counter(level, index),
            address: node_address(level, index),
        };
        self.mac.tag(&self.xts.line_pads(tweak).mac_pad, &line)
    }

    /// From the top level down to `block`'s leaf: each node on its path
    /// as `(level, index)`, with the slot of the path's child in it.
    fn path(&self, block: u64) -> impl Iterator<Item = (usize, usize, usize)> {
        let depth = self.depth();
        (0..depth).map(move |level| {
            let child = (block >> (ARITY_BITS * (depth - 1 - level) as u32)) as usize;
            (level, child / ARITY, child % ARITY)
        })
    }

    /// Verifies the tag chain root→leaf and returns the block's version
    /// and the node fetches that missed the cache.
    ///
    /// # Errors
    ///
    /// [`MemoryError::IntegrityViolation`] at the node address of the
    /// first node whose tag fails; [`MemoryError::OutOfRange`] for blocks
    /// outside the tree.
    pub fn verify(&mut self, block: u64) -> Result<Fetched, MemoryError> {
        if block >= self.blocks {
            return Err(MemoryError::OutOfRange {
                address: block.saturating_mul(64),
            });
        }
        let mut fetched = Fetched {
            version: 0,
            fetches: 0,
        };
        for (level, index, slot) in self.path(block) {
            fetched.fetches += u64::from(!self.cache.access((level as u64) << 48 | index as u64));
            let node = &self.levels[level][index];
            if !self.node_tag(level, index).verify(&node.tag) {
                return Err(MemoryError::IntegrityViolation {
                    address: node_address(level, index),
                });
            }
            fetched.version = node.counters[slot];
        }
        Ok(fetched)
    }

    /// Increments the block's version: bumps the path's counter at every
    /// level (the root's included) and re-tags every node on the path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`verify`](Self::verify) — an update first
    /// verifies the existing path.
    pub fn update(&mut self, block: u64) -> Result<Fetched, MemoryError> {
        let verified = self.verify(block)?;
        for (level, index, slot) in self.path(block) {
            if level == 0 {
                self.root_counters[index % ARITY] += 1;
            }
            self.levels[level][index].counters[slot] += 1;
        }
        for (level, index, _) in self.path(block) {
            self.levels[level][index].tag = self.node_tag(level, index);
        }
        Ok(Fetched {
            version: verified.version + 1,
            fetches: verified.fetches,
        })
    }

    /// Adversary hook: overwrite a stored counter in untrusted memory.
    /// Subsequent verification of any block under this node must fail.
    pub fn tamper_counter(&mut self, level: usize, index: usize, slot: usize, value: u64) {
        self.levels[level][index].counters[slot] = value;
    }

    /// Adversary hook: capture a leaf node (counters + tag) for replay.
    pub fn capture_leaf(&self, block: u64) -> ([u64; ARITY], Tag56) {
        let leaf = &self.levels[self.depth() - 1][block as usize / ARITY];
        (leaf.counters, leaf.tag)
    }

    /// Adversary hook: replay a previously captured leaf.
    pub fn replay_leaf(&mut self, block: u64, (counters, tag): ([u64; ARITY], Tag56)) {
        let depth = self.depth();
        self.levels[depth - 1][block as usize / ARITY] = TreeNode { counters, tag };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn tree() -> CounterTree {
        CounterTree::new(4096, 64)
    }

    #[test]
    fn depth_grows_logarithmically() {
        assert_eq!(CounterTree::new(8, 4).depth(), 1);
        assert_eq!(CounterTree::new(64, 4).depth(), 1); // 8 leaves under root
        assert_eq!(CounterTree::new(512, 4).depth(), 2);
        // 8-ary over 2^21 blocks (128 MB EPC): 6 tree levels; with the MAC
        // fetch that is the paper's "up to 7 additional accesses" (§1).
        assert_eq!(CounterTree::new(1 << 21, 4).depth(), 6);
        // 28 TB: ~13 levels (paper: "13 accesses for 28 TB memory").
        let blocks_28tb = 28u64 << 40 >> 6;
        let depth = (blocks_28tb as f64).log(8.0).ceil() as usize;
        assert!(depth >= 13, "28 TB needs {depth} levels");
    }

    #[test]
    fn verify_and_update_roundtrip() {
        let mut t = tree();
        assert_eq!(t.verify(0).unwrap().version, 0);
        t.update(0).unwrap();
        t.update(0).unwrap();
        assert_eq!(t.verify(0).unwrap().version, 2);
        assert_eq!(t.verify(1).unwrap().version, 0, "neighbours unaffected");
    }

    #[test]
    fn updates_touch_all_levels() {
        let mut t = tree();
        // After an update, every node on the path has fresh MACs that still
        // verify.
        t.update(100).unwrap();
        for b in [100u64, 101, 99, 0, 4095] {
            assert!(t.verify(b).is_ok(), "block {b}");
        }
    }

    #[test]
    fn tampered_leaf_counter_detected() {
        let mut t = tree();
        t.update(9).unwrap();
        let leaf_level = t.depth() - 1;
        t.tamper_counter(leaf_level, 1, 1, 999); // block 9 lives at leaf 1 slot 1
        let address = node_address(leaf_level, 1);
        assert_eq!(
            t.verify(9),
            Err(MemoryError::IntegrityViolation { address })
        );
    }

    #[test]
    fn tampered_internal_counter_detected() {
        let mut t = tree();
        t.update(9).unwrap();
        t.tamper_counter(0, 0, 0, 7);
        let address = node_address(0, 0);
        assert_eq!(
            t.verify(9),
            Err(MemoryError::IntegrityViolation { address })
        );
    }

    #[test]
    fn replayed_leaf_detected() {
        let mut t = tree();
        t.update(5).unwrap();
        let stale = t.capture_leaf(5);
        t.update(5).unwrap(); // version moves on; parent counters change
        t.replay_leaf(5, stale);
        // The stale leaf's tag was computed under an older parent counter.
        let address = node_address(t.depth() - 1, 0);
        assert_eq!(
            t.verify(5),
            Err(MemoryError::IntegrityViolation { address })
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = tree();
        assert_eq!(
            t.verify(4096),
            Err(MemoryError::OutOfRange { address: 4096 * 64 })
        );
        assert!(matches!(
            t.update(u64::MAX),
            Err(MemoryError::OutOfRange { .. })
        ));
    }

    #[test]
    fn cache_reduces_walk_accesses() {
        let mut t = tree();
        let cold = t.verify(7).unwrap().fetches;
        let warm = t.verify(7).unwrap().fetches;
        assert!(cold > 0);
        assert_eq!(warm, 0, "fully cached path costs no memory accesses");
        assert!(cold as usize <= t.depth());
    }

    #[test]
    fn metadata_overhead_grows_with_size() {
        let small = CounterTree::new(1 << 10, 4).metadata_bytes();
        let large = CounterTree::new(1 << 16, 4).metadata_bytes();
        assert!(large > 32 * small);
    }

    /// The nonce argument of the module docs, observed: over a seeded
    /// trace of updates and verifies, no `(parent counter, node address)`
    /// pad ever tags two different counter lines, although nodes with
    /// equal parent counters hold different lines — what the address in
    /// the nonce keeps apart.
    #[test]
    fn no_nonce_ever_seals_two_ciphertexts() {
        let mut t = tree();
        let mut pads = HashMap::new();
        for (block, fill) in crate::tests::hot_trace(34, 400, 64, 4096) {
            if fill % 4 == 0 {
                t.verify(block).unwrap();
                continue;
            }
            t.update(block).unwrap();
            for (level, nodes) in t.levels.iter().enumerate() {
                for (index, node) in nodes.iter().enumerate() {
                    assert!(t.node_tag(level, index).verify(&node.tag));
                    let pad = (t.parent_counter(level, index), node_address(level, index));
                    let earlier = pads.insert(pad, node.counters);
                    assert!(
                        earlier.is_none_or(|old| old == node.counters),
                        "pad {pad:x?} tagged two counter lines"
                    );
                }
            }
        }
        let at_one: HashSet<_> = pads
            .iter()
            .filter(|((p, _), _)| *p == 1)
            .map(|(_, l)| l)
            .collect();
        assert!(at_one.len() >= 2, "no two nodes share a parent counter");
    }
}
