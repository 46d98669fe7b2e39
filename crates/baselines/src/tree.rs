//! A functional Merkle counter tree — the mechanism client SGX, VAULT and
//! Morphable Counters use to protect version-number freshness, and the
//! scalability bottleneck Toleo eliminates.
//!
//! Every leaf holds the version counters of a run of data blocks; every
//! internal node holds per-child counters plus a MAC computed over the
//! children's counters keyed by the node's own counter. The root counter
//! lives in trusted on-chip storage. Verifying one data block's version
//! requires walking root→leaf and checking each MAC; updating requires
//! bumping a counter at every level. Both costs grow with `log_arity(N)`,
//! which is why the approach cannot scale to tera-scale memory (§1).

// audit: allow-file(indexing, level/index pairs come from path() and parent arithmetic, bounded by the tree geometry)

use toleo_core::cache::SetAssocCache;
use toleo_crypto::mac::{MacKey, Tag56};

/// Errors from tree verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A node MAC failed: the stored counters were tampered with or
    /// replayed.
    NodeTampered {
        /// Tree level (0 = children of the root).
        level: usize,
        /// Node index within its level.
        index: usize,
    },
    /// Block index beyond the protected range.
    OutOfRange {
        /// The offending block index.
        block: u64,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::NodeTampered { level, index } => {
                write!(
                    f,
                    "counter-tree node {index} at level {level} failed its MAC"
                )
            }
            TreeError::OutOfRange { block } => write!(f, "block {block} outside the tree"),
        }
    }
}

impl std::error::Error for TreeError {}

/// One tree node: per-child counters and a MAC binding them to this node's
/// counter in the parent. Everything here lives in *untrusted* memory.
#[derive(Debug, Clone)]
struct TreeNode {
    counters: Vec<u64>,
    tag: Tag56,
}

/// Result of a verified walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The data block's version counter.
    pub version: u64,
    /// Memory accesses performed (nodes fetched from untrusted memory,
    /// after cache filtering).
    pub memory_accesses: u32,
}

/// A functional Merkle counter tree with a node cache.
///
/// # Examples
///
/// ```
/// use toleo_baselines::tree::CounterTree;
///
/// let mut tree = CounterTree::new(8, 4096, 64);
/// let v0 = tree.verify(17).unwrap().version;
/// tree.update(17).unwrap();
/// assert_eq!(tree.verify(17).unwrap().version, v0 + 1);
/// ```
// audit: allow(secret, MacKey's manual Debug impl already redacts the key)
#[derive(Debug)]
pub struct CounterTree {
    arity: usize,
    blocks: u64,
    /// levels[0] = children of the root ... levels.last() = leaves.
    levels: Vec<Vec<TreeNode>>,
    /// The trusted root counters (always on chip).
    root_counters: Vec<u64>,
    mac_key: MacKey,
    /// On-chip metadata cache over (level, index) node keys.
    cache: SetAssocCache,
}

impl CounterTree {
    /// Builds a tree of the given `arity` protecting `blocks` data blocks
    /// with a node cache of `cache_nodes` entries.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2` or `blocks == 0`.
    pub fn new(arity: usize, blocks: u64, cache_nodes: usize) -> Self {
        assert!(arity >= 2, "arity must be at least 2");
        assert!(blocks > 0, "must protect at least one block");
        let mac_key = MacKey::new([0x7au8; 16]);
        // Build level sizes bottom-up: leaves hold `arity` block counters.
        let mut level_nodes = Vec::new();
        let mut n = blocks.div_ceil(arity as u64);
        loop {
            level_nodes.push(n);
            if n <= arity as u64 {
                break;
            }
            n = n.div_ceil(arity as u64);
        }
        level_nodes.reverse(); // now top-down
        let levels: Vec<Vec<TreeNode>> = level_nodes
            .iter()
            .map(|&count| {
                (0..count)
                    .map(|_| TreeNode {
                        counters: vec![0; arity],
                        tag: Tag56::default(),
                    })
                    .collect()
            })
            .collect();
        let root_counters = vec![0; arity];
        let mut tree = CounterTree {
            arity,
            blocks,
            levels,
            root_counters,
            mac_key,
            cache: SetAssocCache::new((cache_nodes / 8).max(1), 8),
        };
        // Seal every node with an initial MAC.
        for level in 0..tree.levels.len() {
            for index in 0..tree.levels[level].len() {
                let parent_ctr = tree.parent_counter(level, index);
                let tag = tree.node_mac(level, index, parent_ctr);
                tree.levels[level][index].tag = tag;
            }
        }
        tree
    }

    /// Number of levels below the root.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Children per node.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The leaf node index covering `block`.
    pub fn leaf_of(&self, block: u64) -> u64 {
        block / self.arity as u64
    }

    /// Total bytes of tree metadata in untrusted memory (counters + MACs),
    /// assuming 8-byte counters and 7-byte MACs.
    pub fn metadata_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.len() as u64 * (self.arity as u64 * 8 + 7))
            .sum()
    }

    fn parent_counter(&self, level: usize, index: usize) -> u64 {
        if level == 0 {
            self.root_counters[index % self.arity]
        } else {
            let parent = &self.levels[level - 1][index / self.arity];
            parent.counters[index % self.arity]
        }
    }

    fn node_mac(&self, level: usize, index: usize, parent_counter: u64) -> Tag56 {
        let node = &self.levels[level][index];
        let mut bytes = Vec::with_capacity(node.counters.len() * 8);
        for c in &node.counters {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        self.mac_key
            .mac(parent_counter, (level as u64) << 32 | index as u64, &bytes)
    }

    fn path(&self, block: u64) -> Vec<(usize, usize)> {
        // Walk bottom-up computing node indices, then reverse.
        let mut path = Vec::with_capacity(self.depth());
        let mut idx = (block / self.arity as u64) as usize;
        for level in (0..self.depth()).rev() {
            path.push((level, idx));
            idx /= self.arity;
        }
        path.reverse();
        path
    }

    /// Verifies the MAC chain root→leaf and returns the block's version.
    ///
    /// # Errors
    ///
    /// [`TreeError::NodeTampered`] if any node MAC fails;
    /// [`TreeError::OutOfRange`] for blocks outside the tree.
    pub fn verify(&mut self, block: u64) -> Result<WalkResult, TreeError> {
        if block >= self.blocks {
            return Err(TreeError::OutOfRange { block });
        }
        let mut accesses = 0u32;
        for (level, index) in self.path(block) {
            let key = ((level as u64) << 48) | index as u64;
            if !self.cache.access(key) {
                accesses += 1;
            }
            let expect = self.node_mac(level, index, self.parent_counter(level, index));
            if !expect.verify(&self.levels[level][index].tag) {
                return Err(TreeError::NodeTampered { level, index });
            }
        }
        let leaf = &self.levels[self.depth() - 1][(block / self.arity as u64) as usize];
        Ok(WalkResult {
            version: leaf.counters[(block % self.arity as u64) as usize],
            memory_accesses: accesses,
        })
    }

    /// Increments the block's version, re-MACing every node on the path.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`verify`](Self::verify) — an update first
    /// verifies the existing path.
    pub fn update(&mut self, block: u64) -> Result<WalkResult, TreeError> {
        let verified = self.verify(block)?;
        let path = self.path(block);
        // Bump the counter at every level (root counter included), then
        // re-MAC bottom-up.
        let (_, top_index) = path[0];
        self.root_counters[top_index % self.arity] += 1;
        for w in path.windows(2) {
            let (_, index) = w[1];
            let (plevel, pindex) = w[0];
            let child_slot = index % self.arity;
            self.levels[plevel][pindex].counters[child_slot] += 1;
        }
        let (leaf_level, leaf_index) = (self.depth() - 1, self.leaf_of(block) as usize);
        let slot = (block % self.arity as u64) as usize;
        self.levels[leaf_level][leaf_index].counters[slot] += 1;
        for &(level, index) in path.iter().rev() {
            let parent_ctr = self.parent_counter(level, index);
            let tag = self.node_mac(level, index, parent_ctr);
            self.levels[level][index].tag = tag;
        }
        Ok(WalkResult {
            version: verified.version + 1,
            memory_accesses: verified.memory_accesses,
        })
    }

    /// Adversary hook: overwrite a stored counter in untrusted memory.
    /// Subsequent verification of any block under this node must fail.
    pub fn tamper_counter(&mut self, level: usize, index: usize, slot: usize, value: u64) {
        self.levels[level][index].counters[slot] = value;
    }

    /// Adversary hook: capture a leaf node (counters + MAC) for replay.
    pub fn capture_leaf(&self, block: u64) -> (Vec<u64>, Tag56) {
        let leaf = &self.levels[self.depth() - 1][(block / self.arity as u64) as usize];
        (leaf.counters.clone(), leaf.tag)
    }

    /// Adversary hook: replay a previously captured leaf.
    pub fn replay_leaf(&mut self, block: u64, capsule: (Vec<u64>, Tag56)) {
        let depth = self.depth();
        let leaf = &mut self.levels[depth - 1][(block / self.arity as u64) as usize];
        leaf.counters = capsule.0;
        leaf.tag = capsule.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> CounterTree {
        CounterTree::new(8, 4096, 64)
    }

    #[test]
    fn depth_grows_logarithmically() {
        assert_eq!(CounterTree::new(8, 8, 4).depth(), 1);
        assert_eq!(CounterTree::new(8, 64, 4).depth(), 1); // 8 leaves under root
        assert_eq!(CounterTree::new(8, 512, 4).depth(), 2);
        // 8-ary over 2^21 blocks (128 MB EPC): 6 tree levels; with the MAC
        // fetch that is the paper's "up to 7 additional accesses" (§1).
        assert_eq!(CounterTree::new(8, 1 << 21, 4).depth(), 6);
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
        assert!(matches!(t.verify(9), Err(TreeError::NodeTampered { .. })));
    }

    #[test]
    fn tampered_internal_counter_detected() {
        let mut t = tree();
        t.update(9).unwrap();
        t.tamper_counter(0, 0, 0, 7);
        assert!(matches!(t.verify(9), Err(TreeError::NodeTampered { .. })));
    }

    #[test]
    fn replayed_leaf_detected() {
        let mut t = tree();
        t.update(5).unwrap();
        let stale = t.capture_leaf(5);
        t.update(5).unwrap(); // version moves on; parent counters change
        t.replay_leaf(5, stale);
        // The stale leaf's MAC was computed under an older parent counter.
        assert!(matches!(t.verify(5), Err(TreeError::NodeTampered { .. })));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = tree();
        assert!(matches!(t.verify(4096), Err(TreeError::OutOfRange { .. })));
        assert!(matches!(
            t.update(u64::MAX),
            Err(TreeError::OutOfRange { .. })
        ));
    }

    #[test]
    fn cache_reduces_walk_accesses() {
        let mut t = tree();
        let cold = t.verify(7).unwrap().memory_accesses;
        let warm = t.verify(7).unwrap().memory_accesses;
        assert!(cold > 0);
        assert_eq!(warm, 0, "fully cached path costs no memory accesses");
        assert!(cold as usize <= t.depth());
    }

    #[test]
    fn metadata_overhead_grows_with_size() {
        let small = CounterTree::new(8, 1 << 10, 4).metadata_bytes();
        let large = CounterTree::new(8, 1 << 16, 4).metadata_bytes();
        assert!(large > 32 * small);
    }

    #[test]
    fn error_display() {
        assert!(TreeError::NodeTampered { level: 1, index: 2 }
            .to_string()
            .contains("MAC"));
        assert!(TreeError::OutOfRange { block: 5 }
            .to_string()
            .contains("outside"));
    }
}
