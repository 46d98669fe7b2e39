//! Client-SGX-style memory encryption engine over a Merkle counter tree —
//! the functional baseline Toleo replaces.
//!
//! Data blocks are sealed as Toleo seals them ([`LineSealer`]: XTS under a
//! `(version, address)` tweak plus the line MAC) into the same page
//! arena; versions live in the counter-tree leaves whose integrity chains
//! up to an on-chip root. A leaf counter goes up by one per write and
//! never resets, so `(version, address)` never repeats. The EPC (enclave
//! page cache) is limited — accesses beyond it would page in the real
//! system; here the capacity limit is surfaced for the overhead
//! comparison in the ablation benches.

use crate::tree::{CounterTree, TreeError};
use crate::{seal, unseal, whole_block};
use toleo_core::arena::UntrustedDram;
use toleo_core::protected::{MemoryError, MemoryStats, ProtectedMemory};
use toleo_core::seal::LineSealer;

/// Errors from the SGX-style engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// MAC mismatch on data read — tampering or replay.
    IntegrityViolation {
        /// Block address.
        address: u64,
    },
    /// The counter tree detected tampering.
    Tree(TreeError),
    /// Address beyond the protected EPC.
    OutOfEpc {
        /// The offending address.
        address: u64,
    },
}

impl std::fmt::Display for SgxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxError::IntegrityViolation { address } => {
                write!(f, "sgx integrity check failed at {address:#x}")
            }
            SgxError::Tree(e) => write!(f, "sgx counter tree: {e}"),
            SgxError::OutOfEpc { address } => write!(f, "address {address:#x} outside the EPC"),
        }
    }
}

impl std::error::Error for SgxError {}

impl From<TreeError> for SgxError {
    fn from(e: TreeError) -> Self {
        SgxError::Tree(e)
    }
}

fn to_memory_error(e: SgxError, address: u64) -> MemoryError {
    match e {
        SgxError::IntegrityViolation { address } => MemoryError::IntegrityViolation { address },
        // A tree-node MAC failure is version tampering/replay: surface it
        // as an integrity violation at the access that tripped it.
        SgxError::Tree(_) => MemoryError::IntegrityViolation { address },
        SgxError::OutOfEpc { address } => MemoryError::OutOfRange { address },
    }
}

/// A client-SGX memory encryption engine protecting a fixed EPC.
///
/// # Examples
///
/// ```
/// use toleo_baselines::sgx::SgxEngine;
///
/// let mut sgx = SgxEngine::new(1 << 20); // 1 MB EPC
/// sgx.write(0x40, &[9u8; 64]).unwrap();
/// assert_eq!(sgx.read(0x40).unwrap(), [9u8; 64]);
/// ```
#[derive(Debug)]
pub struct SgxEngine {
    epc_bytes: u64,
    tree: CounterTree,
    sealer: LineSealer,
    dram: UntrustedDram,
    /// Tree-node memory accesses accumulated (the Merkle overhead).
    pub tree_accesses: u64,
    reads: u64,
    writes: u64,
}

impl SgxEngine {
    /// Creates an engine protecting `epc_bytes` of memory (client SGX:
    /// 128 MB).
    pub fn new(epc_bytes: u64) -> Self {
        SgxEngine {
            epc_bytes,
            tree: CounterTree::new(8, epc_bytes / 64, 512),
            sealer: LineSealer::new(b"sgx-data-key 16Bsgx-tweak-key 16sgx-mac-key 16B!"),
            dram: UntrustedDram::default(),
            tree_accesses: 0,
            reads: 0,
            writes: 0,
        }
    }

    fn check(&self, addr: u64) -> Result<u64, SgxError> {
        whole_block(addr, self.epc_bytes).ok_or(SgxError::OutOfEpc { address: addr })
    }

    /// Writes a block: bump the version in the tree, encrypt, MAC, store.
    ///
    /// # Errors
    ///
    /// [`SgxError::OutOfEpc`] outside the EPC's whole blocks; tree errors
    /// if the tree was tampered with.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn write(&mut self, addr: u64, plaintext: &[u8; 64]) -> Result<(), SgxError> {
        let walk = self.tree.update(self.check(addr)?)?;
        self.tree_accesses += walk.memory_accesses as u64;
        self.writes += 1;
        seal(&self.sealer, &mut self.dram, addr, walk.version, plaintext);
        Ok(())
    }

    /// Reads a block: verify the version path, check the MAC, decrypt.
    ///
    /// # Errors
    ///
    /// [`SgxError::IntegrityViolation`] on MAC mismatch (replay/tamper);
    /// tree errors on counter tampering; [`SgxError::OutOfEpc`] outside the
    /// EPC's whole blocks.
    ///
    /// # Panics
    ///
    /// Panics on unaligned addresses.
    pub fn read(&mut self, addr: u64) -> Result<[u8; 64], SgxError> {
        let walk = self.tree.verify(self.check(addr)?)?;
        self.tree_accesses += walk.memory_accesses as u64;
        self.reads += 1;
        unseal(&self.sealer, &self.dram, addr, walk.version)
            .ok_or(SgxError::IntegrityViolation { address: addr })
    }

    /// The counter tree (for tamper experiments).
    pub fn tree_mut(&mut self) -> &mut CounterTree {
        &mut self.tree
    }

    /// Depth of the integrity tree.
    pub fn tree_depth(&self) -> usize {
        self.tree.depth()
    }
}

impl ProtectedMemory for SgxEngine {
    fn scheme(&self) -> &'static str {
        "sgx-tree"
    }

    fn read(&mut self, addr: u64) -> Result<[u8; 64], MemoryError> {
        SgxEngine::read(self, addr).map_err(|e| to_memory_error(e, addr))
    }

    fn write(&mut self, addr: u64, data: &[u8; 64]) -> Result<(), MemoryError> {
        SgxEngine::write(self, addr, data).map_err(|e| to_memory_error(e, addr))
    }

    fn stats(&self) -> MemoryStats {
        MemoryStats {
            reads: self.reads,
            writes: self.writes,
            version_fetches: self.tree_accesses,
            // 64-bit tree counters never overflow in practice: client SGX
            // pays its cost in walk depth, not in reset storms.
            reencryption_events: 0,
        }
    }

    fn untrusted(&mut self, _addr: u64) -> &mut UntrustedDram {
        &mut self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sgx() -> SgxEngine {
        SgxEngine::new(1 << 20)
    }

    #[test]
    fn roundtrip_and_versioning() {
        let mut e = sgx();
        e.write(0, &[1u8; 64]).unwrap();
        e.write(0, &[2u8; 64]).unwrap();
        assert_eq!(e.read(0).unwrap(), [2u8; 64]);
    }

    #[test]
    fn replay_detected_via_tree() {
        let mut e = sgx();
        e.write(0x80, &[1u8; 64]).unwrap();
        let stale = ProtectedMemory::capture(&mut e, 0x80);
        e.write(0x80, &[2u8; 64]).unwrap();
        ProtectedMemory::replay(&mut e, &stale);
        // The tree's leaf version moved on, so the stale MAC mismatches.
        assert!(matches!(
            e.read(0x80),
            Err(SgxError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn counter_tamper_detected() {
        let mut e = sgx();
        e.write(0x40, &[3u8; 64]).unwrap();
        let leaf_level = e.tree_depth() - 1;
        e.tree_mut().tamper_counter(leaf_level, 0, 1, 42);
        assert!(matches!(e.read(0x40), Err(SgxError::Tree(_))));
    }

    #[test]
    fn epc_limit_enforced() {
        let mut e = sgx();
        assert!(matches!(e.read(1 << 20), Err(SgxError::OutOfEpc { .. })));
        assert!(matches!(
            e.write(1 << 21, &[0u8; 64]),
            Err(SgxError::OutOfEpc { .. })
        ));
    }

    #[test]
    fn tree_accesses_accumulate() {
        let mut e = sgx();
        // Cold accesses walk uncached tree levels.
        e.write(0, &[0u8; 64]).unwrap();
        let after_first = e.tree_accesses;
        assert!(after_first > 0);
        // Warm repeat: cached path.
        e.write(0, &[1u8; 64]).unwrap();
        assert!(e.tree_accesses - after_first <= after_first);
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut e = sgx();
        assert_eq!(e.read(0x100).unwrap(), [0u8; 64]);
    }

    #[test]
    fn epc_boundary_read_write() {
        // The last in-EPC block round-trips through single ops and the
        // trait's batch entry points; the first out-of-EPC block fails
        // without touching engine state.
        let epc = 1u64 << 20;
        let mut e = SgxEngine::new(epc);
        let last = epc - 64;
        e.write(last, &[0xEEu8; 64]).unwrap();
        assert_eq!(e.read(last).unwrap(), [0xEEu8; 64]);
        ProtectedMemory::write_batch(&mut e, &[(last, [0xDDu8; 64])]).unwrap();
        assert_eq!(
            ProtectedMemory::read_batch(&mut e, &[last]).unwrap(),
            vec![[0xDDu8; 64]]
        );
        let writes_before = e.writes;
        assert!(matches!(
            e.write(epc, &[0u8; 64]),
            Err(SgxError::OutOfEpc { address }) if address == epc
        ));
        assert!(matches!(e.read(epc), Err(SgxError::OutOfEpc { .. })));
        assert_eq!(e.writes, writes_before, "rejected op must not count");
    }

    /// A 100-byte EPC holds one whole block: bytes 64..100 are out of the
    /// EPC, not a tree block to be refused as tamper.
    #[test]
    fn trailing_partial_block_is_out_of_epc() {
        let mut e = SgxEngine::new(100);
        e.write(0, &[1u8; 64]).unwrap();
        assert!(matches!(
            e.write(64, &[2u8; 64]),
            Err(SgxError::OutOfEpc { address: 64 })
        ));
        assert!(matches!(
            e.read(64),
            Err(SgxError::OutOfEpc { address: 64 })
        ));
        assert_eq!(
            ProtectedMemory::read(&mut e, 64),
            Err(MemoryError::OutOfRange { address: 64 })
        );
        assert_eq!(e.read(0).unwrap(), [1u8; 64]);
    }

    /// The nonce argument of the module docs, observed: after every write
    /// of a seeded hot-block trace, no verifying line's `(version,
    /// address)` has held two ciphertexts.
    #[test]
    fn no_nonce_ever_seals_two_ciphertexts() {
        let mut e = sgx();
        let mut nonces = crate::tests::Nonces::default();
        for (block, fill) in crate::tests::hot_trace(28, 600, 1, 128) {
            e.write(block * 64, &[fill; 64]).unwrap();
            let tree = &mut e.tree;
            nonces.observe(&e.sealer, &e.dram, |b| tree.verify(b).unwrap().version);
        }
        assert!(nonces.len() > 500, "only {} nonces observed", nonces.len());
    }

    #[test]
    fn error_display() {
        assert!(SgxError::OutOfEpc { address: 1 }
            .to_string()
            .contains("EPC"));
        assert!(SgxError::IntegrityViolation { address: 1 }
            .to_string()
            .contains("integrity"));
    }
}
