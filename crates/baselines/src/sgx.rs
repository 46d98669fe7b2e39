//! Client-SGX-style memory encryption engine over a Merkle counter tree —
//! the functional baseline Toleo replaces.
//!
//! Data blocks are sealed as Toleo seals them ([`LineSealer`]: XTS under a
//! `(version, address)` tweak plus the line MAC) into the same page
//! arena; versions live in the counter-tree leaves whose integrity chains
//! up to an on-chip root. A leaf counter goes up by one per write and
//! never resets, so `(version, address)` never repeats. The EPC (enclave
//! page cache) is limited — accesses beyond it would page in the real
//! system; here they are out of range. A tree node whose tag fails is an
//! integrity violation at the access that walked it.
//!
//! [`LineSealer`]: toleo_core::seal::LineSealer

use crate::tree::CounterTree;
use crate::{Baseline, Fetched, Moved, VersionStore};

/// A client-SGX memory encryption engine protecting a fixed EPC (client
/// SGX: 128 MB), its versions verified by a walk of the counter tree.
///
/// # Examples
///
/// ```
/// use toleo_baselines::sgx::SgxEngine;
/// use toleo_core::protected::ProtectedMemory;
///
/// let mut sgx = SgxEngine::new(1 << 20); // 1 MB EPC
/// sgx.write(0x40, &[9u8; 64]).unwrap();
/// assert_eq!(sgx.read(0x40).unwrap(), [9u8; 64]);
/// ```
pub type SgxEngine = Baseline<CounterTree>;

impl VersionStore for CounterTree {
    const SCHEME: &'static str = "sgx-tree";
    const KEY: &'static [u8; 48] = b"sgx-data-key 16Bsgx-tweak-key 16sgx-mac-key 16B!";

    fn for_bytes(bytes: u64) -> Self {
        CounterTree::new(bytes / 64, 512)
    }

    fn fetch(&mut self, block: u64) -> Option<Fetched> {
        self.verify(block).ok()
    }

    fn advance(&mut self, block: u64) -> Option<(Fetched, Option<Moved>)> {
        Some((self.update(block).ok()?, None))
    }

    /// 64-bit tree counters never overflow in practice: client SGX pays
    /// its cost in walk depth, not in reset storms.
    fn rebases(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toleo_core::protected::{MemoryError, ProtectedMemory};

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
        let stale = e.capture(0x80);
        e.write(0x80, &[2u8; 64]).unwrap();
        e.replay(&stale);
        // The tree's leaf version moved on, so the stale MAC mismatches.
        assert_eq!(
            e.read(0x80),
            Err(MemoryError::IntegrityViolation { address: 0x80 })
        );
    }

    #[test]
    fn counter_tamper_detected() {
        let mut e = sgx();
        e.write(0x40, &[3u8; 64]).unwrap();
        let leaf_level = e.store.depth() - 1;
        e.store.tamper_counter(leaf_level, 0, 1, 42);
        assert_eq!(
            e.read(0x40),
            Err(MemoryError::IntegrityViolation { address: 0x40 })
        );
    }

    #[test]
    fn epc_limit_enforced() {
        let mut e = sgx();
        assert_eq!(
            e.read(1 << 20),
            Err(MemoryError::OutOfRange { address: 1 << 20 })
        );
        assert_eq!(
            e.write(1 << 21, &[0u8; 64]),
            Err(MemoryError::OutOfRange { address: 1 << 21 })
        );
    }

    #[test]
    fn tree_accesses_accumulate() {
        let mut e = sgx();
        // Cold accesses walk uncached tree levels.
        e.write(0, &[0u8; 64]).unwrap();
        let after_first = e.stats().version_fetches;
        assert!(after_first > 0);
        // Warm repeat: cached path.
        e.write(0, &[1u8; 64]).unwrap();
        assert!(e.stats().version_fetches - after_first <= after_first);
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
        e.write_batch(&[(last, [0xDDu8; 64])]).unwrap();
        assert_eq!(e.read_batch(&[last]).unwrap(), vec![[0xDDu8; 64]]);
        let writes_before = e.stats().writes;
        let out = MemoryError::OutOfRange { address: epc };
        assert_eq!(e.write(epc, &[0u8; 64]), Err(out.clone()));
        assert_eq!(e.read(epc), Err(out));
        assert_eq!(
            e.stats().writes,
            writes_before,
            "rejected op must not count"
        );
    }

    /// A 100-byte EPC holds one whole block: bytes 64..100 are out of the
    /// EPC, not a tree block to be refused as tamper.
    #[test]
    fn trailing_partial_block_is_out_of_epc() {
        let mut e = SgxEngine::new(100);
        e.write(0, &[1u8; 64]).unwrap();
        let out = MemoryError::OutOfRange { address: 64 };
        assert_eq!(e.write(64, &[2u8; 64]), Err(out.clone()));
        assert_eq!(e.read(64), Err(out));
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
            nonces.observe(&mut e);
        }
        let (sealed, blanks) = nonces.len();
        assert!(
            sealed > 500 && blanks > 100,
            "only {sealed} + {blanks} nonces observed"
        );
    }
}
