//! The scheme-agnostic protected-memory interface — one trait, every
//! scheme, one evaluation arena.
//!
//! The paper's core claim is *comparative*: Toleo's flat stealth-version
//! store keeps scaling where the Merkle-tree freshness schemes (client
//! SGX, VAULT, Morphable Counters) collapse. Grounding that claim needs
//! every scheme behind the same harness: the same workloads, the same
//! batch entry points, and the same adversary corpus. [`ProtectedMemory`]
//! is that interface. `toleo-core` implements it for
//! [`ProtectionEngine`] and
//! [`ShardedEngine`]; `toleo-baselines`
//! implements it for its SGX-style, VAULT and Morphable-Counters engines.
//!
//! The trait is deliberately object-safe: the security and property
//! suites drive one tamper/replay corpus through
//! `Box<dyn ProtectedMemory>` values of every scheme.
//!
//! # Example
//!
//! ```
//! use toleo_core::config::ToleoConfig;
//! use toleo_core::engine::ProtectionEngine;
//! use toleo_core::protected::ProtectedMemory;
//!
//! fn tamper_is_detected(mem: &mut dyn ProtectedMemory) {
//!     mem.write(0x40, &[7u8; 64]).unwrap();
//!     assert!(mem.corrupt(0x40, 13, 0x80), "block must be resident");
//!     assert!(mem.read(0x40).is_err(), "{} missed the tamper", mem.scheme());
//! }
//!
//! let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), [1u8; 48]).unwrap();
//! tamper_is_detected(&mut engine);
//! ```

use crate::arena::{Block, ReplayCapsule, UntrustedDram};
use crate::engine::ProtectionEngine;
use crate::error::{BatchError, ToleoError};
use crate::sharded::ShardedEngine;

/// Scheme-agnostic failure of a protected-memory operation.
///
/// Each implementation maps its native error type onto these variants so
/// the shared harness and security suite can assert on outcomes without
/// knowing which scheme produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// An integrity or freshness check failed — tampering or replay. For
    /// schemes with a kill switch the engine is dead from here on.
    IntegrityViolation {
        /// Physical address of the offending block.
        address: u64,
    },
    /// The address lies outside the scheme's protected range (Toleo's
    /// protected pages, SGX's EPC, a tree's covered blocks).
    OutOfRange {
        /// The offending address.
        address: u64,
    },
    /// A retryable resource failure (e.g. the Toleo device is full until
    /// the OS frees pages). Not a security event.
    Resource {
        /// Human-readable description from the scheme.
        detail: String,
    },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::IntegrityViolation { address } => {
                write!(f, "integrity/freshness violation at {address:#x}")
            }
            MemoryError::OutOfRange { address } => {
                write!(f, "address {address:#x} outside the protected range")
            }
            MemoryError::Resource { detail } => write!(f, "resource failure: {detail}"),
        }
    }
}

impl std::error::Error for MemoryError {}

impl From<ToleoError> for MemoryError {
    fn from(e: ToleoError) -> Self {
        match e {
            ToleoError::IntegrityViolation { address } => {
                MemoryError::IntegrityViolation { address }
            }
            // A quarantined shard is a detected-tamper refusal: to the
            // scheme-agnostic harness it is the integrity failure itself.
            ToleoError::ShardQuarantined { address, .. } => {
                MemoryError::IntegrityViolation { address }
            }
            ToleoError::PageOutOfRange { page, .. } => MemoryError::OutOfRange {
                address: page * crate::config::PAGE_BYTES as u64,
            },
            // A block the scrub could not re-verify is data the adversary
            // destroyed: the harness must see the integrity failure, not a
            // retryable resource hiccup.
            ToleoError::PageLost { address, .. } => MemoryError::IntegrityViolation { address },
            other => MemoryError::Resource {
                detail: other.to_string(),
            },
        }
    }
}

/// Failure of one operation inside a [`ProtectedMemory`] batch: the
/// scheme-agnostic error plus the batch index that raised it.
///
/// For sequential schemes, operations before `index` completed and
/// operations after it were not attempted. Schemes that execute a batch
/// out of batch order (e.g. the sharded Toleo engine, which drains it
/// shard by shard and attempts every shard) still report the smallest
/// failing index by severity, but operations *after* it that landed on
/// other shards may have completed — treat `index` as identifying the
/// failing op, not as a safe resume point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBatchError {
    /// Zero-based index of the failing operation within the batch.
    pub index: usize,
    /// What that operation failed with.
    pub error: MemoryError,
}

impl std::fmt::Display for MemoryBatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch op {}: {}", self.index, self.error)
    }
}

impl std::error::Error for MemoryBatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<BatchError> for MemoryBatchError {
    fn from(e: BatchError) -> Self {
        MemoryBatchError {
            index: e.index,
            error: e.error.into(),
        }
    }
}

/// The counters every scheme can report on the same axes, so the
/// head-to-head harness can print freshness-traffic and re-encryption
/// costs side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Blocks read through the protected path.
    pub reads: u64,
    /// Blocks written through the protected path.
    pub writes: u64,
    /// Version/freshness-metadata accesses that went to backing storage:
    /// Toleo device READs + UPDATEs, or Merkle tree-node fetches that
    /// missed the on-chip node cache.
    pub version_fetches: u64,
    /// Version-management events that forced bulk re-encryption: Toleo
    /// stealth resets (page walks), VAULT counter-overflow group resets,
    /// Morphable-Counters leaf re-bases.
    pub reencryption_events: u64,
}

/// A memory protection scheme under evaluation: confidentiality +
/// integrity (+ freshness) over 64-byte blocks, with batch entry points
/// and the adversary hooks the shared tamper/replay corpus drives.
///
/// Implementations must uphold:
///
/// * **Round-trip** — absent tampering, a read returns the latest written
///   plaintext; never-written blocks read as zeros.
/// * **Detection** — after [`corrupt`](Self::corrupt) of a resident block
///   or [`replay`](Self::replay) of a stale capsule over newer data, the
///   next read of that address fails with
///   [`MemoryError::IntegrityViolation`].
/// * **Batch equivalence** — the batch entry points are observation-
///   equivalent to op-at-a-time loops that stop at the first error
///   (amortization may only change *performance*).
pub trait ProtectedMemory {
    /// Stable scheme name used in reports.
    fn scheme(&self) -> &'static str;

    /// Reads the 64-byte block at `addr` (block-aligned), verifying
    /// whatever the scheme protects (integrity, freshness).
    ///
    /// # Errors
    ///
    /// [`MemoryError::IntegrityViolation`] on tamper/replay detection;
    /// [`MemoryError::OutOfRange`] outside the protected range.
    fn read(&mut self, addr: u64) -> Result<Block, MemoryError>;

    /// Writes the 64-byte block at `addr` (block-aligned), advancing the
    /// block's version.
    ///
    /// # Errors
    ///
    /// As [`read`](Self::read), plus [`MemoryError::Resource`] for
    /// retryable capacity failures.
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), MemoryError>;

    /// Reads a batch of block-aligned addresses, observation-equivalent
    /// to per-address [`read`](Self::read) calls stopping at the first
    /// error. Only [`ShardedEngine`] overrides the batch defaults, to take
    /// each shard's lock once per batch instead of once per op.
    ///
    /// # Errors
    ///
    /// [`MemoryBatchError`] carrying the failing index.
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, MemoryBatchError> {
        let mut out = Vec::with_capacity(addrs.len());
        for (index, &addr) in addrs.iter().enumerate() {
            out.push(
                self.read(addr)
                    .map_err(|error| MemoryBatchError { index, error })?,
            );
        }
        Ok(out)
    }

    /// Writes a batch of `(address, plaintext)` pairs, observation-
    /// equivalent to per-pair [`write`](Self::write) calls stopping at
    /// the first error.
    ///
    /// # Errors
    ///
    /// [`MemoryBatchError`] carrying the failing index.
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), MemoryBatchError> {
        for (index, (addr, data)) in ops.iter().enumerate() {
            self.write(*addr, data)
                .map_err(|error| MemoryBatchError { index, error })?;
        }
        Ok(())
    }

    /// Scheme-agnostic event counters (reads, writes, version-store
    /// traffic, re-encryption events).
    fn stats(&self) -> MemoryStats;

    /// Adversary hook: the untrusted memory holding the block at `addr`.
    /// Every scheme seals into the same page arena type, so the shared
    /// corpus tampers with all of them the same way.
    fn untrusted(&mut self, addr: u64) -> &mut UntrustedDram;

    /// Adversary hook: XOR `xor` into byte `offset` of the stored
    /// ciphertext at `addr`. Returns `false` (and does nothing) if no
    /// ciphertext is resident there — never-written blocks have nothing
    /// to corrupt.
    fn corrupt(&mut self, addr: u64, offset: usize, xor: u8) -> bool {
        self.untrusted(addr).corrupt_data(addr, offset, xor)
    }

    /// Adversary hook: capture everything the adversary can copy out of
    /// untrusted memory for the block at `addr` (ciphertext, MAC,
    /// co-located UV).
    fn capture(&mut self, addr: u64) -> ReplayCapsule {
        self.untrusted(addr).capture(addr)
    }

    /// Adversary hook: restore a previously captured capsule — the
    /// classic replay attack.
    fn replay(&mut self, capsule: &ReplayCapsule) {
        self.untrusted(capsule.address()).replay(capsule);
    }
}

impl ProtectedMemory for ProtectionEngine {
    fn scheme(&self) -> &'static str {
        "toleo"
    }

    fn read(&mut self, addr: u64) -> Result<Block, MemoryError> {
        ProtectionEngine::read(self, addr).map_err(MemoryError::from)
    }

    fn write(&mut self, addr: u64, data: &Block) -> Result<(), MemoryError> {
        ProtectionEngine::write(self, addr, data).map_err(MemoryError::from)
    }

    fn stats(&self) -> MemoryStats {
        let s = ProtectionEngine::stats(self);
        MemoryStats {
            reads: s.reads,
            writes: s.writes,
            version_fetches: s.device_reads + s.device_updates,
            reencryption_events: s.pages_reencrypted,
        }
    }

    fn untrusted(&mut self, _addr: u64) -> &mut UntrustedDram {
        self.adversary()
    }
}

impl ProtectedMemory for ShardedEngine {
    fn scheme(&self) -> &'static str {
        "toleo-sharded"
    }

    fn read(&mut self, addr: u64) -> Result<Block, MemoryError> {
        ShardedEngine::read(self, addr).map_err(MemoryError::from)
    }

    fn write(&mut self, addr: u64, data: &Block) -> Result<(), MemoryError> {
        ShardedEngine::write(self, addr, data).map_err(MemoryError::from)
    }

    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, MemoryBatchError> {
        ShardedEngine::read_batch_indexed(self, addrs).map_err(MemoryBatchError::from)
    }

    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), MemoryBatchError> {
        ShardedEngine::write_batch_indexed(self, ops).map_err(MemoryBatchError::from)
    }

    fn stats(&self) -> MemoryStats {
        let s = ShardedEngine::stats(self);
        MemoryStats {
            reads: s.reads,
            writes: s.writes,
            version_fetches: s.device_reads + s.device_updates,
            reencryption_events: s.pages_reencrypted,
        }
    }

    fn untrusted(&mut self, addr: u64) -> &mut UntrustedDram {
        let shard = self.shard_of_addr(addr);
        self.shard_engine_mut(shard).adversary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ToleoConfig;

    fn schemes() -> Vec<Box<dyn ProtectedMemory>> {
        vec![
            Box::new(ProtectionEngine::try_new(ToleoConfig::small(), [0x21u8; 48]).unwrap()),
            Box::new(ShardedEngine::new(ToleoConfig::small(), 4, [0x22u8; 48]).unwrap()),
        ]
    }

    #[test]
    fn trait_roundtrip_and_zero_fill() {
        for mut m in schemes() {
            m.write(0x1000, &[9u8; 64]).unwrap();
            assert_eq!(m.read(0x1000).unwrap(), [9u8; 64], "{}", m.scheme());
            assert_eq!(m.read(0x8000).unwrap(), [0u8; 64], "{}", m.scheme());
            let s = m.stats();
            assert_eq!((s.writes, s.reads), (1, 2), "{}", m.scheme());
            assert!(s.version_fetches > 0, "{}", m.scheme());
        }
    }

    #[test]
    fn trait_batch_paths_roundtrip() {
        for mut m in schemes() {
            let ops: Vec<(u64, Block)> = (0..40u64).map(|i| (i * 4096, [i as u8; 64])).collect();
            m.write_batch(&ops).unwrap();
            let addrs: Vec<u64> = ops.iter().map(|(a, _)| *a).collect();
            let blocks = m.read_batch(&addrs).unwrap();
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(*b, [i as u8; 64], "{} op {i}", m.scheme());
            }
        }
    }

    #[test]
    fn trait_corrupt_detected_and_absent_corrupt_refused() {
        for mut m in schemes() {
            assert!(
                !m.corrupt(0x40, 0, 1),
                "{}: nothing resident yet",
                m.scheme()
            );
            m.write(0x40, &[1u8; 64]).unwrap();
            assert!(m.corrupt(0x40, 33, 0x40), "{}", m.scheme());
            assert!(
                matches!(
                    m.read(0x40),
                    Err(MemoryError::IntegrityViolation { address: 0x40 })
                ),
                "{}",
                m.scheme()
            );
        }
    }

    #[test]
    fn trait_replay_detected() {
        for mut m in schemes() {
            m.write(0x40, &[1u8; 64]).unwrap();
            let stale = m.capture(0x40);
            assert_eq!(stale.address(), 0x40);
            m.write(0x40, &[2u8; 64]).unwrap();
            m.replay(&stale);
            assert!(
                matches!(m.read(0x40), Err(MemoryError::IntegrityViolation { .. })),
                "{}",
                m.scheme()
            );
        }
    }

    #[test]
    fn error_display_and_mapping() {
        assert!(MemoryError::from(ToleoError::DeviceFull { page: 3 })
            .to_string()
            .contains("resource"));
        assert!(matches!(
            MemoryError::from(ToleoError::PageOutOfRange { page: 9, pages: 4 }),
            MemoryError::OutOfRange { .. }
        ));
        assert!(matches!(
            MemoryError::from(ToleoError::PageLost {
                shard: 1,
                address: 0x40
            }),
            MemoryError::IntegrityViolation { address: 0x40 }
        ));
        let be = MemoryBatchError {
            index: 4,
            error: MemoryError::IntegrityViolation { address: 0x80 },
        };
        assert!(be.to_string().contains("batch op 4"));
    }
}
