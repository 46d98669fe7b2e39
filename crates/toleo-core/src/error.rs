//! Error types. A failed integrity or freshness check is fatal by design:
//! the platform "kill switch" (§2.1) destroys the enclave rather than let a
//! replay be retried. Transient device-link faults, by contrast, are
//! absorbed by the [`DeviceChannel`](crate::channel::DeviceChannel); only
//! when its retry budget is exhausted do they surface here, as
//! [`ToleoError::DeviceUnavailable`].

/// Errors raised by the Toleo device and the host protection engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToleoError {
    /// A MAC check failed on a memory read: the ciphertext, MAC, UV, or the
    /// replayed stealth version did not match. The platform must halt.
    IntegrityViolation {
        /// Physical address of the offending cache block.
        address: u64,
    },
    /// The shard owning this address has been quarantined after detecting
    /// tampering: the shard is frozen while healthy peer shards keep
    /// serving. Fail-closed for this address range, contained for everyone
    /// else. The shard's counters, frozen at the instant its kill switch
    /// engaged, are read from the handle, not carried here.
    ShardQuarantined {
        /// Index of the quarantined shard.
        shard: usize,
        /// Physical address of the refused operation.
        address: u64,
    },
    /// The freshness device did not deliver a response within the channel's
    /// retry budget. A host that cannot verify freshness must fail closed:
    /// this escalates to the engine (and, sharded, the world) kill.
    DeviceUnavailable {
        /// Page of the abandoned operation.
        page: u64,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// The Toleo device has no free dynamic blocks for an upgrade; the host
    /// OS must issue downgrade (RESET) requests to reclaim space. Update
    /// requests are rejected until then (§4.3 "Page free and remap").
    DeviceFull {
        /// Page whose upgrade was rejected.
        page: u64,
    },
    /// A request referenced a page outside the protected range.
    PageOutOfRange {
        /// The offending page number.
        page: u64,
        /// Number of protected pages.
        pages: u64,
    },
    /// A device or engine was constructed from a configuration that
    /// fails [`validate`](crate::config::ToleoConfig::validate).
    InvalidConfig {
        /// What the validation rejected.
        detail: String,
    },
    /// The block was unrecoverable when its engine's arena was re-keyed
    /// after a quarantine: its ciphertext/MAC/version no longer verified,
    /// so the engine that adopted the arena refuses the address instead of
    /// serving silent zeroes. A fresh write to the address clears the
    /// marker. On a sharded engine, `shard_of_addr(address)` names the
    /// shard.
    PageLost {
        /// Physical address of the unrecoverable cache block.
        address: u64,
    },
}

impl std::fmt::Display for ToleoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToleoError::IntegrityViolation { address } => {
                write!(
                    f,
                    "integrity/freshness check failed at {address:#x}: kill switch engaged"
                )
            }
            ToleoError::ShardQuarantined { shard, address } => {
                write!(
                    f,
                    "shard {shard} quarantined after tamper detection; {address:#x} refused"
                )
            }
            ToleoError::DeviceUnavailable { page, attempts } => {
                write!(
                    f,
                    "freshness device unreachable for page {page:#x} after {attempts} attempts: \
                     failing closed"
                )
            }
            ToleoError::DeviceFull { page } => {
                write!(f, "toleo device full; cannot upgrade page {page:#x}")
            }
            ToleoError::PageOutOfRange { page, pages } => {
                write!(f, "page {page:#x} outside protected range of {pages} pages")
            }
            ToleoError::InvalidConfig { detail } => {
                write!(f, "invalid ToleoConfig: {detail}")
            }
            ToleoError::PageLost { address } => {
                write!(
                    f,
                    "block {address:#x} lost during recovery: rewrite it before reading"
                )
            }
        }
    }
}

impl std::error::Error for ToleoError {}

/// Convenience alias for fallible Toleo operations.
pub type Result<T> = std::result::Result<T, ToleoError>;

/// Failure of one operation inside a batch: the underlying error plus the
/// batch index of the operation that raised it. The engine's
/// [`read_batch`](crate::engine::ProtectionEngine::read_batch) /
/// [`write_batch`](crate::engine::ProtectionEngine::write_batch) are the
/// op-at-a-time loop that stops at the first error, so operations before
/// `index` completed and operations after it were not attempted. The
/// sharded engine's `*_batch_indexed` run that loop per shard: the same
/// holds on the failing op's shard, while other shards' ops may have
/// completed whatever their index: treat `index` as identifying the
/// failing op, not as a safe resume point. A
/// [`ProtectedMemory`](crate::protected::ProtectedMemory) batch fails
/// with `BatchError<MemoryError>`, the same record over the
/// scheme-agnostic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError<E = ToleoError> {
    /// Zero-based index of the failing operation within the batch.
    pub index: usize,
    /// What that operation failed with.
    pub error: E,
}

impl<E: std::fmt::Display> std::fmt::Display for BatchError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch op {}: {}", self.index, self.error)
    }
}

impl<E: std::error::Error + 'static> std::error::Error for BatchError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<BatchError> for ToleoError {
    fn from(e: BatchError) -> Self {
        e.error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ToleoError::IntegrityViolation { address: 0x40 }
            .to_string()
            .contains("kill switch"));
        assert!(ToleoError::DeviceFull { page: 1 }
            .to_string()
            .contains("full"));
        assert!(ToleoError::PageOutOfRange { page: 9, pages: 4 }
            .to_string()
            .contains("outside"));
        assert!(ToleoError::InvalidConfig {
            detail: "stealth_bits 0".into()
        }
        .to_string()
        .contains("invalid ToleoConfig"));
        assert!(ToleoError::DeviceUnavailable {
            page: 2,
            attempts: 8
        }
        .to_string()
        .contains("failing closed"));
        assert!(ToleoError::ShardQuarantined {
            shard: 3,
            address: 0x40
        }
        .to_string()
        .contains("quarantined"));
        assert!(ToleoError::PageLost { address: 0x1040 }
            .to_string()
            .contains("block 0x1040 lost during recovery"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ToleoError>();
    }
}
