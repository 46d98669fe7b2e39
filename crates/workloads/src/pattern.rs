//! Engine-level access patterns for the benchmark and the
//! availability and recovery experiments.
//!
//! Unlike the Table-2 generators in [`gen`](crate::gen), which reproduce
//! the *paper benchmarks'* locality profiles for the timing simulator,
//! these patterns are designed to stress specific hot paths of the
//! functional [`ProtectionEngine`]: the XTS + MAC pipeline (sequential),
//! the metadata-cache and arena probe paths (random), and the stealth-reset
//! re-encryption loop (hot-reset).
//!
//! [`ProtectionEngine`]: ../../toleo_core/engine/struct.ProtectionEngine.html

use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cache-block size used for address generation.
const BLOCK: u64 = 64;
/// Page size.
const PAGE: u64 = 4096;

/// A synthetic engine stress pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePattern {
    /// Write sweep then read sweep over the footprint: peak streaming
    /// bandwidth through the encrypt/MAC and decrypt/verify pipelines.
    Sequential,
    /// Uniformly random block addresses, half reads half writes: worst
    /// case for the stealth/MAC caches and the storage-arena probes.
    Random,
    /// Hammers a few hot lines per page so pages upgrade to uneven/full
    /// and the probabilistic stealth reset fires often, exercising the
    /// page re-encryption slab walk.
    HotReset,
}

impl EnginePattern {
    /// All patterns, in reporting order.
    pub fn all() -> [EnginePattern; 3] {
        [
            EnginePattern::Sequential,
            EnginePattern::Random,
            EnginePattern::HotReset,
        ]
    }

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            EnginePattern::Sequential => "sequential",
            EnginePattern::Random => "random",
            EnginePattern::HotReset => "hot-reset",
        }
    }
}

/// Generates a trace of `mem_ops` block accesses confined to
/// `footprint_bytes` of (page-aligned) memory.
///
/// # Examples
///
/// ```
/// use toleo_workloads::pattern::{engine_pattern, EnginePattern};
///
/// let t = engine_pattern(EnginePattern::Sequential, 1_000, 1 << 20, 7);
/// assert_eq!(t.mem_ops(), 1_000);
/// ```
pub fn engine_pattern(
    pattern: EnginePattern,
    mem_ops: u64,
    footprint_bytes: u64,
    seed: u64,
) -> Trace {
    let mut t = Trace::new(pattern.name());
    let blocks = (footprint_bytes / BLOCK).max(1);
    let pages = (footprint_bytes / PAGE).max(1);
    t.rss_bytes = footprint_bytes;
    let mut rng = StdRng::seed_from_u64(seed);
    match pattern {
        EnginePattern::Sequential => {
            // Alternate full write sweeps and read sweeps so both engine
            // directions are measured; wrap around the footprint.
            let mut i = 0u64;
            let mut writing = true;
            for _ in 0..mem_ops {
                let addr = (i % blocks) * BLOCK;
                if writing {
                    t.write(addr);
                } else {
                    t.read(addr);
                }
                i += 1;
                if i.is_multiple_of(blocks) {
                    writing = !writing;
                }
            }
        }
        EnginePattern::Random => {
            for _ in 0..mem_ops {
                let addr = rng.gen_range(0..blocks) * BLOCK;
                if rng.gen_bool(0.5) {
                    t.write(addr);
                } else {
                    t.read(addr);
                }
            }
        }
        EnginePattern::HotReset => {
            // 8 resident lines per page (written up front), then hammer one
            // hot line per page: every write advances the leading version,
            // so with a small `reset_log2` the stealth reset fires often and
            // re-encrypts the resident lines.
            let hot_pages = pages.min(16);
            let mut emitted = 0u64;
            'warmup: for p in 0..hot_pages {
                for line in 0..8u64 {
                    if emitted >= mem_ops {
                        break 'warmup;
                    }
                    t.write(p * PAGE + line * BLOCK);
                    emitted += 1;
                }
            }
            for _ in emitted..mem_ops {
                let p = rng.gen_range(0..hot_pages);
                if rng.gen_bool(0.9) {
                    t.write(p * PAGE + 9 * BLOCK); // the hot line
                } else {
                    let line = rng.gen_range(0..8u64);
                    t.read(p * PAGE + line * BLOCK);
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    #[test]
    fn op_counts_match_request() {
        for p in EnginePattern::all() {
            let t = engine_pattern(p, 5_000, 1 << 20, 42);
            assert_eq!(t.mem_ops(), 5_000, "{}", p.name());
            assert!(t.writes() > 0, "{} must exercise writes", p.name());
        }
    }

    #[test]
    fn addresses_stay_in_footprint_and_are_aligned() {
        for p in EnginePattern::all() {
            let t = engine_pattern(p, 10_000, 1 << 20, 1);
            for op in &t.ops {
                let addr = match op {
                    Op::Read(a) | Op::Write(a) => *a,
                    Op::Compute(_) => continue,
                };
                assert!(addr < 1 << 20, "{}: {addr:#x} out of footprint", p.name());
                assert_eq!(addr % BLOCK, 0, "{}: {addr:#x} unaligned", p.name());
            }
        }
    }

    #[test]
    fn sequential_alternates_sweeps() {
        let blocks = (1u64 << 20) / BLOCK;
        let t = engine_pattern(EnginePattern::Sequential, 2 * blocks, 1 << 20, 0);
        assert!(matches!(t.ops[0], Op::Write(0)));
        assert!(matches!(t.ops[blocks as usize], Op::Read(0)));
    }

    #[test]
    fn hot_reset_concentrates_writes() {
        let t = engine_pattern(EnginePattern::HotReset, 50_000, 1 << 20, 3);
        let hot_writes = t
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Write(a) if a % PAGE == 9 * BLOCK))
            .count();
        assert!(
            hot_writes > 30_000,
            "hot line must dominate ({hot_writes} writes)"
        );
    }

    #[test]
    fn hot_reset_honors_tiny_op_counts() {
        // Requests smaller than the warmup budget must still produce
        // exactly the requested number of ops.
        for ops in [1u64, 50, 100, 128, 129] {
            let t = engine_pattern(EnginePattern::HotReset, ops, 1 << 20, 2);
            assert_eq!(t.mem_ops(), ops);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = engine_pattern(EnginePattern::Random, 1_000, 1 << 20, 9);
        let b = engine_pattern(EnginePattern::Random, 1_000, 1 << 20, 9);
        assert_eq!(a.ops, b.ops);
        let c = engine_pattern(EnginePattern::Random, 1_000, 1 << 20, 10);
        assert_ne!(a.ops, c.ops);
    }
}
