//! Concurrent access paths for the sharded engine: page-partitioned trace
//! iteration and a multi-tenant interleaved workload.
//!
//! The sharded engine routes addresses page-wise (`page % shards`), so a
//! trace replayed by T workers must be split along the same boundary for
//! workers to proceed without lock contention. [`partition_by_page`]
//! materializes all per-shard sub-traces at once.
//!
//! [`multi_tenant`] models the paper's deployment story — one protected
//! pool serving many mutually distrusting tenants — by giving each tenant
//! a disjoint footprint window and its own engine pattern (sequential,
//! random, hot-reset, round-robin by tenant index), then interleaving the
//! per-tenant streams op-by-op so every shard sees mixed traffic.

use crate::pattern::{engine_pattern, EnginePattern};
use crate::trace::{Op, Trace};

/// Page size the partitioner assumes (matches `toleo_core::config`).
const PAGE: u64 = 4096;

/// The shard index (under `shards`-way page interleaving) that owns the
/// address touched by `op`; `None` for compute batches, which retire
/// locally on whichever core issues them.
fn shard_of_op(op: &Op, shards: usize) -> Option<usize> {
    match op {
        Op::Read(addr) | Op::Write(addr) => Some(((addr / PAGE) % shards as u64) as usize),
        Op::Compute(_) => None,
    }
}

/// Splits `trace` into one sub-trace per shard under `shards`-way page
/// interleaving. Per-shard op order matches the original trace, so a
/// worker replaying shard i's sub-trace observes exactly the dependency
/// order a sequential replay would have produced for those addresses
/// (pages never span shards, so cross-shard order is irrelevant).
///
/// # Panics
///
/// Panics if `shards` is 0.
pub fn partition_by_page(trace: &Trace, shards: usize) -> Vec<Trace> {
    assert!(shards > 0, "shards must be non-zero");
    let mut parts: Vec<Trace> = (0..shards)
        .map(|s| {
            let mut t = Trace::new(format!("{}/shard{}", trace.name, s));
            t.rss_bytes = trace.rss_bytes / shards as u64;
            t.mlp = trace.mlp;
            t
        })
        .collect();
    for op in &trace.ops {
        if let Some(shard) = shard_of_op(op, shards) {
            parts[shard].ops.push(*op);
        }
    }
    parts
}

/// Generates the multi-tenant workload: `tenants` independent streams,
/// each confined to its own `footprint_per_tenant` window (page-aligned,
/// tenant `t` starting at `t * footprint`), running the engine patterns
/// round-robin (tenant 0 sequential, 1 random, 2 hot-reset, 3 sequential,
/// …) and interleaved op-by-op. Total ops = `tenants * ops_per_tenant`.
///
/// # Examples
///
/// ```
/// use toleo_workloads::concurrent::multi_tenant;
///
/// let t = multi_tenant(4, 1_000, 1 << 20, 7);
/// assert_eq!(t.mem_ops(), 4_000);
/// assert_eq!(t.rss_bytes, 4 << 20);
/// ```
///
/// # Panics
///
/// Panics if `tenants` is 0.
pub fn multi_tenant(
    tenants: usize,
    ops_per_tenant: u64,
    footprint_per_tenant: u64,
    seed: u64,
) -> Trace {
    assert!(tenants > 0, "tenants must be non-zero");
    // Round each tenant window up to a page multiple so windows cannot
    // share a page (a shared page would couple tenants to one shard).
    let window = footprint_per_tenant.div_ceil(PAGE) * PAGE;
    let streams: Vec<Trace> = (0..tenants)
        .map(|t| {
            let pattern = EnginePattern::all()[t % 3];
            engine_pattern(
                pattern,
                ops_per_tenant,
                footprint_per_tenant,
                seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect();
    let mut out = Trace::new("multi-tenant");
    out.rss_bytes = window * tenants as u64;
    let mut cursors = vec![0usize; tenants];
    let mut remaining = tenants;
    // Round-robin interleave: one op from each tenant per turn, with each
    // tenant's addresses rebased into its window.
    while remaining > 0 {
        remaining = 0;
        for (t, stream) in streams.iter().enumerate() {
            // Tenant streams may contain compute batches; forward memory
            // ops only, one per turn.
            while cursors[t] < stream.ops.len() {
                let op = stream.ops[cursors[t]];
                cursors[t] += 1;
                let base = window * t as u64;
                match op {
                    Op::Read(a) => {
                        out.read(base + a);
                        break;
                    }
                    Op::Write(a) => {
                        out.write(base + a);
                        break;
                    }
                    Op::Compute(_) => continue,
                }
            }
            if cursors[t] < stream.ops.len() {
                remaining += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_memory_op_exactly_once() {
        let t = engine_pattern(EnginePattern::Random, 10_000, 1 << 20, 3);
        for shards in [1usize, 2, 3, 8] {
            let parts = partition_by_page(&t, shards);
            assert_eq!(parts.len(), shards);
            let total: u64 = parts.iter().map(Trace::mem_ops).sum();
            assert_eq!(total, t.mem_ops(), "{shards} shards");
            for (s, part) in parts.iter().enumerate() {
                for op in &part.ops {
                    assert_eq!(shard_of_op(op, shards), Some(s));
                }
            }
        }
    }

    #[test]
    fn partition_preserves_per_shard_order() {
        let mut t = Trace::new("t");
        for i in 0..100u64 {
            t.write(i * PAGE); // page i
            t.read(i * PAGE);
        }
        let parts = partition_by_page(&t, 4);
        for part in &parts {
            // Within a shard, each page's write precedes its read.
            let mut last_write: Option<u64> = None;
            for op in &part.ops {
                match op {
                    Op::Write(a) => last_write = Some(*a),
                    Op::Read(a) => assert_eq!(last_write, Some(*a)),
                    Op::Compute(_) => {}
                }
            }
        }
    }

    #[test]
    fn one_way_partition_is_the_whole_trace() {
        let t = engine_pattern(EnginePattern::Sequential, 2_000, 1 << 20, 5);
        let parts = partition_by_page(&t, 1);
        assert_eq!(parts[0].mem_ops(), t.mem_ops());
    }

    #[test]
    fn multi_tenant_counts_and_isolation() {
        let tenants = 5usize;
        let per = 2_000u64;
        let window = 1u64 << 20;
        let t = multi_tenant(tenants, per, window, 42);
        assert_eq!(t.mem_ops(), tenants as u64 * per);
        for op in &t.ops {
            let addr = match op {
                Op::Read(a) | Op::Write(a) => *a,
                Op::Compute(_) => continue,
            };
            assert!(addr < window * tenants as u64, "{addr:#x} outside the pool");
            assert_eq!(addr % 64, 0, "{addr:#x} unaligned");
        }
        // Every tenant window sees traffic, and no op strays outside its
        // tenant's window (windows are page-aligned and disjoint).
        let mut per_tenant = vec![0u64; tenants];
        for op in &t.ops {
            if let Op::Read(a) | Op::Write(a) = op {
                per_tenant[(a / window) as usize] += 1;
            }
        }
        for (tenant, count) in per_tenant.iter().enumerate() {
            assert_eq!(*count, per, "tenant {tenant}");
        }
    }

    #[test]
    fn multi_tenant_interleaves_rather_than_concatenates() {
        let t = multi_tenant(3, 100, 1 << 20, 9);
        let window = 1u64 << 20;
        // The first 3 ops must come from 3 different tenants.
        let owners: Vec<u64> = t.ops[..3]
            .iter()
            .filter_map(|op| match op {
                Op::Read(a) | Op::Write(a) => Some(a / window),
                Op::Compute(_) => None,
            })
            .collect();
        assert_eq!(owners, vec![0, 1, 2]);
    }

    #[test]
    fn multi_tenant_is_deterministic_per_seed() {
        let a = multi_tenant(4, 500, 1 << 20, 1);
        let b = multi_tenant(4, 500, 1 << 20, 1);
        assert_eq!(a.ops, b.ops);
        let c = multi_tenant(4, 500, 1 << 20, 2);
        assert_ne!(a.ops, c.ops);
    }
}
