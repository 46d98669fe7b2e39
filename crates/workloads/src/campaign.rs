//! Fault-injection campaign schedules: deterministic plans for *when* the
//! robustness harness perturbs a workload, layered on top of the device
//! fault plane's *what* (`toleo_core::fault` decides which device ops see
//! transient faults; this module decides where tamper events land in the
//! traffic and which fault rates a sweep visits).
//!
//! Everything here is seeded and reproducible: the same trace and seed
//! always yield the same schedule, so an availability number in the
//! reports can be re-derived exactly.

use crate::trace::{Op, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transient-fault rates the availability sweep visits, in reporting
/// order. The first entry is the fault-free reference every goodput
/// ratio is computed against; the last is an aggressively lossy link
/// (1% of device ops faulted) that retries must still fully absorb.
pub const FAULT_RATE_SWEEP: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// One scheduled tamper: after the victim has executed `at_op` memory
/// operations of its trace, the adversary corrupts the block at `addr`
/// — an address the trace has already written, so there is live
/// ciphertext to corrupt and the victim's next access to it must detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TamperEvent {
    /// Memory-op index (0-based, counting only reads/writes) after which
    /// the corruption is mounted.
    pub at_op: u64,
    /// Block address to corrupt; always an address written by the trace
    /// before `at_op`.
    pub addr: u64,
}

/// Page size mirrored from `toleo_core::layout` (this crate stays
/// dependency-free): shard routing is `(addr / PAGE) % shards`.
const PAGE: u64 = 4096;

/// The shard that owns `addr` under `shards`-way page-interleaved
/// routing — the same function the sharded engine uses, so campaign
/// builders can aim every step of a multi-step attack at one shard.
pub fn shard_of(addr: u64, shards: usize) -> usize {
    ((addr / PAGE) % shards.max(1) as u64) as usize
}

/// Builds a multi-step campaign against a single shard: `steps` tamper
/// events, every one targeting an address owned by `shard` under
/// `shards`-way routing, in strictly increasing `at_op` order. Repeated
/// attacks on one shard are exactly what exercises the per-shard
/// recovery budget and its world-kill escalation. Returns fewer steps if
/// the trace writes too few addresses on that shard.
pub fn same_shard_campaign(
    trace: &Trace,
    shards: usize,
    shard: usize,
    steps: usize,
    seed: u64,
) -> Vec<TamperEvent> {
    tamper_schedule(trace, steps * 2, seed)
        .into_iter()
        .filter(|ev| shard_of(ev.addr, shards) == shard)
        .take(steps)
        .collect()
}

/// Builds a deterministic tamper schedule for `trace`: `events` tamper
/// points spread over the trace's middle section (never the very start,
/// where nothing is written yet, and never the tail, so post-detection
/// behaviour is still observable under traffic), each targeting an
/// address already written before its `at_op`. Returns fewer than
/// `events` entries if the trace has too few writes to support them,
/// and an empty schedule for a write-free trace.
///
/// # Examples
///
/// ```
/// use toleo_workloads::campaign::tamper_schedule;
/// use toleo_workloads::pattern::{engine_pattern, EnginePattern};
///
/// let t = engine_pattern(EnginePattern::Random, 1_000, 1 << 18, 7);
/// let plan = tamper_schedule(&t, 3, 0xFA17);
/// assert_eq!(plan, tamper_schedule(&t, 3, 0xFA17)); // reproducible
/// assert!(plan.windows(2).all(|w| w[0].at_op < w[1].at_op));
/// ```
pub fn tamper_schedule(trace: &Trace, events: usize, seed: u64) -> Vec<TamperEvent> {
    // Prefix of addresses written by each memory-op index: writes_seen[i]
    // = addresses written among mem-ops 0..=i, as a running Vec we sample
    // from at schedule time.
    let mem_ops: Vec<Op> = trace
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Read(_) | Op::Write(_)))
        .copied()
        .collect();
    if mem_ops.is_empty() || events == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Candidate tamper points sit in the middle 60% of the trace, evenly
    // spaced with seeded jitter inside each stride.
    let lo = mem_ops.len() as u64 / 5;
    let hi = mem_ops.len() as u64 - mem_ops.len() as u64 / 5;
    let span = hi.saturating_sub(lo).max(1);
    let stride = (span / events as u64).max(1);
    let mut schedule = Vec::with_capacity(events);
    let mut written: Vec<u64> = Vec::new();
    let mut next_scan = 0usize;
    for e in 0..events as u64 {
        let at_op = (lo + e * stride + rng.gen_range(0..stride)).min(hi.saturating_sub(1));
        // Collect every address written up to (and including) at_op.
        while next_scan < mem_ops.len() && (next_scan as u64) <= at_op {
            if let Op::Write(addr) = mem_ops[next_scan] {
                written.push(addr);
            }
            next_scan += 1;
        }
        if written.is_empty() {
            continue; // nothing corruptible yet at this point
        }
        let addr = written[rng.gen_range(0..written.len())];
        schedule.push(TamperEvent { at_op, addr });
    }
    schedule.sort_by_key(|ev| ev.at_op);
    schedule.dedup_by_key(|ev| ev.at_op);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{engine_pattern, EnginePattern};

    #[test]
    fn sweep_starts_fault_free_and_is_sorted() {
        assert_eq!(FAULT_RATE_SWEEP[0], 0.0);
        assert!(FAULT_RATE_SWEEP.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let t = engine_pattern(EnginePattern::Random, 2_000, 1 << 18, 3);
        let a = tamper_schedule(&t, 4, 99);
        let b = tamper_schedule(&t, 4, 99);
        assert_eq!(a, b);
        let c = tamper_schedule(&t, 4, 100);
        assert_ne!(a, c, "different seeds must move the schedule");
    }

    #[test]
    fn events_target_previously_written_addresses() {
        let t = engine_pattern(EnginePattern::Sequential, 3_000, 1 << 18, 5);
        let plan = tamper_schedule(&t, 5, 0xFA17);
        assert!(!plan.is_empty());
        let mem_ops: Vec<Op> = t
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Read(_) | Op::Write(_)))
            .copied()
            .collect();
        for ev in &plan {
            let written_before = mem_ops[..=(ev.at_op as usize)]
                .iter()
                .any(|op| matches!(op, Op::Write(a) if *a == ev.addr));
            assert!(
                written_before,
                "tamper at op {} targets {:#x}, which was never written before it",
                ev.at_op, ev.addr
            );
        }
    }

    #[test]
    fn schedule_is_strictly_ordered_and_mid_trace() {
        let t = engine_pattern(EnginePattern::Random, 5_000, 1 << 18, 11);
        let plan = tamper_schedule(&t, 6, 1);
        assert!(plan.windows(2).all(|w| w[0].at_op < w[1].at_op));
        let n = t.mem_ops();
        for ev in &plan {
            assert!(ev.at_op >= n / 5, "event at {} is too early", ev.at_op);
            assert!(ev.at_op < n - n / 5, "event at {} is too late", ev.at_op);
        }
    }

    #[test]
    fn same_shard_campaign_targets_one_shard_in_order() {
        let t = engine_pattern(EnginePattern::Random, 8_000, 1 << 20, 13);
        for shard in 0..4 {
            let plan = same_shard_campaign(&t, 4, shard, 3, 0xFA17);
            assert_eq!(plan, same_shard_campaign(&t, 4, shard, 3, 0xFA17));
            assert!(plan.windows(2).all(|w| w[0].at_op < w[1].at_op));
            for step in &plan {
                assert_eq!(
                    shard_of(step.addr, 4),
                    shard,
                    "step {step:?} must attack shard {shard}"
                );
            }
        }
        // At least one shard must get a full 3-step campaign out of a
        // trace this large.
        assert!((0..4).any(|s| same_shard_campaign(&t, 4, s, 3, 0xFA17).len() == 3));
    }

    #[test]
    fn degenerate_traces_yield_empty_schedules() {
        let empty = Trace::new("empty");
        assert!(tamper_schedule(&empty, 3, 7).is_empty());
        let mut reads_only = Trace::new("reads");
        for i in 0..100u64 {
            reads_only.read(i * 64);
        }
        assert!(tamper_schedule(&reads_only, 3, 7).is_empty());
        let t = engine_pattern(EnginePattern::Random, 1_000, 1 << 18, 2);
        assert!(tamper_schedule(&t, 0, 7).is_empty());
    }
}
