//! Concurrency tests for the sharded protection engine: the per-shard
//! quarantine contract under concurrent victim traffic (tamper freezes
//! only the offending shard; healthy shards keep serving), recovery
//! racing live traffic without a stale or wrong answer, and
//! observation-equivalence of the sharded batch path against a single
//! sequential engine.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use toleo_core::config::{ToleoConfig, PAGE_BYTES};
use toleo_core::engine::{KillSnapshot, ProtectionEngine};
use toleo_core::error::ToleoError;
use toleo_core::sharded::ShardedEngine;
use toleo_workloads::concurrent::partition_by_page;
use toleo_workloads::pattern::{engine_pattern, EnginePattern};
use toleo_workloads::Op;

/// Tamper with one shard while worker threads serve traffic on the other
/// shards: the victim shard's detection must quarantine *only* that
/// shard. Healthy threads are never denied a single operation, while the
/// quarantined shard refuses everything with the frozen snapshot.
#[test]
fn tamper_on_one_shard_quarantines_it_while_healthy_threads_keep_serving() {
    const SHARDS: usize = 4;
    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x21u8; 48]).unwrap();

    // Warm every shard: page p routes to shard p % 4; shard 0 owns the
    // victim page 0.
    for page in 0..16u64 {
        engine
            .write(page * PAGE_BYTES as u64, &[page as u8; 64])
            .unwrap();
    }

    let served = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Three traffic threads hammer shards 1..3 (pages 1, 2, 3 mod 4);
        // containment means none of them may ever see an error, before,
        // during or after the tamper on shard 0.
        for t in 1..SHARDS as u64 {
            let engine = &engine;
            let served = &served;
            let stop = &stop;
            s.spawn(move || {
                let addr = t * PAGE_BYTES as u64;
                while !stop.load(Ordering::Relaxed) {
                    let block = engine
                        .read(addr)
                        .expect("healthy shard must keep serving through a peer quarantine");
                    assert_eq!(block, [t as u8; 64]);
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The adversary corrupts shard 0's untrusted memory mid-traffic;
        // the victim's next read of it detects and quarantines shard 0.
        let engine = &engine;
        let stop = &stop;
        s.spawn(move || {
            engine.with_adversary(0, |dram| dram.corrupt_data(0, 7, 0x80));
            assert!(matches!(
                engine.read(0),
                Err(ToleoError::IntegrityViolation { .. })
            ));
            // The quarantine is fully visible while peers still run.
            assert!(engine.is_shard_quarantined(0));
            assert!(!engine.is_killed());
            assert!(matches!(
                engine.read(0),
                Err(ToleoError::ShardQuarantined { shard: 0, .. })
            ));
            // Let the traffic threads take a few more laps against the
            // quarantined world before winding down.
            std::thread::sleep(std::time::Duration::from_millis(5));
            stop.store(true, Ordering::Relaxed);
        });
    });

    assert!(
        !engine.is_killed(),
        "tamper must quarantine, not world-kill"
    );
    assert_eq!(engine.robustness_stats().quarantined_shards, 1);
    assert!(served.load(Ordering::Relaxed) >= 3, "healthy shards served");
    // Healthy shards keep serving after the scope too, singles and batches.
    for page in (0..16u64).filter(|p| p % 4 != 0) {
        assert_eq!(
            engine.read(page * PAGE_BYTES as u64).unwrap(),
            [page as u8; 64]
        );
    }
    let healthy: Vec<u64> = (0..16u64)
        .filter(|p| p % 4 != 0)
        .map(|p| p * PAGE_BYTES as u64)
        .collect();
    assert_eq!(engine.read_batch(&healthy).unwrap().len(), healthy.len());
    // The quarantined shard refuses everything with the frozen snapshot.
    assert!(matches!(
        engine.read(4 * PAGE_BYTES as u64),
        Err(ToleoError::ShardQuarantined { shard: 0, .. })
    ));
    assert!(engine.write_batch(&[(0, [1u8; 64])]).is_err());
}

/// The client of [`recovery_races_live_traffic_without_a_stale_or_wrong_answer`]:
/// a shadow model of every served write, plus what it knows about the
/// recovering shard.
struct RacingClient<'a> {
    engine: &'a ShardedEngine,
    /// Resident addresses the op stream draws from.
    pool: Vec<u64>,
    shadow: HashMap<u64, [u8; 64]>,
    /// The recovering shard and the block the adversary corrupted in it.
    shard: usize,
    tampered: u64,
    /// The tampered block is lost until a served write repopulates it.
    lost: bool,
    /// Re-admission is one-way: once the shard has served, it may never
    /// refuse again.
    readmitted: bool,
}

impl RacingClient<'_> {
    /// Issues op `i` of a fixed mixed stream (every third op a write) and
    /// checks the answer against the shadow model.
    fn issue(&mut self, i: u64) {
        // 7919 is prime and the pool size is not a multiple of 3, so any
        // `3 * pool.len()` consecutive ops read every block twice and
        // write it once.
        let addr = self.pool[(i.wrapping_mul(7919) % self.pool.len() as u64) as usize];
        let recovering = self.engine.shard_of_addr(addr) == self.shard;
        let result = if i.is_multiple_of(3) {
            let data = [i as u8; 64];
            self.engine.write(addr, &data).map(|()| {
                self.shadow.insert(addr, data);
                self.lost &= addr != self.tampered;
            })
        } else {
            self.engine.read(addr).map(|block| {
                assert_eq!(block, self.shadow[&addr], "op {i}: stale or wrong data");
                assert!(
                    !(self.lost && addr == self.tampered),
                    "op {i}: lost block served"
                );
            })
        };
        match result {
            Ok(()) => self.readmitted |= recovering,
            Err(ToleoError::PageLost { shard, address }) => {
                assert!(self.lost, "op {i}: PageLost after the block was rewritten");
                assert_eq!((shard, address), (self.shard, self.tampered), "op {i}");
                assert_eq!(addr, self.tampered, "op {i}");
                self.readmitted = true;
            }
            Err(ToleoError::ShardQuarantined { shard, .. }) => {
                assert!(recovering && shard == self.shard, "op {i}: healthy refusal");
                assert!(!self.readmitted, "op {i}: refusal after re-admission");
            }
            Err(e) => panic!("op {i} on {addr:#x}: {e}"),
        }
    }
}

/// `recover_shard` runs on its own thread while the main thread keeps a
/// shadow model and issues mixed reads and writes to the recovering
/// shard *and* to healthy shards, until the recovery thread finishes and
/// for a fixed tail after re-admission. No clock and no op-count
/// assumption: whatever interleaving the scheduler produces, the
/// recovering shard may only answer `ShardQuarantined` (before
/// re-admission, never after), the shadow's plaintext, or `PageLost` on
/// exactly the tampered block until a write repopulates it; healthy
/// shards always answer the shadow's plaintext.
#[test]
fn recovery_races_live_traffic_without_a_stale_or_wrong_answer() {
    const SHARDS: u64 = 4;
    const K: usize = 2;
    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS as usize, [0x5cu8; 48]).unwrap();

    // A big resident set on shard K so the scrub plus re-encryption has
    // real work to do, and a smaller one on every healthy shard.
    let mut writes: Vec<(u64, [u8; 64])> = Vec::new();
    for shard in 0..SHARDS {
        let pages = if shard as usize == K { 32 } else { 4 };
        for k in 0..pages {
            let page = shard + SHARDS * k;
            for line in 0..16u64 {
                let addr = page * PAGE_BYTES as u64 + line * 64;
                writes.push((addr, [(page ^ line) as u8; 64]));
            }
        }
    }
    engine.write_batch(&writes).unwrap();

    let tampered = K as u64 * PAGE_BYTES as u64;
    engine.with_adversary(tampered, |dram| dram.corrupt_data(tampered, 0, 0x01));
    assert!(matches!(
        engine.read(tampered),
        Err(ToleoError::IntegrityViolation { .. })
    ));
    assert!(engine.is_shard_quarantined(K));

    let mut client = RacingClient {
        engine: &engine,
        pool: writes.iter().map(|(addr, _)| *addr).collect(),
        shadow: writes.iter().copied().collect(),
        shard: K,
        tampered,
        lost: true,
        readmitted: false,
    };
    let mut i = 0u64;
    std::thread::scope(|s| {
        let rec = s.spawn(|| engine.recover_shard(K).expect("recovery must re-admit"));
        loop {
            client.issue(i);
            i += 1;
            if rec.is_finished() {
                break;
            }
        }
        let outcome = rec.join().expect("recovery must not panic");
        assert_eq!(outcome.blocks_lost, 1);
        assert_eq!(outcome.blocks_intact, 32 * 16 - 1);
    });
    // The recovery has returned: shard K must serve from here on, whether
    // or not the loop above happened to touch it after re-admission.
    client.readmitted = true;
    for _ in 0..3 * client.pool.len() {
        client.issue(i);
        i += 1;
    }
    assert!(!client.lost, "the tail rewrites every block once");

    for (addr, block) in &client.shadow {
        assert_eq!(engine.read(*addr).unwrap(), *block, "addr {addr:#x}");
    }
    assert_eq!(engine.robustness_stats().quarantined_shards, 0);
    assert!(!engine.is_killed(), "recovery must never world-kill");
    assert_eq!(engine.robustness_stats().recovery.recoveries, 1);
}

/// `is_shard_quarantined` reads under the shard lock, which
/// `recover_shard` holds from its kill-flag check to the re-admission: a
/// second thread polling it sees `true` (the recovery has not finished)
/// and then `false` (it has), never the middle of one — so the read
/// issued right after the first `false` is served under the new
/// generation, neither refused nor stale.
#[test]
fn is_shard_quarantined_flips_once_across_a_concurrent_recovery() {
    const K: usize = 1;
    let engine = ShardedEngine::new(ToleoConfig::small(), 2, [0x6du8; 48]).unwrap();
    // Enough resident blocks on shard K (odd pages) that the scrub and
    // re-key are still running when the poller starts.
    let writes: Vec<(u64, [u8; 64])> = (0..32u64)
        .flat_map(|k| (0..16u64).map(move |line| (2 * k + 1, line)))
        .map(|(page, line)| {
            (
                page * PAGE_BYTES as u64 + line * 64,
                [(page ^ line) as u8; 64],
            )
        })
        .collect();
    engine.write_batch(&writes).unwrap();
    let (tampered, _) = writes[0];
    let (intact, expected) = writes[1];
    engine.with_adversary(tampered, |dram| dram.corrupt_data(tampered, 0, 0x01));
    assert!(engine.read(tampered).is_err());
    assert!(engine.is_shard_quarantined(K));

    std::thread::scope(|s| {
        let rec = s.spawn(|| engine.recover_shard(K).expect("recovery must re-admit"));
        loop {
            let finished = rec.is_finished();
            if !engine.is_shard_quarantined(K) {
                break;
            }
            assert!(!finished, "still quarantined after the recovery returned");
        }
        assert_eq!(engine.read(intact).unwrap(), expected, "refused or stale");
        assert_eq!(
            engine.robustness_stats().recovery.recoveries,
            1,
            "the new generation"
        );
        for _ in 0..1_000 {
            assert!(!engine.is_shard_quarantined(K), "flipped back");
        }
        rec.join().expect("recovery must not panic");
    });
    assert!(!engine.is_killed());
}

/// A tamper detected inside a batch quarantines the offending shard and
/// freezes its counters, while the healthy shards' counters keep
/// advancing — and the aggregate is always exactly the per-shard sum.
#[test]
fn quarantine_during_batch_freezes_shard_stats_while_healthy_advance() {
    let engine = ShardedEngine::new(ToleoConfig::small(), 4, [0x33u8; 48]).unwrap();
    let writes: Vec<(u64, [u8; 64])> = (0..32u64).map(|i| (i * 4096, [i as u8; 64])).collect();
    engine.write_batch(&writes).unwrap();
    // Page 9 routes to shard 1.
    engine.with_adversary(9 * 4096, |dram| dram.corrupt_data(9 * 4096, 0, 1));

    let addrs: Vec<u64> = (0..32u64).map(|i| i * 4096).collect();
    assert!(matches!(
        engine.read_batch(&addrs),
        Err(ToleoError::IntegrityViolation { address }) if address == 9 * 4096
    ));
    assert!(!engine.is_killed());
    assert!(engine.is_shard_quarantined(1));

    let frozen = engine.per_shard_stats()[1];
    // Hammer the partially quarantined engine: batches touching shard 1
    // keep failing, but shard 1's frozen counters never move.
    for _ in 0..3 {
        assert!(matches!(
            engine.read_batch(&addrs),
            Err(ToleoError::ShardQuarantined { shard: 1, .. })
        ));
        assert!(engine.write_batch(&writes).is_err());
        assert_eq!(engine.per_shard_stats()[1], frozen);
    }
    // Healthy-shard traffic advances the live counters...
    let before = engine.stats();
    let healthy: Vec<u64> = (0..32u64)
        .filter(|i| i % 4 != 1)
        .map(|i| i * 4096)
        .collect();
    assert_eq!(engine.read_batch(&healthy).unwrap().len(), 24);
    let after = engine.stats();
    assert_eq!(after.reads, before.reads + 24);
    assert_eq!(engine.per_shard_stats()[1], frozen);
    // ...and the aggregate merges frozen + live without double-counting.
    let mut summed = toleo_core::engine::EngineStats::default();
    for s in engine.per_shard_stats() {
        summed.merge(&s);
    }
    assert_eq!(after, summed);
}

/// Replays a trace through a single sequential engine, returning the
/// observed read values in op order.
fn replay_single(trace: &[Op], key: [u8; 48]) -> Vec<[u8; 64]> {
    let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), key).unwrap();
    let mut reads = Vec::new();
    for op in trace {
        match op {
            Op::Write(addr) => {
                let fill = (addr >> 6) as u8;
                engine.write(*addr, &[fill; 64]).unwrap();
            }
            Op::Read(addr) => reads.push(engine.read(*addr).unwrap()),
            Op::Compute(_) => {}
        }
    }
    reads
}

/// Replays a trace through a sharded engine: maximal runs of consecutive
/// writes become one `write_batch`, runs of reads one `read_batch`
/// (within a run there is no read-after-write dependency, so batching
/// preserves sequential semantics) — or, with `batched` off, the same
/// runs one single op at a time. Returns reads in op order and every
/// aggregated counter.
fn replay_sharded(
    trace: &[Op],
    shards: usize,
    key: [u8; 48],
    batched: bool,
) -> (Vec<[u8; 64]>, KillSnapshot, u64) {
    let engine = ShardedEngine::new(ToleoConfig::small(), shards, key).unwrap();
    let mut reads = Vec::new();
    let mut pending_writes: Vec<(u64, [u8; 64])> = Vec::new();
    let mut pending_reads: Vec<u64> = Vec::new();
    let flush_writes = |pending: &mut Vec<(u64, [u8; 64])>| {
        if batched {
            engine.write_batch(pending).unwrap();
        } else {
            for (addr, data) in pending.iter() {
                engine.write(*addr, data).unwrap();
            }
        }
        pending.clear();
    };
    let flush_reads = |pending: &mut Vec<u64>, reads: &mut Vec<[u8; 64]>| {
        if batched {
            reads.extend(engine.read_batch(pending).unwrap());
        } else {
            reads.extend(pending.iter().map(|addr| engine.read(*addr).unwrap()));
        }
        pending.clear();
    };
    for op in trace {
        match op {
            Op::Write(addr) => {
                flush_reads(&mut pending_reads, &mut reads);
                pending_writes.push((*addr, [(addr >> 6) as u8; 64]));
            }
            Op::Read(addr) => {
                flush_writes(&mut pending_writes);
                pending_reads.push(*addr);
            }
            Op::Compute(_) => {}
        }
    }
    flush_writes(&mut pending_writes);
    flush_reads(&mut pending_reads, &mut reads);
    assert!(!engine.is_killed());
    let served = engine.robustness_stats().ops_served;
    (reads, engine.snapshot(), served)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded batch read/write over a random trace is
    /// observation-equivalent to a single `ProtectionEngine` replaying
    /// the same trace sequentially: every read returns the same value.
    /// And a sharded batch is its loop of single ops: the same trace
    /// through the single-op entry points of an identical sharded engine
    /// leaves the same engine, cache, device and channel counters (the
    /// last non-zero when CI arms `TOLEO_FAULT_PLAN`) and the same
    /// served-op count.
    #[test]
    fn sharded_batches_match_single_engine_replay(
        ops in proptest::collection::vec((0u64..512, any::<bool>()), 1..400),
        shards in 1usize..9,
    ) {
        // 512 block slots span 8 pages; values are a function of the
        // address so write batches stay order-insensitive per address.
        let trace: Vec<Op> = ops
            .iter()
            .map(|(slot, is_write)| {
                let addr = slot * 64;
                if *is_write { Op::Write(addr) } else { Op::Read(addr) }
            })
            .collect();
        let expect = replay_single(&trace, [0x44u8; 48]);
        let (got, counters, served) = replay_sharded(&trace, shards, [0x44u8; 48], true);
        prop_assert_eq!(&got, &expect);
        let looped = replay_sharded(&trace, shards, [0x44u8; 48], false);
        prop_assert_eq!((got, counters, served), looped);
    }

    /// The same equivalence holds for generated workload traces (random
    /// pattern) driven through the per-shard partitions one shard at a
    /// time — the decomposition the throughput harness measures. Per-shard
    /// replay order preserves each address's dependency chain (a page
    /// never spans shards), so the final memory image must match a
    /// sequential replay's exactly.
    #[test]
    fn partitioned_replay_matches_single_engine_replay(seed in 0u64..64) {
        let trace = engine_pattern(EnginePattern::Random, 2_000, 1 << 18, seed);
        let shards = 4usize;

        let mut single = ProtectionEngine::try_new(ToleoConfig::small(), [0x55u8; 48]).unwrap();
        let mut touched = std::collections::BTreeSet::new();
        for op in &trace.ops {
            match op {
                Op::Write(addr) => {
                    single.write(*addr, &[(addr >> 6) as u8; 64]).unwrap();
                    touched.insert(*addr);
                }
                Op::Read(addr) => {
                    single.read(*addr).unwrap();
                    touched.insert(*addr);
                }
                Op::Compute(_) => {}
            }
        }

        let engine = ShardedEngine::new(ToleoConfig::small(), shards, [0x55u8; 48]).unwrap();
        let parts = partition_by_page(&trace, shards);
        for part in &parts {
            for op in &part.ops {
                match op {
                    Op::Write(addr) => {
                        engine.write(*addr, &[(addr >> 6) as u8; 64]).unwrap();
                    }
                    Op::Read(addr) => {
                        engine.read(*addr).unwrap();
                    }
                    Op::Compute(_) => {}
                }
            }
        }
        // After both replays the full touched address space must agree.
        for addr in &touched {
            prop_assert_eq!(engine.read(*addr).unwrap(), single.read(*addr).unwrap());
        }
        prop_assert_eq!(engine.stats().writes, single.stats().writes);
    }
}
