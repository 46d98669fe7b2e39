//! Criterion benchmarks for the sharded engine's batch paths:
//! `write_batch`/`read_batch` split a batch into 8 per-shard runs that the
//! calling thread drains itself, versus the same ops routed one at a time
//! through the thread-safe handle. The `handoff` group is the reason
//! there is no worker pool behind those batches: what handing a shard's
//! run to another thread costs, beside what the run itself costs
//! (EXPERIMENTS.md, PR 12).

// audit: allow-file(panic, bench setup: aborting on a broken harness is the right failure mode)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::mpsc::sync_channel;
use toleo_core::config::ToleoConfig;
use toleo_core::engine::{Block, ProtectionEngine};
use toleo_core::sharded::ShardedEngine;

/// Blocks per batch (one per page across 256 pages, 32 pages per shard).
const BATCH: usize = 256;
/// Shards in the engine under test.
const SHARDS: usize = 8;

fn bench_sharded(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded");
    g.throughput(Throughput::Elements(BATCH as u64));

    let writes: Vec<(u64, Block)> = (0..BATCH as u64)
        .map(|i| (i * 4096, [i as u8; 64]))
        .collect();
    let addrs: Vec<u64> = writes.iter().map(|(a, _)| *a).collect();

    // Long-lived engines so version state and caches stay warm across
    // iterations, as they would in a real deployment.
    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x42u8; 48]).unwrap();
    g.bench_function("write_batch_256", |b| {
        b.iter(|| {
            engine
                .write_batch(std::hint::black_box(&writes))
                .expect("protected write batch")
        })
    });
    engine.read_batch(&addrs).expect("warm");
    g.bench_function("read_batch_256", |b| {
        b.iter(|| {
            engine
                .read_batch(std::hint::black_box(&addrs))
                .expect("protected read batch")
        })
    });

    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x42u8; 48]).unwrap();
    g.bench_function("single_op_routing_256", |b| {
        b.iter(|| {
            for (addr, block) in std::hint::black_box(&writes) {
                engine.write(*addr, block).expect("protected write");
            }
            for addr in std::hint::black_box(&addrs) {
                std::hint::black_box(engine.read(*addr).expect("protected read"));
            }
        })
    });
    g.finish();
}

/// The two ways a shard's run could reach another thread — a scoped thread
/// spawned for it, or a wake-up of a parked one — and the run itself: one
/// shard's share of a [`BATCH`]-op batch through the engine's batch path.
/// A hand-off pays only for runs that outlast it.
fn bench_handoff(c: &mut Criterion) {
    let mut g = c.benchmark_group("handoff");
    println!(
        "handoff/available_parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    g.bench_function("scoped_spawn_join", |b| {
        b.iter(|| std::thread::scope(|s| s.spawn(|| std::hint::black_box(1u64)).join()))
    });

    // A worker parked on a rendezvous channel, as a pool's would be: one
    // iteration is a wake-up with the work and a wake-up with the answer.
    let (to_worker, from_caller) = sync_channel::<u64>(0);
    let (to_caller, from_worker) = sync_channel::<u64>(0);
    let worker = std::thread::spawn(move || {
        for work in from_caller {
            if to_caller.send(work + 1).is_err() {
                break;
            }
        }
    });
    g.bench_function("sync_channel_ping_pong", |b| {
        b.iter(|| {
            to_worker.send(std::hint::black_box(1)).expect("worker up");
            from_worker.recv().expect("worker up")
        })
    });
    drop(to_worker);
    worker.join().expect("worker exits once its channel closes");

    let run: Vec<(u64, Block)> = (0..(BATCH / SHARDS) as u64)
        .map(|i| (i * 4096, [i as u8; 64]))
        .collect();
    let mut engine = ProtectionEngine::try_new(ToleoConfig::small(), [0x42u8; 48]).unwrap();
    g.bench_function("shard_run_32_write_batch", |b| {
        b.iter(|| {
            engine
                .write_batch(std::hint::black_box(&run))
                .expect("protected write batch")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sharded, bench_handoff);
criterion_main!(benches);
