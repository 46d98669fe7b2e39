//! The two universes agree: every figure in `expected/` comes from
//! `toleo-sim`, every nanosecond in `benchmark/` from
//! `ProtectionEngine::{read, write}`. Both run the one protocol walk,
//! `toleo_core::cache::StealthCache::{read, update}`, so what this checks
//! is the stream the simulator hands it: `Node`'s misses, writebacks and
//! drain, replayed post-LLC into an engine, must count the same protocol
//! events — device traffic, upgrades, resets and both cache hit rates.

use toleo_core::channel::RetryPolicy;
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_sim::cache::{Hierarchy, HitLevel};
use toleo_sim::config::{Protection, SimConfig};
use toleo_sim::system::System;
use toleo_workloads::trace::{Op, Trace};
use toleo_workloads::{generate, Benchmark, GenConfig};

/// The post-LLC stream `Node::exec_op` + `Node::finalize` hand to the
/// protected memory system, in order: per access its LLC writebacks
/// (`true`), then its own miss (`false`: a read, or a write's allocate
/// fetch); after the trace, the drain of every dirty line.
fn post_llc_stream(cfg: &SimConfig, trace: &Trace) -> Vec<(bool, u64)> {
    let mut hier = Hierarchy::new(cfg);
    let mut stream = Vec::new();
    for op in &trace.ops {
        let (addr, is_write) = match *op {
            Op::Compute(_) => continue,
            Op::Read(addr) => (addr, false),
            Op::Write(addr) => (addr, true),
        };
        let res = hier.access(addr, is_write);
        stream.extend(res.llc_writebacks.iter().map(|&wb| (true, wb)));
        if res.level == HitLevel::Memory {
            stream.push((false, addr));
        }
    }
    stream.extend(hier.drain().into_iter().map(|wb| (true, wb)));
    stream
}

/// One trace through both universes; every compared counter, named, as
/// `(sim, engine)` pairs. Hit rates are compared as the bits of the `f64`
/// both sides compute from their hit / miss counts.
fn both_universes(bench: Benchmark) -> Vec<(&'static str, u64, u64)> {
    let trace = generate(
        bench,
        &GenConfig {
            mem_ops: 100_000,
            ..GenConfig::default()
        },
    );
    let cfg = SimConfig::scaled(Protection::Toleo);

    let mut system = System::new(cfg.clone());
    let run = system.run(&trace);
    let sim = system
        .shared()
        .device
        .as_ref()
        .expect("Toleo configuration has a device")
        .device()
        .stats();

    // The device `SharedMemory::new` builds, behind a functional engine
    // with no fault plan (whatever `TOLEO_FAULT_PLAN` says).
    let mut tcfg = ToleoConfig::small();
    tcfg.protected_bytes = 1 << 32;
    tcfg.device_capacity_bytes = tcfg.flat_array_bytes() + (64 << 20);
    let mut engine =
        ProtectionEngine::try_new_with_robustness(tcfg, [0x5a; 48], None, RetryPolicy::default())
            .expect("engine");
    for (is_write, addr) in post_llc_stream(&cfg, &trace) {
        let block = addr & !63;
        if is_write {
            engine.write(block, &[0xa5; 64]).expect("write");
        } else {
            engine.read(block).expect("read");
        }
    }
    let eng = engine.device_stats();

    vec![
        ("device updates", sim.updates, eng.updates),
        ("device reads", sim.reads, eng.reads),
        (
            "upgrades to uneven",
            sim.upgrades_to_uneven,
            eng.upgrades_to_uneven,
        ),
        (
            "upgrades to full",
            sim.upgrades_to_full,
            eng.upgrades_to_full,
        ),
        ("stealth resets", sim.stealth_resets, eng.stealth_resets),
        (
            "MAC-cache hit rate",
            run.mac_hit_rate.to_bits(),
            engine.mac_cache_stats().hit_rate().to_bits(),
        ),
        (
            "stealth-cache hit rate",
            run.stealth_hit_rate.to_bits(),
            engine.stealth_cache_stats().hit_rate().to_bits(),
        ),
    ]
}

/// One trace per version-locality class — `Bsw` (dense, regular
/// writes), `Pr` (read-mostly, irregular), `Llama2Gen` (streaming) — plus
/// `Fmi`, whose irregular updates upgrade the most pages to uneven.
#[test]
fn simulator_and_engine_count_the_same_protocol_events() {
    for bench in [
        Benchmark::Bsw,
        Benchmark::Pr,
        Benchmark::Llama2Gen,
        Benchmark::Fmi,
    ] {
        for (counter, sim, engine) in both_universes(bench) {
            assert_eq!(sim, engine, "{bench:?}: {counter} (simulator vs engine)");
        }
    }
}
