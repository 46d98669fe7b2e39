//! Criterion end-to-end benchmarks for the functional protection engine:
//! blocks/second for the sequential, random and hot-line-reset-heavy
//! workloads from `toleo_workloads::pattern`, replayed through
//! `ProtectionEngine::{read,write}`. `reproduce --only throughput`
//! reports the same workloads; this bench tracks them under
//! `cargo bench`.

// audit: allow-file(panic, bench setup: aborting on a broken harness is the right failure mode)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_workloads::pattern::{engine_pattern, EnginePattern};
use toleo_workloads::{Op, Trace};

/// Memory ops replayed per iteration.
const OPS: u64 = 10_000;
/// Footprint each pattern is confined to.
const FOOTPRINT_BYTES: u64 = 4 << 20;

fn replay(engine: &mut ProtectionEngine, trace: &Trace) -> u64 {
    let mut checksum = 0u64;
    for op in &trace.ops {
        match op {
            Op::Write(addr) => {
                let fill = (addr >> 6) as u8;
                engine.write(*addr, &[fill; 64]).expect("protected write");
            }
            Op::Read(addr) => {
                let block = engine.read(*addr).expect("protected read");
                checksum = checksum.wrapping_add(block[0] as u64);
            }
            Op::Compute(_) => {}
        }
    }
    checksum
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(OPS));
    for (i, pattern) in EnginePattern::all().into_iter().enumerate() {
        let trace = engine_pattern(pattern, OPS, FOOTPRINT_BYTES, 0xBE2C + i as u64);
        let mut cfg = ToleoConfig::small();
        if pattern == EnginePattern::HotReset {
            cfg.reset_log2 = 8;
        }
        // One long-lived engine per pattern: version state and caches stay
        // warm across iterations, as they would in a real run.
        let mut engine = ProtectionEngine::try_new(cfg, [0x42u8; 48]).unwrap();
        g.bench_function(pattern.name(), |b| {
            b.iter(|| replay(&mut engine, std::hint::black_box(&trace)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
