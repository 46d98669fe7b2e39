//! Criterion micro-benchmarks for the cryptographic primitives on the
//! protection engine's hot path: AES block, XTS cache-block encryption
//! (and the `xts_line` shapes it is built from), 56-bit MAC, and IDE flit
//! processing.

// audit: allow-file(panic, bench setup: aborting on a broken harness is the right failure mode)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use toleo_crypto::aes::Aes128;
use toleo_crypto::backend::available_backends;
use toleo_crypto::ide::establish_session;
use toleo_crypto::mac::MacKey;
use toleo_crypto::modes::{AesCtr, AesXts, Tweak};

fn bench_aes_block(c: &mut Criterion) {
    let aes = Aes128::new(b"0123456789abcdef");
    let block = [0x5au8; 16];
    let mut g = c.benchmark_group("aes128");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("encrypt_block", |b| {
        b.iter(|| aes.encrypt_block(std::hint::black_box(&block)))
    });
    g.bench_function("decrypt_block", |b| {
        b.iter(|| aes.decrypt_block(std::hint::black_box(&block)))
    });
    g.finish();
}

/// Single-block and pipelined 8-wide AES for every backend this host can
/// construct (software T-table everywhere, AES-NI / ARMv8-CE where
/// detected).
fn bench_aes_backends(c: &mut Criterion) {
    for kind in available_backends() {
        let aes = Aes128::with_backend(b"0123456789abcdef", kind);
        let block = [0x5au8; 16];
        let mut lanes = [[0x5au8; 16]; 8];
        let mut g = c.benchmark_group(format!("aes128/{}", kind.name()));
        g.throughput(Throughput::Bytes(16));
        g.bench_function("encrypt_block", |b| {
            b.iter(|| aes.encrypt_block(std::hint::black_box(&block)))
        });
        g.throughput(Throughput::Bytes(128));
        g.bench_function("encrypt_blocks8", |b| {
            b.iter(|| aes.encrypt_blocks8(std::hint::black_box(&mut lanes)))
        });
        g.finish();
    }
}

fn bench_xts_cache_block(c: &mut Criterion) {
    let xts = AesXts::new(b"0123456789abcdef", b"fedcba9876543210");
    let tweak = Tweak {
        version: 77,
        address: 0x4000,
    };
    let mut g = c.benchmark_group("xts");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("encrypt_64B_cache_block", |b| {
        b.iter(|| {
            let mut blk = [0xabu8; 64];
            xts.encrypt(std::hint::black_box(tweak), &mut blk);
            blk
        })
    });
    g.finish();
}

/// The shapes a protected line is built from, per backend, each as a
/// dependent chain so the figure is a latency: one lane and eight lanes
/// feed their output back in; the line forms also draw the next tweak
/// from the previous ciphertext, so tweak pass and data pass are both on
/// the chain and the figure compares with the arithmetic floor of two
/// back-to-back 10-round AES passes. `tweak_block+encrypt_with_tweak` is
/// the public two-call path the fused kernel replaced in the engine.
fn bench_xts_line(c: &mut Criterion) {
    fn chained_tweak(line: &[u8; 64]) -> Tweak {
        let (head, _) = line.split_first_chunk().expect("64 >= 8");
        Tweak {
            version: u64::from_le_bytes(*head),
            address: 0x4000,
        }
    }
    for kind in available_backends() {
        let aes = Aes128::with_backend(b"0123456789abcdef", kind);
        let xts = AesXts::with_backend(b"0123456789abcdef", b"fedcba9876543210", kind);
        let mut block = [0x5au8; 16];
        let mut lanes = [[0x5au8; 16]; 8];
        let mut line = [0xabu8; 64];
        let mut g = c.benchmark_group(format!("xts_line/{}", kind.name()));
        g.throughput(Throughput::Bytes(16));
        g.bench_function("encrypt_1_lane", |b| {
            b.iter(|| block = aes.encrypt_block(std::hint::black_box(&block)))
        });
        g.throughput(Throughput::Bytes(128));
        g.bench_function("encrypt_8_lanes", |b| {
            b.iter(|| aes.encrypt_blocks8(std::hint::black_box(&mut lanes)))
        });
        g.throughput(Throughput::Bytes(64));
        g.bench_function("encrypt_line", |b| {
            b.iter(|| xts.encrypt_line(chained_tweak(&line), std::hint::black_box(&mut line)))
        });
        g.bench_function("decrypt_line", |b| {
            b.iter(|| xts.decrypt_line(chained_tweak(&line), std::hint::black_box(&mut line)))
        });
        g.bench_function("tweak_block+encrypt_with_tweak", |b| {
            b.iter(|| {
                let t0 = xts.tweak_block(chained_tweak(&line));
                xts.encrypt_with_tweak(t0, std::hint::black_box(&mut line[..]))
            })
        });
        g.finish();
    }
}

fn bench_ctr_cache_block(c: &mut Criterion) {
    let ctr = AesCtr::new(b"0123456789abcdef");
    let mut g = c.benchmark_group("ctr");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("apply_64B_cache_block", |b| {
        b.iter(|| {
            let mut blk = [0xabu8; 64];
            ctr.apply(9, 0x4000, &mut blk);
            blk
        })
    });
    g.finish();
}

fn bench_mac(c: &mut Criterion) {
    let key = MacKey::new([7u8; 16]);
    let ct = [0x11u8; 64];
    let mut g = c.benchmark_group("mac");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("tag56_over_cache_block", |b| {
        b.iter(|| key.mac(std::hint::black_box(42), 0x4000, &ct))
    });
    g.finish();
}

fn bench_ide(c: &mut Criterion) {
    let mut g = c.benchmark_group("ide");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("send_receive_version_flit", |b| {
        let (mut tx, mut rx) = establish_session([0x33u8; 32]);
        b.iter(|| {
            let flit = tx.send(b"stealth-version!");
            rx.receive(&flit).expect("in-order flit")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aes_block,
    bench_aes_backends,
    bench_xts_cache_block,
    bench_xts_line,
    bench_ctr_cache_block,
    bench_mac,
    bench_ide
);
criterion_main!(benches);
