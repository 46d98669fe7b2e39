//! The per-layer cost table, measured from outside: each layer's public
//! API is driven in isolation with the workload's own op stream, one
//! span per chunk of calls, and the in-situ counts come from the
//! workload's own round.
//!
//! Every timing here is the mean cost per call over the fastest of
//! [`PASSES`] passes (means add up, so layer costs can be summed against
//! the engine's; the fastest pass is the one the host disturbed least).
//! Isolated costs are not in-situ costs — a layer replayed alone keeps
//! the caches to itself — which is why the engine's residual is
//! reported rather than hidden.

use crate::report::{self, PER_LAYER};
use crate::spans::{Recorder, SpanId, CHUNK_CALLS};
use crate::workloads::{
    self, drive, generate, new_sharded, new_single, siege_faults, Block, Client, Engine, Memory,
    Mode, Op, Pass, Pool, Round, Spec, BATCH_OPS, BLOCK_BYTES, PAGE_BYTES,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use toleo_baselines::{MorphEngine, SgxEngine, VaultEngine};
use toleo_core::arena::UntrustedDram;
use toleo_core::cache::{MacCache, StealthCache};
use toleo_core::channel::{DeviceChannel, RetryPolicy};
use toleo_core::device::ToleoDevice;
use toleo_core::fault::{DeviceOp, FaultPlan};
use toleo_core::pagetable::PageIndex;
use toleo_core::protected::{MemoryError, ProtectedMemory};
use toleo_core::trip::{PageEntry, TripFormat, UpdateEffect};
use toleo_core::version::StealthVersion;
use toleo_crypto::aes::Aes128;
use toleo_crypto::mac::{MacKey, Tag56};
use toleo_crypto::modes::{AesXts, Tweak};
use toleo_crypto::range::DRange;

/// Passes over each layer; the fastest one is reported.
const PASSES: usize = 3;
/// Ops of the workload's stream each layer is driven with.
const LAYER_OPS: usize = 128 * 1024;
/// Ops of it the baselines replay (the Merkle tree is slow).
const BASELINE_OPS: usize = 32 * 1024;
/// Untraced/traced pairs of the workload's own round behind
/// `harness.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;
/// Latency rounds of the workload behind `harness.op_p99_ns`.
const LATENCY_ROUNDS: usize = 3;

/// One chunk of the stream, split by kind so that a layer's write-side
/// and read-side calls can be timed apart while its state still sees
/// the stream in (chunk) order.
struct Chunk {
    ops: Vec<Op>,
    writes: Vec<Op>,
    reads: Vec<Op>,
}

/// The op stream the layers are driven with: set-up writes (untimed)
/// and the first [`LAYER_OPS`] ops of the round.
struct Stream {
    populate: Vec<Op>,
    chunks: Vec<Chunk>,
    ops: usize,
    write_share: f64,
    /// Share of ops that land on another page than the op before them
    /// (the engine's `last_slot` spares the rest their slot lookup).
    page_change_share: f64,
    pages: usize,
}

impl Stream {
    fn new(spec: &Spec, seed: u64, scale: f64) -> Self {
        let inputs = generate(spec, seed, scale);
        let populate: Vec<Op> = if spec.populate {
            (0..spec.window_bytes / BLOCK_BYTES)
                .map(|b| Op::write(b * BLOCK_BYTES))
                .collect()
        } else {
            Vec::new()
        };
        let mut ops = inputs.ops;
        ops.truncate(LAYER_OPS);
        let writes = ops.iter().filter(|op| op.is_write()).count();
        let page_changes = ops
            .windows(2)
            .filter(|w| w[0].page() != w[1].page())
            .count()
            + 1;
        let chunks = ops
            .chunks(CHUNK_CALLS)
            .map(|c| Chunk {
                ops: c.to_vec(),
                writes: c.iter().copied().filter(|op| op.is_write()).collect(),
                reads: c.iter().copied().filter(|op| !op.is_write()).collect(),
            })
            .collect();
        Stream {
            populate,
            chunks,
            ops: ops.len(),
            write_share: writes as f64 / ops.len() as f64,
            page_change_share: page_changes as f64 / ops.len() as f64,
            pages: (spec.window_bytes / PAGE_BYTES) as usize,
        }
    }

    /// The first `n` ops' worth of chunks.
    fn head(&self, n: usize) -> &[Chunk] {
        &self.chunks[..n.div_ceil(CHUNK_CALLS).min(self.chunks.len())]
    }
}

/// Records chunk spans and keeps, per span name, the cheapest pass.
struct Tracer<'a> {
    rec: &'a mut Recorder,
    root: SpanId,
    /// `(ns, calls)` per name in the pass under way.
    pass: BTreeMap<&'static str, (u64, u64)>,
    /// ns per call per name, fastest pass so far.
    best: BTreeMap<&'static str, f64>,
}

impl Tracer<'_> {
    fn time<R>(&mut self, name: &'static str, calls: usize, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.rec.chunk(name, self.root, calls, f);
        let slot = self.pass.entry(name).or_insert((0, 0));
        slot.0 += ns;
        slot.1 += calls as u64;
        r
    }

    fn end_pass(&mut self) {
        for (name, (ns, calls)) in std::mem::take(&mut self.pass) {
            if calls > 0 {
                let cost = ns as f64 / calls as f64;
                let best = self.best.entry(name).or_insert(f64::INFINITY);
                *best = best.min(cost);
            }
        }
    }

    /// Runs `pass` [`PASSES`] times, each on fresh state from `make`.
    fn passes<S>(
        &mut self,
        mut make: impl FnMut() -> S,
        mut pass: impl FnMut(&mut Self, &mut S),
    ) -> S {
        let mut last = None;
        for _ in 0..PASSES {
            let mut state = make();
            pass(self, &mut state);
            self.end_pass();
            last = Some(state);
        }
        last.expect("PASSES is at least one")
    }

    /// Mean ns per call of the fastest pass; zero if never called.
    fn ns(&self, name: &str) -> f64 {
        self.best.get(name).copied().unwrap_or(0.0)
    }
}

/// Any `ProtectedMemory` scheme behind the replay loops' interface.
struct Scheme<M: ProtectedMemory>(M);

impl<M: ProtectedMemory> Memory for Scheme<M> {
    type Error = MemoryError;
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), MemoryError> {
        self.0.write(addr, data)
    }
    fn read(&mut self, addr: u64) -> Result<Block, MemoryError> {
        self.0.read(addr)
    }
}

/// Unprotected memory: what the replay loop and its shadow compare cost
/// on their own.
struct PlainMemory(Vec<Block>);

impl Memory for PlainMemory {
    type Error = std::convert::Infallible;
    #[inline]
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), Self::Error> {
        self.0[(addr / BLOCK_BYTES) as usize] = *data;
        Ok(())
    }
    #[inline]
    fn read(&mut self, addr: u64) -> Result<Block, Self::Error> {
        Ok(self.0[(addr / BLOCK_BYTES) as usize])
    }
}

fn crypto(t: &mut Tracer<'_>, s: &Stream, seed: u64) {
    let key = workloads::key_material(seed);
    let (k0, k1, k2) = (
        key[..16].try_into().expect("16 bytes"),
        key[16..32].try_into().expect("16 bytes"),
        key[32..].try_into().expect("16 bytes"),
    );
    let aes = Aes128::new(&k0);
    let xts = AesXts::new(&k0, &k1);
    let mac = MacKey::new(k2);
    t.passes(
        || ([0x5au8; 16], [0xa5u8; 64], DRange::from_seed(seed)),
        |t, (block, line, range)| {
            for c in &s.chunks {
                let n = c.ops.len();
                t.time("crypto.aes.enc", n, || {
                    for _ in 0..n {
                        *block = aes.encrypt_block(block);
                    }
                });
                t.time("crypto.aes.dec", n, || {
                    for _ in 0..n {
                        *block = aes.decrypt_block(block);
                    }
                });
                t.time("crypto.aes.enc8", n / 8 * 8, || {
                    let mut lanes = [*block; 8];
                    for _ in 0..n / 8 {
                        aes.encrypt_blocks8(&mut lanes);
                    }
                    *block = lanes[7];
                });
                let tweak = |i: usize, op: &Op| Tweak {
                    version: seed ^ i as u64,
                    address: op.addr(),
                };
                t.time("crypto.xts.seal", n, || {
                    for (i, op) in c.ops.iter().enumerate() {
                        let t0 = xts.tweak_block(tweak(i, op));
                        xts.encrypt_with_tweak(t0, &mut line[..]);
                    }
                });
                t.time("crypto.xts.unseal", n, || {
                    for (i, op) in c.ops.iter().enumerate() {
                        let t0 = xts.tweak_block(tweak(i, op));
                        xts.decrypt_with_tweak(t0, &mut line[..]);
                    }
                });
                t.time("crypto.xts.tweak8", n / 8 * 8, || {
                    let mut out = [[0u8; 16]; 8];
                    for (i, ops) in c.ops.chunks_exact(8).enumerate() {
                        let tweaks: [Tweak; 8] = std::array::from_fn(|k| tweak(i, &ops[k]));
                        xts.tweak_blocks(&tweaks, &mut out);
                    }
                    block[1] ^= out[7][0];
                });
                t.time("crypto.mac", n, || {
                    let mut acc = 0u64;
                    for (i, op) in c.ops.iter().enumerate() {
                        acc ^= mac.mac(i as u64, op.addr(), &line[..]).as_raw();
                    }
                    line[0] ^= acc as u8;
                });
                t.time("crypto.range", n, || {
                    let mut hits = 0u8;
                    for _ in 0..n {
                        hits = hits.wrapping_add(u8::from(range.one_in_pow2(20)));
                    }
                    line[1] ^= hits;
                });
            }
            black_box((&block, &line));
        },
    );
}

fn trip_and_index(t: &mut Tracer<'_>, s: &Stream, spec: &Spec, seed: u64) {
    let cfg = workloads::config(spec, seed);
    let fresh = PageEntry::new_flat(StealthVersion::new(seed, cfg.stealth_bits));
    t.passes(
        || {
            let mut entries = vec![fresh.clone(); s.pages];
            for op in &s.populate {
                entries[op.page() as usize].record_write(op.line(), &cfg);
            }
            entries
        },
        |t, entries| {
            for c in &s.chunks {
                t.time("core.trip.record_write", c.writes.len(), || {
                    let mut upgrades = 0u32;
                    for op in &c.writes {
                        let effect = entries[op.page() as usize].record_write(op.line(), &cfg);
                        upgrades += u32::from(effect != UpdateEffect::None);
                    }
                    black_box(upgrades);
                });
            }
        },
    );
    // First-touch order of the pages, populate first.
    let mut seen = vec![false; s.pages];
    let touched: Vec<u64> = s
        .populate
        .iter()
        .chain(s.chunks.iter().flat_map(|c| &c.ops))
        .map(|op| op.page())
        .filter(|&p| !std::mem::replace(&mut seen[p as usize], true))
        .collect();
    t.passes(PageIndex::new, |t, index| {
        for pages in touched.chunks(CHUNK_CALLS) {
            t.time("core.pagetable.insert", pages.len(), || {
                for &p in pages {
                    index.insert(p, p as u32);
                }
            });
        }
        for c in &s.chunks {
            t.time("core.pagetable.get", c.ops.len(), || {
                let mut acc = 0u32;
                for op in &c.ops {
                    acc ^= index.get(op.page()).unwrap_or(0);
                }
                black_box(acc);
            });
        }
    });
}

/// Drives the device alone, and the channel in front of a second
/// device; returns the Trip format each op of the stream met.
fn device_and_channel(t: &mut Tracer<'_>, s: &Stream, spec: &Spec, seed: u64) -> Vec<TripFormat> {
    let cfg = workloads::config(spec, seed);
    let device = || {
        let mut d = ToleoDevice::new(cfg.clone()).expect("benchmark config is valid");
        for op in &s.populate {
            d.update(op.page(), op.line()).expect("populate update");
        }
        d
    };
    // Untimed, on a device of its own: the probes would warm the entries
    // for the timed calls.
    let mut formats = Vec::with_capacity(s.ops);
    let mut probe = device();
    for c in &s.chunks {
        for op in &c.ops {
            formats.push(probe.read_versioned(op.page(), op.line()).expect("probe").1);
        }
        for op in &c.writes {
            probe.update(op.page(), op.line()).expect("probe update");
        }
    }
    t.passes(device, |t, d| {
        for c in &s.chunks {
            t.time("core.device.update", c.writes.len(), || {
                for op in &c.writes {
                    black_box(d.update(op.page(), op.line()).expect("device update"));
                }
            });
            t.time("core.device.read", c.reads.len(), || {
                for op in &c.reads {
                    black_box(d.read_versioned(op.page(), op.line()).expect("device read"));
                }
            });
        }
    });
    t.passes(device, |t, d| {
        let mut lines = Vec::with_capacity(CHUNK_CALLS);
        let mut out = Vec::with_capacity(CHUNK_CALLS);
        for c in &s.chunks {
            t.time("core.device.read_run", c.ops.len(), || {
                for run in c.ops.chunk_by(|a, b| a.page() == b.page()) {
                    lines.clear();
                    lines.extend(run.iter().map(|op| op.line()));
                    d.read_run(run[0].page(), &lines, &mut out)
                        .expect("read_run");
                    black_box(&out);
                }
            });
        }
    });
    let plan = (spec.engine == Engine::Siege).then(|| siege_faults(seed));
    t.passes(
        || {
            let plan = plan.map(|p| FaultPlan::with_salt(p, cfg.rng_seed).expect("valid plan"));
            DeviceChannel::new(device(), plan, RetryPolicy::default())
        },
        |t, ch| {
            for c in &s.chunks {
                t.time("core.channel.update", c.writes.len(), || {
                    for op in &c.writes {
                        black_box(ch.update(op.page(), op.line()).expect("channel update"));
                    }
                });
                t.time("core.channel.read", c.reads.len(), || {
                    for op in &c.reads {
                        black_box(
                            ch.read_versioned(op.page(), op.line())
                                .expect("channel read"),
                        );
                    }
                });
            }
        },
    );
    t.passes(
        || FaultPlan::new(siege_faults(seed)).expect("valid plan"),
        |t, plan| {
            for c in &s.chunks {
                t.time("core.fault.decide", c.ops.len(), || {
                    let mut faults = 0u32;
                    for op in &c.ops {
                        let class = if op.is_write() {
                            DeviceOp::Update
                        } else {
                            DeviceOp::Read
                        };
                        faults += u32::from(plan.decide(class).is_some());
                    }
                    black_box(faults);
                });
            }
        },
    );
    formats
}

fn caches_and_arena(t: &mut Tracer<'_>, s: &Stream, formats: &[TripFormat]) {
    t.passes(
        || (StealthCache::paper_default(), MacCache::paper_default()),
        |t, (stealth, mac)| {
            let mut at = 0;
            for c in &s.chunks {
                let fmts = &formats[at..at + c.ops.len()];
                at += c.ops.len();
                t.time("core.stealth_cache.access", c.ops.len(), || {
                    let mut hits = 0u32;
                    for (op, &fmt) in c.ops.iter().zip(fmts) {
                        hits += u32::from(stealth.access(op.page(), fmt));
                    }
                    black_box(hits);
                });
                t.time("core.mac_cache.access", c.ops.len(), || {
                    let mut hits = 0u32;
                    for op in &c.ops {
                        hits += u32::from(mac.access(op.addr()));
                    }
                    black_box(hits);
                });
            }
        },
    );
    let block = [0xc3u8; 64];
    t.passes(
        || {
            let mut dram = UntrustedDram::default();
            for op in &s.populate {
                let id = dram.ensure_slot(op.page());
                dram.slot_mut(id).set_block(op.line(), block);
                dram.slot_mut(id)
                    .set_tag(op.line(), Tag56::from_raw(op.addr()));
            }
            dram
        },
        |t, dram| {
            let mut ids = Vec::with_capacity(CHUNK_CALLS);
            for c in &s.chunks {
                // Write-side lookups materialise the slot, read-side
                // ones only find it: the two calls the engine makes.
                ids.clear();
                t.time("core.arena.slot_lookup", c.ops.len(), || {
                    for op in &c.writes {
                        ids.push(Some(dram.ensure_slot(op.page())));
                    }
                    for op in &c.reads {
                        ids.push(dram.slot_id(op.page()));
                    }
                });
                let (write_ids, read_ids) = ids.split_at(c.writes.len());
                t.time("core.arena.block_store", c.writes.len(), || {
                    for (op, id) in c.writes.iter().zip(write_ids) {
                        let slot = dram.slot_mut(id.expect("ensured"));
                        slot.set_block(op.line(), block);
                        slot.set_tag(op.line(), Tag56::from_raw(op.addr()));
                    }
                });
                t.time("core.arena.block_load", c.reads.len(), || {
                    let mut acc = 0u64;
                    for (op, id) in c.reads.iter().zip(read_ids) {
                        if let Some(id) = id {
                            let slot = dram.slot(*id);
                            if let (Some(b), Some(tag)) =
                                (slot.block(op.line()), slot.tag(op.line()))
                            {
                                acc ^= u64::from(b[0]) ^ tag.as_raw();
                            }
                        }
                    }
                    black_box(acc);
                });
            }
        },
    );
}

type WriteBatch = Vec<(u64, Block)>;

/// Writes/reads of a chunk as the batch entry points take them, in
/// [`BATCH_OPS`]-op batches.
fn batches(c: &Chunk, block: &Block) -> (Vec<WriteBatch>, Vec<Vec<u64>>) {
    let writes = c
        .writes
        .chunks(BATCH_OPS)
        .map(|b| b.iter().map(|op| (op.addr(), *block)).collect())
        .collect();
    let reads = c
        .reads
        .chunks(BATCH_OPS)
        .map(|b| b.iter().map(|op| op.addr()).collect())
        .collect();
    (writes, reads)
}

fn populated<M: Memory>(mut mem: M, s: &Stream, block: &Block) -> M {
    for op in &s.populate {
        mem.write(op.addr(), block).expect("populate write");
    }
    mem
}

/// One pass of single ops, then one of batches, over `chunks`.
fn singles_and_batches<M: Memory>(
    t: &mut Tracer<'_>,
    chunks: &[Chunk],
    make: &mut dyn FnMut() -> M,
    names: [&'static str; 5],
    block: &Block,
) {
    let [op_name, write_name, read_name, batch_write_name, batch_read_name] = names;
    t.passes(&mut *make, |t, mem| {
        for c in chunks {
            t.time(op_name, c.ops.len(), || {
                for op in &c.ops {
                    if op.is_write() {
                        mem.write(op.addr(), block).expect("write");
                    } else {
                        black_box(mem.read(op.addr()).expect("read"));
                    }
                }
            });
        }
    });
    t.passes(&mut *make, |t, mem| {
        for c in chunks {
            t.time(write_name, c.writes.len(), || {
                for op in &c.writes {
                    mem.write(op.addr(), block).expect("write");
                }
            });
            t.time(read_name, c.reads.len(), || {
                for op in &c.reads {
                    black_box(mem.read(op.addr()).expect("read"));
                }
            });
        }
    });
    t.passes(&mut *make, |t, mem| {
        for c in chunks {
            let (writes, reads) = batches(c, block);
            t.time(batch_write_name, c.writes.len(), || {
                for b in &writes {
                    mem.write_batch(b).expect("write_batch");
                }
            });
            t.time(batch_read_name, c.reads.len(), || {
                for b in &reads {
                    black_box(mem.read_batch(b).expect("read_batch"));
                }
            });
        }
    });
}

fn engines(t: &mut Tracer<'_>, s: &Stream, spec: &Spec, seed: u64) {
    let block = [0x3cu8; 64];
    singles_and_batches(
        t,
        &s.chunks,
        &mut || populated(new_single(spec, seed), s, &block),
        [
            "core.engine.op",
            "core.engine.write",
            "core.engine.read",
            "core.engine.batch_write",
            "core.engine.batch_read",
        ],
        &block,
    );
    // The same ops through an 8-shard handle, one thread: what sharding
    // itself adds to a single op and to a batch.
    singles_and_batches(
        t,
        &s.chunks,
        &mut || populated(new_sharded(spec, seed, None), s, &block),
        [
            "core.sharded.op",
            "core.sharded.write",
            "core.sharded.read",
            "core.sharded.batch_write",
            "core.sharded.batch_read",
        ],
        &block,
    );
    // Two clients against that one: the same ops split by page parity
    // and served side by side.
    let halves: [Vec<Op>; 2] = [0, 1].map(|parity| {
        s.chunks
            .iter()
            .flat_map(|c| &c.ops)
            .copied()
            .filter(|op| op.page() % 2 == parity)
            .collect()
    });
    t.passes(
        || populated(new_sharded(spec, seed, None), s, &block),
        |t, engine| {
            let engine = &*engine;
            t.time("core.sharded.2t", s.ops, || {
                std::thread::scope(|scope| {
                    for half in &halves {
                        scope.spawn(move || {
                            for op in half {
                                if op.is_write() {
                                    engine.write(op.addr(), &block).expect("write");
                                } else {
                                    black_box(engine.read(op.addr()).expect("read"));
                                }
                            }
                        });
                    }
                });
            });
        },
    );
}

/// Replays the head of the stream through a baseline scheme, shadow
/// check included; blocks the slice reads are written once beforehand so
/// that reads decrypt real data.
fn baseline<M: ProtectedMemory>(
    t: &mut Tracer<'_>,
    s: &Stream,
    spec: &Spec,
    pool: &Pool,
    name: &'static str,
    make: impl Fn(u64) -> M,
) -> f64 {
    let chunks = s.head(BASELINE_OPS);
    let ops: u64 = chunks.iter().map(|c| c.ops.len() as u64).sum();
    let mut fetches = 0;
    t.passes(
        || {
            let mut mem = Scheme(make(spec.window_bytes.max(1 << 20)));
            let mut client = Client::new(pool, spec.window_bytes);
            for op in chunks.iter().flat_map(|c| &c.reads) {
                client.issue(&mut mem, Op::write(op.addr()));
            }
            (mem, client)
        },
        |t, (mem, client)| {
            let before = mem.0.stats().version_fetches;
            for c in chunks {
                t.time(name, c.ops.len(), || {
                    drive(mem, client, &c.ops, false, Mode::Timed)
                });
            }
            assert_eq!(client.failed, 0, "{name}: baseline refused an op");
            fetches = mem.0.stats().version_fetches - before;
        },
    );
    fetches as f64 * 1_000.0 / ops as f64
}

fn harness(t: &mut Tracer<'_>, s: &Stream, spec: &Spec, pool: &Pool) {
    t.passes(
        || (),
        |t, ()| {
            for _ in 0..64 {
                t.time("harness.clock", CHUNK_CALLS, || {
                    let mut acc = 0u128;
                    for _ in 0..CHUNK_CALLS {
                        acc += Instant::now().elapsed().as_nanos();
                    }
                    black_box(acc);
                });
            }
        },
    );
    let blocks = (spec.window_bytes / BLOCK_BYTES) as usize;
    t.passes(
        || {
            (
                PlainMemory(vec![[0u8; 64]; blocks]),
                Client::new(pool, spec.window_bytes),
            )
        },
        |t, (mem, client)| {
            for c in &s.chunks {
                t.time("harness.loop", c.ops.len(), || {
                    drive(mem, client, &c.ops, false, Mode::Timed)
                });
            }
        },
    );
}

/// The workload's own round, untraced and traced in alternation: the
/// in-situ counts, and what the chunk spans cost.
fn own_rounds(
    spec: &Spec,
    seed: u64,
    scale: f64,
    rec: &mut Recorder,
    root: SpanId,
) -> (Round, f64) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut reference = None;
    for _ in 0..OVERHEAD_PAIRS {
        let round = workloads::run_round(spec, seed, scale, Pass::Timed, None);
        untraced.push(round.replay_s);
        reference = Some(round);
        let round = workloads::run_round(
            spec,
            seed,
            scale,
            Pass::Traced {
                recorder: &mut *rec,
                parent: root,
            },
            None,
        );
        traced.push(round.replay_s);
    }
    // Fastest against fastest, as everywhere in this table.
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_pct = (best(&traced) / best(&untraced) - 1.0) * 100.0;
    (
        reference.expect("OVERHEAD_PAIRS is at least one"),
        overhead_pct,
    )
}

/// One per-layer metric as measured.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Measures every per-layer metric for `spec`, in catalogue order, and
/// returns them with the workload round the in-situ counts came from
/// and the spans behind the timings.
pub fn measure(spec: &Spec, seed: u64, scale: f64) -> (Vec<LayerMetric>, Round, Recorder) {
    let mut rec = Recorder::new();
    let root = rec.open("round", None);
    let (round, overhead_pct) = own_rounds(spec, seed, scale, &mut rec, root);
    let latency: Vec<Round> = (0..LATENCY_ROUNDS)
        .map(|_| workloads::run_round(spec, seed, scale, Pass::Latency, None))
        .collect();
    let op_p99_ns = report::op_p99_ns(spec, &latency, scale >= 1.0);
    let s = Stream::new(spec, seed, scale);
    let pool = Pool::new(seed);
    let mut t = Tracer {
        rec: &mut rec,
        root,
        pass: BTreeMap::new(),
        best: BTreeMap::new(),
    };
    crypto(&mut t, &s, seed);
    trip_and_index(&mut t, &s, spec, seed);
    let formats = device_and_channel(&mut t, &s, spec, seed);
    caches_and_arena(&mut t, &s, &formats);
    engines(&mut t, &s, spec, seed);
    let sgx_fetches = baseline(
        &mut t,
        &s,
        spec,
        &pool,
        "baselines.sgx_tree",
        SgxEngine::new,
    );
    let vault_fetches = baseline(&mut t, &s, spec, &pool, "baselines.vault", VaultEngine::new);
    let morph_fetches = baseline(&mut t, &s, spec, &pool, "baselines.morph", MorphEngine::new);
    harness(&mut t, &s, spec, &pool);

    let (w, r) = (s.write_share, 1.0 - s.write_share);
    let mix = |write: &str, read: &str| w * t.ns(write) + r * t.ns(read);
    // What the engine's op is made of, as far as its layers can be
    // driven from outside: the channel (with the device, Trip and RNG
    // inside it), both caches, the slot lookup where `last_slot` misses,
    // the block store or load, the MAC, and the XTS seal or unseal.
    let shared = t.ns("core.stealth_cache.access")
        + t.ns("core.mac_cache.access")
        + s.page_change_share * t.ns("core.arena.slot_lookup")
        + t.ns("crypto.mac");
    let attributed = shared
        + w * (t.ns("core.channel.update")
            + t.ns("core.arena.block_store")
            + t.ns("crypto.xts.seal"))
        + r * (t.ns("core.channel.read")
            + t.ns("core.arena.block_load")
            + t.ns("crypto.xts.unseal"));
    let engine_op = t.ns("core.engine.op");
    let sharded_batch = mix("core.sharded.batch_write", "core.sharded.batch_read");
    let engine_batch = mix("core.engine.batch_write", "core.engine.batch_read");
    let tally = round.siege;
    let per_step = |total: u64| workloads::ratio(total, tally.steps_detected);
    let values: BTreeMap<&str, f64> = [
        ("crypto.aes.enc_ns_per_block", t.ns("crypto.aes.enc")),
        ("crypto.aes.dec_ns_per_block", t.ns("crypto.aes.dec")),
        ("crypto.aes.enc8_ns_per_block", t.ns("crypto.aes.enc8")),
        ("crypto.xts.seal_ns_per_line", t.ns("crypto.xts.seal")),
        ("crypto.xts.unseal_ns_per_line", t.ns("crypto.xts.unseal")),
        ("crypto.xts.tweak8_ns_per_tweak", t.ns("crypto.xts.tweak8")),
        ("crypto.mac.ns_per_tag", t.ns("crypto.mac")),
        ("crypto.range.ns_per_draw", t.ns("crypto.range")),
        ("core.trip.record_write_ns", t.ns("core.trip.record_write")),
        (
            "core.trip.upgrades_per_kop",
            round.per_kop(round.counts.trip_upgrades),
        ),
        ("core.pagetable.get_ns", t.ns("core.pagetable.get")),
        ("core.pagetable.insert_ns", t.ns("core.pagetable.insert")),
        ("core.device.update_ns", t.ns("core.device.update")),
        ("core.device.read_ns", t.ns("core.device.read")),
        (
            "core.device.read_run_ns_per_op",
            t.ns("core.device.read_run"),
        ),
        (
            "core.device.resets_per_kop",
            round.per_kop(round.counts.stealth_resets),
        ),
        ("core.device.dynamic_bytes", round.usage.dynamic_bytes),
        (
            "core.channel.update_self_ns",
            t.ns("core.channel.update") - t.ns("core.device.update"),
        ),
        (
            "core.channel.read_self_ns",
            t.ns("core.channel.read") - t.ns("core.device.read"),
        ),
        (
            "core.channel.retries_per_kop",
            round.per_kop(round.counts.retries),
        ),
        (
            "core.channel.replays_per_kop",
            round.per_kop(round.counts.replays),
        ),
        (
            "core.channel.backoff_virtual_ns_per_kop",
            round.per_kop(round.counts.backoff_ns),
        ),
        ("core.fault.decide_ns", t.ns("core.fault.decide")),
        (
            "core.stealth_cache.access_ns",
            t.ns("core.stealth_cache.access"),
        ),
        (
            "core.stealth_cache.hit_rate",
            round.counts.stealth_hit_rate(),
        ),
        ("core.mac_cache.access_ns", t.ns("core.mac_cache.access")),
        ("core.mac_cache.hit_rate", round.counts.mac_hit_rate()),
        ("core.arena.slot_lookup_ns", t.ns("core.arena.slot_lookup")),
        ("core.arena.block_store_ns", t.ns("core.arena.block_store")),
        ("core.arena.block_load_ns", t.ns("core.arena.block_load")),
        ("core.engine.write_ns", t.ns("core.engine.write")),
        ("core.engine.read_ns", t.ns("core.engine.read")),
        (
            "core.engine.batch_write_ns_per_op",
            t.ns("core.engine.batch_write"),
        ),
        (
            "core.engine.batch_read_ns_per_op",
            t.ns("core.engine.batch_read"),
        ),
        (
            "core.engine.device_reads_per_kop",
            round.per_kop(round.counts.device_reads),
        ),
        (
            "core.engine.mac_fetches_per_kop",
            round.per_kop(round.counts.mac_fetches),
        ),
        (
            "core.engine.pages_reencrypted_per_kop",
            round.per_kop(round.counts.pages_reencrypted),
        ),
        ("core.engine.op_ns", engine_op),
        ("core.engine.attributed_ns", attributed),
        ("core.engine.residual_ns", engine_op - attributed),
        (
            "core.sharded.single_self_ns",
            t.ns("core.sharded.op") - engine_op,
        ),
        ("core.sharded.batch_ns_per_op", sharded_batch),
        (
            "core.sharded.dispatch_ns_per_batch",
            (sharded_batch - engine_batch) * BATCH_OPS as f64,
        ),
        (
            "core.sharded.scaling_2t",
            t.ns("core.sharded.op") / t.ns("core.sharded.2t"),
        ),
        ("core.sharded.detect_ops", per_step(tally.detect_ops)),
        ("core.recovery.recover_ms", per_step(tally.recover_ns) / 1e6),
        ("core.recovery.pages_scrubbed", tally.pages_scrubbed as f64),
        ("core.recovery.blocks_lost", tally.blocks_lost as f64),
        ("core.recovery.refused_ops", tally.refused_ops as f64),
        ("baselines.sgx_tree.ns_per_op", t.ns("baselines.sgx_tree")),
        ("baselines.sgx_tree.version_fetches_per_kop", sgx_fetches),
        ("baselines.vault.ns_per_op", t.ns("baselines.vault")),
        ("baselines.vault.version_fetches_per_kop", vault_fetches),
        ("baselines.morph.ns_per_op", t.ns("baselines.morph")),
        ("baselines.morph.version_fetches_per_kop", morph_fetches),
        (
            "workloads.gen_ns_per_op",
            round.gen_s * 1e9 / round.attempted as f64,
        ),
        ("harness.clock_ns", t.ns("harness.clock")),
        ("harness.loop_ns_per_op", t.ns("harness.loop")),
        ("harness.trace_overhead_pct", overhead_pct),
        ("harness.refused_ops_per_mop", round.refused_per_mop()),
        ("harness.op_p99_ns", op_p99_ns),
    ]
    .into_iter()
    .collect();
    rec.close(root);
    let ordered = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| LayerMetric {
            name,
            value: *values
                .get(name)
                .expect("every catalogued metric is measured"),
            unit,
        })
        .collect();
    (ordered, round, rec)
}
