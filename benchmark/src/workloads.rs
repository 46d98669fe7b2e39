//! The six workloads: what each one is, how its inputs are made from
//! the seed, and how one round of it is set up, replayed and checked.
//!
//! A round builds a fresh engine, so rounds never share state (Trip
//! formats upgrade as writes desynchronise lines; a second pass over one
//! engine is not the first pass again). Every write payload comes from a
//! seeded pool and every read is compared in full against a shadow of
//! what was last written there: wrong data aborts the benchmark, an
//! `Err` is counted as a failed op (no workload has any: the siege
//! client re-issues what a quarantined shard refused once it has
//! recovered the shard, and those refusals are counted on their own).
//!
//! Every workload is one closed-loop client on the main thread. The
//! host gives this benchmark two virtual CPUs that sometimes share a
//! core and sometimes do not; a second client thread measures which of
//! the two it was, not the engine.

use crate::alloc::PeakWindow;
use crate::memory::MIB;
pub use crate::memory::{
    ratio, Block, Counts, Memory, Siege, SiegeTally, Usage, BLOCK_BYTES, PAGE_BYTES,
};
use crate::reference::{Calibrator, HostSpeed};
use crate::spans::{Recorder, Span, SpanId, CHUNK_CALLS};
use std::time::Instant;
use toleo_core::channel::RetryPolicy;
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_core::fault::FaultPlanConfig;
use toleo_core::sharded::ShardedEngine;
use toleo_workloads::campaign::{shard_of, tamper_schedule, TamperEvent};
use toleo_workloads::pattern::{engine_pattern, EnginePattern};
use toleo_workloads::trace::{Op as TraceOp, Trace};

/// Shards behind every `ShardedEngine` the benchmark builds.
pub const SHARDS: usize = 8;
/// Ops per batch on the batch-dispatch workload.
pub const BATCH_OPS: usize = 256;
/// In the latency pass every `LATENCY_STRIDE`-th op is clocked.
pub const LATENCY_STRIDE: usize = 8;
/// In the latency pass the trusted device's usage is sampled every
/// `CENSUS_OPS` ops.
pub const CENSUS_OPS: usize = 2048;
/// Tamper steps per siege round, each on a different shard.
pub const SIEGE_STEPS: usize = 4;

/// One memory op: a block-aligned address with bit 0 set for a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

impl Op {
    pub fn write(addr: u64) -> Op {
        Op(addr | 1)
    }
    pub fn read(addr: u64) -> Op {
        Op(addr)
    }
    #[inline]
    pub fn is_write(self) -> bool {
        self.0 & 1 == 1
    }
    #[inline]
    pub fn addr(self) -> u64 {
        self.0 & !1
    }
    #[inline]
    pub fn page(self) -> u64 {
        self.0 / PAGE_BYTES
    }
    #[inline]
    pub fn line(self) -> usize {
        ((self.0 % PAGE_BYTES) / BLOCK_BYTES) as usize
    }
}

/// SplitMix64: the benchmark's own seeded generator, for the inputs the
/// workspace's generators do not produce (tenant windows, payloads,
/// keys).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2^-40).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Write payloads: entry 0 is the all-zero block a never-written
/// address reads as, entries 1..=255 are seeded random blocks. A shadow
/// byte per block (the entry last written there) is then enough to
/// compare every read in full.
pub struct Pool(Box<[Block; 256]>);

impl Pool {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x9A71_0AD5);
        let mut blocks = Box::new([[0u8; 64]; 256]);
        for block in blocks.iter_mut().skip(1) {
            for word in block.chunks_exact_mut(8) {
                word.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
        Pool(blocks)
    }
}

/// Which engine a workload runs on, and how its client calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One `ProtectionEngine`.
    Single,
    /// One `ShardedEngine`, single ops.
    Sharded,
    /// One `ShardedEngine`, 256-op batches.
    ShardedBatch,
    /// One `ShardedEngine` under link faults and a tamper campaign.
    Siege,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Alternating full write sweep / read sweep.
    Sweep,
    /// `EnginePattern::Random`: uniform addresses, half of them reads.
    Random,
    /// Uniform addresses, `read_pct`% reads (the workspace's generator
    /// has no knob for the mix).
    Uniform { read_pct: u64 },
    /// `EnginePattern::HotReset`.
    HotReset,
    /// Alternating 256-op write / read batches of uniform addresses.
    Batches,
}

/// One workload: its shape, its size and why it is here.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: Engine,
    pub pattern: Pattern,
    /// Bytes the addresses are confined to, from address 0.
    pub window_bytes: u64,
    /// Whether set-up writes every block of the window once.
    pub populate: bool,
    /// Ops per round at scale 1.
    pub ops_per_round: u64,
    pub reset_log2: u32,
    /// Leading ops of the round the host-speed reference replays per
    /// sample.
    pub ref_ops: usize,
    /// The reference's nominal speed on those ops: what it measures on
    /// this host when the host is quiet. Wall-clock metrics are reported
    /// as if it had measured exactly this around every round.
    pub ref_blocks_per_s: f64,
    pub ref_op_p50_ns: f64,
}

impl Spec {
    pub fn ops_at(&self, scale: f64) -> u64 {
        let ops = (self.ops_per_round as f64 * scale).round() as u64;
        // Whole batches, and enough of them to alternate.
        ops.max(2 * BATCH_OPS as u64) / BATCH_OPS as u64 * BATCH_OPS as u64
    }

    /// Whether the client issues its ops in [`BATCH_OPS`]-op batches.
    pub fn batch(&self) -> bool {
        self.engine == Engine::ShardedBatch
    }
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "stream",
        why: "page-local sweeps over 4 MiB: every cache and last_slot hit, XTS+MAC is most of the op; crypto work shows here, cache/index/dispatch work must not",
        engine: Engine::Single,
        pattern: Pattern::Sweep,
        window_bytes: 4 * MIB,
        populate: false,
        // 21 sweeps, 11 of them writes. An even count would split the
        // clocked ops exactly 50/50 between the write mode (~280 ns) and
        // the read mode (~220 ns) and leave `op_p50_ns` on the gap
        // between them, where it jumps by 15% from run to run.
        ops_per_round: 1_376_256,
        reset_log2: 20,
        ref_ops: 131072,
        ref_blocks_per_s: 8.0e6,
        ref_op_p50_ns: 156.0,
    },
    Spec {
        name: "scatter",
        why: "uniform 50/50 over 64 MiB populated: 64x stealth reach, 256x MAC reach; stealth LRU, arena, page index and device array dominate, crypto is a fifth",
        engine: Engine::Single,
        pattern: Pattern::Random,
        window_bytes: 64 * MIB,
        populate: true,
        ops_per_round: 400_000,
        reset_log2: 20,
        ref_ops: 65536,
        ref_blocks_per_s: 2.7e6,
        ref_op_p50_ns: 465.0,
    },
    Spec {
        name: "churn",
        why: "HotReset, 16 pages, 90% writes to one hot line, reset_log2=6: Trip upgrades, D-RaNGe draws and a re-encryption walk on >1% of ops, which p99 sees and p50 does not",
        engine: Engine::Single,
        pattern: Pattern::HotReset,
        window_bytes: 16 * PAGE_BYTES,
        populate: false,
        ops_per_round: 1_000_000,
        reset_log2: 6,
        ref_ops: 131072,
        ref_blocks_per_s: 8.0e6,
        ref_op_p50_ns: 146.0,
    },
    Spec {
        name: "fanout",
        why: "256-op batches on one 8-shard engine: every batch pays a scoped spawn/join per shard; the only workload where batch dispatch is most of the work",
        engine: Engine::ShardedBatch,
        pattern: Pattern::Batches,
        window_bytes: 4 * MIB,
        populate: true,
        ops_per_round: 256_512,
        reset_log2: 20,
        ref_ops: 16384,
        ref_blocks_per_s: 6.0e5,
        ref_op_p50_ns: 380e3,
    },
    Spec {
        name: "tenants",
        why: "single ops, 70% reads, through one 8-shard engine: shard mutex, quarantine atomics and the shared ops counter; catches a batch fix that taxes single ops",
        engine: Engine::Sharded,
        pattern: Pattern::Uniform { read_pct: 70 },
        window_bytes: 4 * MIB,
        populate: true,
        ops_per_round: 400_000,
        reset_log2: 20,
        ref_ops: 65536,
        ref_blocks_per_s: 3.7e6,
        ref_op_p50_ns: 295.0,
    },
    Spec {
        name: "siege",
        why: "8 shards, 1e-2 link faults, 4 tamper steps with inline recovery and re-issue: the only workload where retry/replay, quarantine and scrub+re-key run; refusals are exact",
        engine: Engine::Siege,
        pattern: Pattern::Random,
        window_bytes: 16 * MIB,
        populate: true,
        ops_per_round: 400_000,
        reset_log2: 20,
        ref_ops: 65536,
        ref_blocks_per_s: 3.35e6,
        ref_op_p50_ns: 350.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Inputs {
    pub ops: Vec<Op>,
    /// Siege only: tamper steps, each on a different shard.
    pub campaign: Vec<TamperEvent>,
}

fn pack(trace: &Trace) -> Vec<Op> {
    trace
        .ops
        .iter()
        .filter_map(|op| match *op {
            TraceOp::Write(a) => Some(Op::write(a)),
            TraceOp::Read(a) => Some(Op::read(a)),
            TraceOp::Compute(_) => None,
        })
        .collect()
}

/// The first [`SIEGE_STEPS`] scheduled tampers that land on pairwise
/// different shards (a second quarantine of one shard would spend its
/// recovery budget, which is a different experiment).
fn siege_campaign(trace: &Trace, seed: u64) -> Vec<TamperEvent> {
    let mut shards_hit = [false; SHARDS];
    let steps: Vec<TamperEvent> = tamper_schedule(trace, SIEGE_STEPS * 4, seed ^ 0xFA17)
        .into_iter()
        .filter(|ev| !std::mem::replace(&mut shards_hit[shard_of(ev.addr, SHARDS)], true))
        .take(SIEGE_STEPS)
        .collect();
    assert_eq!(
        steps.len(),
        SIEGE_STEPS,
        "siege: schedule too short for the campaign"
    );
    steps
}

/// Makes a round's inputs from the seed: the same seed gives the same
/// ops, in the same order, for every round and every run.
pub fn generate(spec: &Spec, seed: u64, scale: f64) -> Inputs {
    let count = spec.ops_at(scale);
    let input_seed = seed.wrapping_mul(0x9E37_79B9);
    let blocks = spec.window_bytes / BLOCK_BYTES;
    let pattern = |p| pack(&engine_pattern(p, count, spec.window_bytes, input_seed));
    let mut campaign = Vec::new();
    let ops = match spec.pattern {
        Pattern::Sweep => pattern(EnginePattern::Sequential),
        Pattern::HotReset => pattern(EnginePattern::HotReset),
        Pattern::Random => {
            let trace = engine_pattern(EnginePattern::Random, count, spec.window_bytes, input_seed);
            if spec.engine == Engine::Siege {
                campaign = siege_campaign(&trace, seed);
            }
            pack(&trace)
        }
        Pattern::Uniform { read_pct } => {
            let mut rng = Rng::new(input_seed);
            (0..count)
                .map(|_| {
                    let addr = rng.below(blocks) * BLOCK_BYTES;
                    if rng.below(100) < read_pct {
                        Op::read(addr)
                    } else {
                        Op::write(addr)
                    }
                })
                .collect()
        }
        Pattern::Batches => {
            let mut rng = Rng::new(input_seed);
            (0..count)
                .map(|i| {
                    let addr = rng.below(blocks) * BLOCK_BYTES;
                    if (i / BATCH_OPS as u64).is_multiple_of(2) {
                        Op::write(addr)
                    } else {
                        Op::read(addr)
                    }
                })
                .collect()
        }
    };
    Inputs { ops, campaign }
}

/// Common engine configuration: 1 GiB protected, 64 MiB device, paper
/// default caches; the device RNG stream follows the seed.
pub fn config(spec: &Spec, seed: u64) -> ToleoConfig {
    ToleoConfig {
        device_capacity_bytes: 64 * MIB,
        protected_bytes: 1 << 30,
        reset_log2: spec.reset_log2,
        rng_seed: seed ^ 0xF01E0,
        ..ToleoConfig::default()
    }
}

pub fn key_material(seed: u64) -> [u8; 48] {
    let mut rng = Rng::new(seed ^ 0x4B45_5953);
    let mut key = [0u8; 48];
    for word in key.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

/// The siege link: every device op faulted with probability 1e-2,
/// split evenly over timeout / busy / dropped / duplicated.
pub fn siege_faults(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig::uniform(seed ^ 0x51E6E, 1e-2)
}

// Every engine is built with an explicit fault plan, so a
// `TOLEO_FAULT_PLAN` in the environment cannot leak in.
pub fn new_single(spec: &Spec, seed: u64) -> ProtectionEngine {
    ProtectionEngine::try_new_with_robustness(
        config(spec, seed),
        key_material(seed),
        None,
        RetryPolicy::default(),
    )
    .expect("benchmark config is valid")
}

pub fn new_sharded(spec: &Spec, seed: u64, faults: Option<FaultPlanConfig>) -> ShardedEngine {
    ShardedEngine::new_with_robustness(
        config(spec, seed),
        SHARDS,
        key_material(seed),
        faults,
        RetryPolicy::default(),
    )
    .expect("benchmark config is valid")
}

/// One closed-loop client: issues its ops one after another, keeps the
/// shadow of what it wrote, and checks every read against it.
pub struct Client<'a> {
    pool: &'a Pool,
    /// Pool entry last written per block of the window; 0 = never.
    shadow: Vec<u8>,
    /// Writes issued so far; picks the next payload.
    writes: u64,
    pub attempted: u64,
    pub failed: u64,
    // Batch scratch, kept across batches so the loop does not allocate.
    write_buf: Vec<(u64, Block)>,
    read_buf: Vec<u64>,
}

impl<'a> Client<'a> {
    pub fn new(pool: &'a Pool, window_bytes: u64) -> Self {
        Client {
            pool,
            shadow: vec![0u8; (window_bytes / BLOCK_BYTES) as usize],
            writes: 0,
            attempted: 0,
            failed: 0,
            write_buf: Vec::with_capacity(BATCH_OPS),
            read_buf: Vec::with_capacity(BATCH_OPS),
        }
    }

    #[inline]
    fn slot(addr: u64) -> usize {
        (addr / BLOCK_BYTES) as usize
    }

    #[inline]
    fn next_payload(&mut self) -> u8 {
        let entry = (self.writes % 255) as u8 + 1;
        self.writes += 1;
        entry
    }

    #[inline]
    fn check(&self, addr: u64, got: &Block) {
        let want = &self.pool.0[self.shadow[Self::slot(addr)] as usize];
        if got != want {
            wrong_data(addr, got, want);
        }
    }

    /// Issues one op.
    #[inline]
    pub fn issue<M: Memory>(&mut self, mem: &mut M, op: Op) {
        self.attempted += 1;
        let addr = op.addr();
        if op.is_write() {
            let entry = self.next_payload();
            match mem.write(addr, &self.pool.0[entry as usize]) {
                Ok(()) => {
                    self.shadow[Self::slot(addr)] = entry;
                }
                Err(_) => self.failed += 1,
            }
        } else {
            match mem.read(addr) {
                Ok(block) => self.check(addr, &block),
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Issues one homogeneous batch. A refused batch counts every op in
    /// it as failed (how far it got is the engine's business).
    pub fn issue_batch<M: Memory>(&mut self, mem: &mut M, ops: &[Op]) {
        self.attempted += ops.len() as u64;
        if ops[0].is_write() {
            self.write_buf.clear();
            for op in ops {
                let entry = self.next_payload();
                self.write_buf
                    .push((op.addr(), self.pool.0[entry as usize]));
            }
            match mem.write_batch(&self.write_buf) {
                Ok(()) => {
                    // Replay the payload sequence so a repeated address
                    // keeps its last write, as the engine does.
                    let first = self.writes - ops.len() as u64;
                    for (i, op) in ops.iter().enumerate() {
                        self.shadow[Self::slot(op.addr())] = ((first + i as u64) % 255) as u8 + 1;
                    }
                }
                Err(_) => self.failed += ops.len() as u64,
            }
        } else {
            self.read_buf.clear();
            self.read_buf.extend(ops.iter().map(|op| op.addr()));
            match mem.read_batch(&self.read_buf) {
                Ok(blocks) => {
                    assert_eq!(blocks.len(), ops.len(), "read_batch lost blocks");
                    for (op, block) in ops.iter().zip(&blocks) {
                        self.check(op.addr(), block);
                    }
                }
                Err(_) => self.failed += ops.len() as u64,
            }
        }
    }

    /// Writes every block of the window once (set-up).
    pub fn populate<M: Memory>(&mut self, mem: &mut M) {
        for slot in 0..self.shadow.len() as u64 {
            self.issue(mem, Op::write(slot * BLOCK_BYTES));
        }
        assert_eq!(self.failed, 0, "populate must not fail");
        self.attempted = 0;
    }

    /// Blocks this client has written at least once.
    pub fn resident_blocks(&self) -> u64 {
        self.shadow.iter().filter(|&&e| e != 0).count() as u64
    }
}

/// A read returned something other than what was last written there:
/// the one thing the system must never do. Not a failed op — the
/// benchmark stops.
#[cold]
fn wrong_data(addr: u64, got: &Block, want: &Block) -> ! {
    panic!("WRONG DATA at {addr:#x}: read {got:02x?}, last written {want:02x?}");
}

/// How a replay is observed.
pub enum Mode<'a> {
    /// End-to-end timing: nothing but the ops inside the timed region.
    Timed,
    /// Every [`LATENCY_STRIDE`]-th op (every batch) clocked; device
    /// usage sampled every [`CENSUS_OPS`] ops.
    Latency {
        latencies: &'a mut Vec<u32>,
        usage: &'a mut Vec<Usage>,
    },
    /// One span per [`CHUNK_CALLS`] ops.
    Traced {
        epoch: Instant,
        parent: SpanId,
        name: &'static str,
        spans: &'a mut Vec<Span>,
    },
}

fn replay<M: Memory, const CLOCKED: bool>(
    mem: &mut M,
    client: &mut Client<'_>,
    ops: &[Op],
    batch: bool,
    latencies: &mut Vec<u32>,
) {
    let clock = |latencies: &mut Vec<u32>, t: Instant| {
        latencies.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
    };
    if batch {
        for ops in ops.chunks(BATCH_OPS) {
            if CLOCKED {
                let t = Instant::now();
                client.issue_batch(mem, ops);
                clock(latencies, t);
            } else {
                client.issue_batch(mem, ops);
            }
        }
    } else {
        for (i, &op) in ops.iter().enumerate() {
            if CLOCKED && i % LATENCY_STRIDE == LATENCY_STRIDE - 1 {
                let t = Instant::now();
                client.issue(mem, op);
                clock(latencies, t);
            } else {
                client.issue(mem, op);
            }
        }
    }
}

/// Replays one client's ops through `mem`, observed as `mode` says.
pub fn drive<M: Memory>(
    mem: &mut M,
    client: &mut Client<'_>,
    ops: &[Op],
    batch: bool,
    mode: Mode<'_>,
) {
    match mode {
        Mode::Timed => replay::<M, false>(mem, client, ops, batch, &mut Vec::new()),
        Mode::Latency { latencies, usage } => {
            for chunk in ops.chunks(CENSUS_OPS) {
                replay::<M, true>(mem, client, chunk, batch, latencies);
                usage.extend(mem.usage());
            }
        }
        Mode::Traced {
            epoch,
            parent,
            name,
            spans,
        } => {
            let mut unused = Vec::new();
            for chunk in ops.chunks(CHUNK_CALLS) {
                let start_ns = epoch.elapsed().as_nanos() as u64;
                replay::<M, false>(mem, client, chunk, batch, &mut unused);
                let end_ns = epoch.elapsed().as_nanos() as u64;
                spans.push(Span {
                    name,
                    parent: Some(parent),
                    start_ns,
                    end_ns,
                    calls: chunk.len() as u64,
                });
            }
        }
    }
}

/// How a round is observed (the client's [`Mode`] is made from it).
pub enum Pass<'a> {
    Timed,
    Latency,
    Traced {
        recorder: &'a mut Recorder,
        parent: SpanId,
    },
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Input generation + engine construction + populate.
    pub setup_s: f64,
    /// Input generation alone (part of `setup_s`).
    pub gen_s: f64,
    /// Wall time of the replay.
    pub replay_s: f64,
    /// What the reference memory measured around the replay (default
    /// when the round was not calibrated).
    pub host: HostSpeed,
    pub attempted: u64,
    pub failed: u64,
    /// Counter growth over the replay (set-up excluded).
    pub counts: Counts,
    /// Device usage: mean of the census samples plus the end-of-round
    /// reading (latency pass), or the end-of-round reading alone.
    pub usage: Usage,
    /// Peak live heap above the level before the engine was built.
    pub heap_peak_bytes: u64,
    pub resident_blocks: u64,
    /// Clocked op (or batch) latencies; latency pass only.
    pub latencies: Vec<u32>,
    pub siege: SiegeTally,
}

impl Round {
    pub fn blocks_per_s(&self) -> f64 {
        self.attempted as f64 / self.replay_s
    }
    /// Ops refused at their first attempt or never served.
    fn turned_away(&self) -> u64 {
        self.siege.refused_ops + self.failed
    }
    pub fn refused_per_mop(&self) -> f64 {
        ratio(self.turned_away() * 1_000_000, self.attempted)
    }
    /// Ops served at their first attempt.
    pub fn served_per_mop(&self) -> f64 {
        ratio(
            (self.attempted - self.turned_away()) * 1_000_000,
            self.attempted,
        )
    }
    pub fn per_kop(&self, count: u64) -> f64 {
        ratio(count * 1_000, self.attempted)
    }
    pub fn heap_peak_per_block(&self) -> f64 {
        ratio(self.heap_peak_bytes, self.resident_blocks)
    }
}

/// Runs one round of `spec`: inputs from the seed, a fresh engine,
/// populate, then the replay observed as `pass` says, with the
/// host-speed reference sampled on either side of it if `cal` is given.
pub fn run_round(
    spec: &Spec,
    seed: u64,
    scale: f64,
    pass: Pass<'_>,
    cal: Option<&mut Calibrator<'_>>,
) -> Round {
    let t0 = Instant::now();
    let inputs = generate(spec, seed, scale);
    let gen_s = t0.elapsed().as_secs_f64();
    let pool = Pool::new(seed);
    let mut client = Client::new(&pool, spec.window_bytes);
    // Everything allocated from here to the end of the replay is the
    // engine's (the latency and span buffers are reserved up front by
    // their owners and are small beside it).
    let heap = PeakWindow::open();
    let mut round = match spec.engine {
        Engine::Single => {
            let mut engine = new_single(spec, seed);
            populate(spec, &mut engine, &mut client);
            replay_round(spec, &mut engine, &inputs.ops, &mut client, t0, pass, cal)
        }
        Engine::Sharded | Engine::ShardedBatch => {
            let mut engine = new_sharded(spec, seed, None);
            populate(spec, &mut engine, &mut client);
            replay_round(spec, &mut engine, &inputs.ops, &mut client, t0, pass, cal)
        }
        Engine::Siege => {
            // Populated before the campaign wraps it: set-up writes are
            // not victim traffic.
            let mut engine = new_sharded(spec, seed, Some(siege_faults(seed)));
            populate(spec, &mut engine, &mut client);
            let mut siege = Siege::new(engine, inputs.campaign.clone());
            let mut round = replay_round(spec, &mut siege, &inputs.ops, &mut client, t0, pass, cal);
            let steps = SIEGE_STEPS as u64;
            assert_eq!(
                (siege.tally.steps_detected, siege.tally.recoveries),
                (steps, steps),
                "siege: every campaign step must be detected and its shard re-admitted"
            );
            round.siege = siege.tally;
            round
        }
    };
    round.heap_peak_bytes = heap.peak_delta() as u64;
    round.gen_s = gen_s;
    round.attempted = client.attempted;
    round.failed = client.failed;
    round.resident_blocks = client.resident_blocks();
    round
}

fn populate<M: Memory>(spec: &Spec, mem: &mut M, client: &mut Client<'_>) {
    if spec.populate {
        client.populate(mem);
    }
}

/// Replays `ops` through a memory that has been set up since `t0`.
fn replay_round<M: Memory>(
    spec: &Spec,
    mem: &mut M,
    ops: &[Op],
    client: &mut Client<'_>,
    t0: Instant,
    pass: Pass<'_>,
    mut cal: Option<&mut Calibrator<'_>>,
) -> Round {
    let mut round = Round {
        setup_s: t0.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let clocked = matches!(pass, Pass::Latency);
    let batch = spec.batch();
    let before = mem.counts();
    let mut usage = Vec::new();
    let host_before = cal.as_mut().map(|c| c.sample(clocked));
    let t = Instant::now();
    match pass {
        Pass::Timed => drive(mem, client, ops, batch, Mode::Timed),
        Pass::Latency => {
            round.latencies.reserve(ops.len() / LATENCY_STRIDE + 1);
            usage.reserve(ops.len() / CENSUS_OPS + 2);
            let mode = Mode::Latency {
                latencies: &mut round.latencies,
                usage: &mut usage,
            };
            drive(mem, client, ops, batch, mode);
        }
        Pass::Traced { recorder, parent } => {
            let mut spans = Vec::with_capacity(ops.len() / CHUNK_CALLS + 1);
            let mode = Mode::Traced {
                epoch: recorder.epoch(),
                parent,
                name: "workload",
                spans: &mut spans,
            };
            drive(mem, client, ops, batch, mode);
            recorder.extend(spans);
        }
    }
    round.replay_s = t.elapsed().as_secs_f64();
    if let (Some(before), Some(cal)) = (host_before, cal) {
        round.host = before.mean_with(cal.sample(clocked));
    }
    round.counts = mem.counts().since(before);
    usage.extend(mem.usage());
    round.usage = Usage::mean(&usage);
    round
}
