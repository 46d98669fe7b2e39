//! Node- and rack-level simulation: cores driving traces through the cache
//! hierarchy into the protected memory system.
//!
//! The timing model is event-ordered with shared-resource queueing (banks,
//! channel buses, CXL links) and an MLP overlap factor on read stalls — the
//! same altitude as the paper's Sniper "interval" model. Four protection
//! configurations route each LLC miss differently:
//!
//! * **NoProtect** — data access only.
//! * **C** — + AES-XTS decrypt after the data arrives.
//! * **CI** — + MAC fetch (on MAC-cache miss) in parallel with data, MAC
//!   check overlapped with decryption.
//! * **Toleo** — + stealth-version fetch over the CXL IDE link on a
//!   stealth-cache miss, in parallel with the data+MAC path.
//! * **InvisiMem** — all memory in smart packages: double encryption,
//!   size-padded packets, and constant-rate dummy traffic.
//!
//! Under Toleo the protocol itself is not modelled here: each miss and
//! each writeback runs `toleo-core`'s walk
//! (`StealthCache::{read, update}`, the one `ProtectionEngine` executes)
//! against the rack's device behind a fault-free `DeviceChannel`, and
//! `Node` prices what it returns — link bytes and latency on a stealth
//! miss, re-encryption bytes on a stealth reset. A device error is a
//! broken simulator invariant and panics with the address.

// audit: allow-file(panic, simulator invariants: a panic aborts the offline run with a trace, no production path)

use crate::cache::{Hierarchy, HitLevel};
use crate::config::{Protection, SimConfig};
use crate::dram::Dram;
use crate::link::Link;
use toleo_core::cache::{MacCache, StealthCache};
use toleo_core::channel::{DeviceChannel, RetryPolicy};
use toleo_core::config::ToleoConfig;
use toleo_core::device::{DeviceUsage, ToleoDevice};
use toleo_core::layout;
use toleo_core::trip::TripFormat;
use toleo_workloads::trace::{Op, Trace};

/// Effective bus-occupancy multiplier for InvisiMem: reads and writes use
/// same-size packets (~80 B each way vs one 64 B burst) and the channel
/// carries constant-rate dummy packets to hide timing (paper §7.1 reports
/// 2.1x read latency from this bandwidth pressure).
const INVISIMEM_BUS_PRESSURE: f64 = 8.0;

/// Fixed per-access packetization + secure-channel processing latency for
/// InvisiMem (packet assembly, header crypto at both endpoints).
const INVISIMEM_PACKET_NS: f64 = 25.0;

/// Address bits of one node's private window: node `i` of a [`Rack`] owns
/// `[i << NODE_WINDOW_BITS, (i + 1) << NODE_WINDOW_BITS)`, 4 GiB, and the
/// device protects every node's window.
const NODE_WINDOW_BITS: u32 = 32;

/// Where the MAC block covering `addr` lives: a region no data address
/// reaches, on the same memory node as the data.
fn mac_block_addr(addr: u64) -> u64 {
    0x4000_0000_0000 | (layout::mac_block_index(addr) * 64)
}

/// Bytes of one Trip entry on the Toleo link: a 12 B flat entry padded to
/// a 16 B flit, or a 56 B dynamic block.
fn stealth_entry_bytes(fmt: TripFormat) -> u64 {
    match fmt {
        TripFormat::Flat => 16,
        _ => 56,
    }
}

/// Per-run results: everything the figures need.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Workload name.
    pub name: String,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated time, ns.
    pub ns: f64,
    /// Core cycles (ns * freq).
    pub cycles: f64,
    /// LLC misses (reads + write allocations).
    pub llc_misses: u64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Data bytes moved to/from memory.
    pub bytes_data: u64,
    /// MAC (+ co-located UV) bytes.
    pub bytes_mac: u64,
    /// Stealth-version bytes on the Toleo link.
    pub bytes_stealth: u64,
    /// Dummy/padding bytes (InvisiMem).
    pub bytes_dummy: u64,
    /// LLC read misses (latency sample count).
    pub read_misses: u64,
    /// Mean raw memory latency per read miss, ns.
    pub avg_dram_ns: f64,
    /// Mean decrypt addition, ns.
    pub avg_aes_ns: f64,
    /// Mean integrity addition, ns.
    pub avg_mac_ns: f64,
    /// Mean freshness addition, ns.
    pub avg_fresh_ns: f64,
    /// Stealth-cache hit rate (0 if not applicable).
    pub stealth_hit_rate: f64,
    /// MAC-cache hit rate (0 if not applicable).
    pub mac_hit_rate: f64,
    /// Trip-format page counts at end of run (flat, uneven, full). In a
    /// [`Rack`] they describe the whole shared device, not this node's part.
    pub trip_pages: (u64, u64, u64),
    /// Peak Toleo usage snapshot. In a [`Rack`] it describes the whole
    /// shared device, sampled at this node's instruction counts.
    pub peak_toleo: DeviceUsage,
    /// Usage samples over time: (instructions, usage).
    pub usage_timeline: Vec<(u64, DeviceUsage)>,
    /// Working-set size reported by the trace.
    pub rss_bytes: u64,
}

/// Typed failure of an overhead computation over degenerate runs.
///
/// `toleo.cycles / base.cycles - 1.0` silently produces NaN (0/0 on two
/// empty traces) or ±inf (zero-cycle baseline) — values that propagate
/// into averages and tables as garbage instead of failing loudly. The
/// fig/table binaries and the docs go through
/// [`RunStats::overhead_vs`], which reports these cases as errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverheadError {
    /// The baseline run has zero or non-finite cycles (empty trace, or a
    /// run that never executed) — the ratio is undefined.
    DegenerateBaseline {
        /// The baseline's cycle count.
        cycles: f64,
    },
    /// The protected run's cycle count is non-finite.
    DegenerateRun {
        /// The protected run's cycle count.
        cycles: f64,
    },
}

impl std::fmt::Display for OverheadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverheadError::DegenerateBaseline { cycles } => write!(
                f,
                "baseline run has {cycles} cycles: overhead undefined (empty trace?)"
            ),
            OverheadError::DegenerateRun { cycles } => {
                write!(f, "protected run has non-finite cycles ({cycles})")
            }
        }
    }
}

impl std::error::Error for OverheadError {}

impl RunStats {
    /// Average read latency over all components, ns.
    pub fn avg_read_latency_ns(&self) -> f64 {
        self.avg_dram_ns + self.avg_aes_ns + self.avg_mac_ns + self.avg_fresh_ns
    }

    /// Execution-time overhead of this run relative to `base`:
    /// `self.cycles / base.cycles - 1.0`, guarded against the
    /// zero-cycle/empty-trace runs that would silently produce NaN or
    /// ±inf.
    ///
    /// # Errors
    ///
    /// [`OverheadError::DegenerateBaseline`] if `base` has zero or
    /// non-finite cycles; [`OverheadError::DegenerateRun`] if this run's
    /// cycles are non-finite.
    pub fn overhead_vs(&self, base: &RunStats) -> Result<f64, OverheadError> {
        if !base.cycles.is_finite() || base.cycles <= 0.0 {
            return Err(OverheadError::DegenerateBaseline {
                cycles: base.cycles,
            });
        }
        if !self.cycles.is_finite() {
            return Err(OverheadError::DegenerateRun {
                cycles: self.cycles,
            });
        }
        Ok(self.cycles / base.cycles - 1.0)
    }

    /// Total metadata + data bytes per instruction (Fig. 8 metric).
    pub fn bytes_per_instruction(&self) -> f64 {
        (self.bytes_data + self.bytes_mac + self.bytes_stealth + self.bytes_dummy) as f64
            / self.instructions.max(1) as f64
    }

    /// Peak Toleo usage in GB per TB of protected data (Fig. 11 metric).
    ///
    /// Following the paper's accounting, the statically mapped flat-entry
    /// array is charged for *every* RSS page (12 B / 4 KB), while uneven
    /// and full side entries are charged as dynamically allocated.
    pub fn toleo_gb_per_tb(&self) -> f64 {
        let static_flat = self.rss_bytes / 4096 * 12;
        (static_flat + self.peak_toleo.dynamic_bytes) as f64 / self.rss_bytes.max(1) as f64 * 1000.0
    }
}

/// Resources shared across the rack: the CXL pool DRAM and the single
/// Toleo device.
#[derive(Debug)]
pub struct SharedMemory {
    /// The disaggregated memory pool's DRAM.
    pub pool: Dram,
    /// The rack's one Toleo device, behind a fault-free channel (None
    /// outside the Toleo configuration).
    pub device: Option<DeviceChannel>,
}

impl SharedMemory {
    /// Builds the resources `nodes` nodes of config `cfg` share. The device
    /// protects one 4 GiB window per node, enough for any scaled workload.
    pub fn new(cfg: &SimConfig, nodes: usize) -> Self {
        let device = (cfg.protection == Protection::Toleo).then(|| {
            let mut tcfg = ToleoConfig::small();
            tcfg.protected_bytes = (nodes as u64) << NODE_WINDOW_BITS;
            tcfg.device_capacity_bytes = tcfg.flat_array_bytes() + (64 << 20);
            let dev = ToleoDevice::new(tcfg).expect("valid ToleoConfig");
            DeviceChannel::new(dev, None, RetryPolicy::default())
        });
        let mut pool = Dram::new(cfg.pool_dram);
        if cfg.protection == Protection::InvisiMem {
            pool.service_multiplier = INVISIMEM_BUS_PRESSURE;
        }
        SharedMemory { pool, device }
    }
}

/// Read-latency breakdown of one LLC read miss.
#[derive(Debug, Clone, Copy, Default)]
struct ReadBreakdown {
    dram: f64,
    aes: f64,
    mac: f64,
    fresh: f64,
}

/// A compute node running one trace.
#[derive(Debug)]
pub struct Node {
    cfg: SimConfig,
    hier: Hierarchy,
    local: Dram,
    pool_link: Link,
    toleo_link: Link,
    stealth_cache: StealthCache,
    mac_cache: MacCache,
    now_ns: f64,
    instructions: u64,
    stats: RunStats,
    sum_bd: ReadBreakdown,
    mlp: f64,
    sample_every: u64,
    next_sample: u64,
}

impl Node {
    /// Creates a node for `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let mut local = Dram::new(cfg.dram);
        if cfg.protection == Protection::InvisiMem {
            local.service_multiplier = INVISIMEM_BUS_PRESSURE;
        }
        Node {
            hier: Hierarchy::new(&cfg),
            local,
            pool_link: Link::new(cfg.pool_link),
            toleo_link: Link::new(cfg.toleo_link),
            stealth_cache: StealthCache::paper_default(),
            mac_cache: MacCache::new(cfg.mac_cache_kib),
            now_ns: 0.0,
            instructions: 0,
            stats: RunStats::default(),
            sum_bd: ReadBreakdown::default(),
            mlp: 4.0,
            sample_every: 50_000,
            next_sample: 0,
            cfg,
        }
    }

    fn is_remote(&self, addr: u64) -> bool {
        // Static page-granular hash mapping, bandwidth-proportional.
        let page = addr / 4096;
        let h = page.wrapping_mul(0x9e3779b97f4a7c15) >> 40;
        (h as f64 / (1u64 << 24) as f64) < self.cfg.remote_page_fraction
    }

    /// Raw (unprotected) memory access; returns completion time.
    fn memory_access(
        &mut self,
        shared: &mut SharedMemory,
        now: f64,
        addr: u64,
        is_read: bool,
    ) -> f64 {
        let padded = self.cfg.protection == Protection::InvisiMem;
        if self.is_remote(addr) {
            // Request out, pool DRAM access, response back.
            let (req, resp) = if padded { (80, 80) } else { (16, 64) };
            let arrive = self.pool_link.transfer(now, req);
            let served = shared.pool.access(arrive, addr, is_read);
            let done = self.pool_link.transfer(served, resp);
            self.stats.bytes_data += 64;
            if padded {
                self.stats.bytes_dummy += (req + resp) - 64 + 16;
            }
            done
        } else {
            let done = self.local.access(now, addr, is_read);
            self.stats.bytes_data += 64;
            if padded {
                // Same-size packets + header overhead on the local smart
                // memory channel.
                self.stats.bytes_dummy += 96;
            }
            done
        }
    }

    /// A protected read (LLC read miss). Returns completion time and the
    /// latency breakdown.
    fn protected_read(&mut self, shared: &mut SharedMemory, addr: u64) -> (f64, ReadBreakdown) {
        let now = self.now_ns;
        let aes_ns = self.cfg.cycles_to_ns(self.cfg.aes_cycles);
        let mut bd = ReadBreakdown::default();
        let data_ready = self.memory_access(shared, now, addr, true);
        bd.dram = data_ready - now;
        let mut done = data_ready;
        match self.cfg.protection {
            Protection::NoProtect => {}
            Protection::C => {
                done += aes_ns;
                bd.aes = aes_ns;
            }
            Protection::Ci | Protection::Toleo => {
                // MAC fetch in parallel with data; check overlaps decrypt.
                let mac_ready = if self.mac_cache.access(addr) {
                    now
                } else {
                    self.stats.bytes_mac += 64;
                    self.memory_access_meta(shared, now, mac_block_addr(addr))
                };
                let with_mac = data_ready.max(mac_ready) + aes_ns;
                bd.aes = aes_ns;
                bd.mac = with_mac - (data_ready + aes_ns);
                done = with_mac;
                if self.cfg.protection == Protection::Toleo {
                    let dev = shared.device.as_mut().expect("toleo device");
                    let (_, fmt, hit) = self
                        .stealth_cache
                        .read(dev, layout::page_of(addr), layout::line_of(addr))
                        .unwrap_or_else(|e| panic!("device READ at {addr:#x}: {e}"));
                    let fresh_ready = if hit {
                        now
                    } else {
                        let resp = stealth_entry_bytes(fmt);
                        self.stats.bytes_stealth += resp + 16;
                        let req_arrive = self.toleo_link.transfer(now, 16);
                        let served = req_arrive + self.cfg.toleo_dram_ns;
                        self.toleo_link.transfer(served, resp)
                    };
                    let with_fresh = done.max(fresh_ready);
                    bd.fresh = with_fresh - done;
                    done = with_fresh;
                }
            }
            Protection::InvisiMem => {
                // Double encryption plus packetization at both endpoints.
                done += 2.0 * aes_ns + INVISIMEM_PACKET_NS;
                bd.aes = 2.0 * aes_ns + INVISIMEM_PACKET_NS;
            }
        }
        (done, bd)
    }

    /// Metadata access (MAC block) to the same memory node as the data.
    fn memory_access_meta(&mut self, shared: &mut SharedMemory, now: f64, addr: u64) -> f64 {
        if self.is_remote(addr) {
            let arrive = self.pool_link.transfer(now, 16);
            let served = shared.pool.access(arrive, addr, true);
            self.pool_link.transfer(served, 64)
        } else {
            self.local.access(now, addr, true)
        }
    }

    /// A protected writeback (dirty LLC eviction). Pure bandwidth: the core
    /// does not stall on it.
    fn protected_write(&mut self, shared: &mut SharedMemory, addr: u64) {
        let now = self.now_ns;
        let _ = self.memory_access(shared, now, addr, false);
        match self.cfg.protection {
            Protection::NoProtect | Protection::C | Protection::InvisiMem => {}
            Protection::Ci | Protection::Toleo => {
                if !self.mac_cache.access(addr) {
                    self.stats.bytes_mac += 64;
                    let _ = self.memory_access_meta(shared, now, mac_block_addr(addr));
                }
                if self.cfg.protection == Protection::Toleo {
                    let dev = shared.device.as_mut().expect("toleo device");
                    let (resp, hit) = self
                        .stealth_cache
                        .update(dev, layout::page_of(addr), layout::line_of(addr))
                        .unwrap_or_else(|e| panic!("device UPDATE at {addr:#x}: {e}"));
                    // The stealth caches are inclusive *writeback* caches:
                    // on a hit the cached Trip entry is updated in place and
                    // no link traffic occurs; a miss fetches the entry (and
                    // eventually writes back a dirty victim). This is what
                    // lets one 12 B flat entry amortize 64 block writes and
                    // keeps the x2 IDE link almost idle (Fig. 8).
                    if !hit {
                        let entry = stealth_entry_bytes(resp.format);
                        // Fetch + dirty-victim writeback.
                        self.stats.bytes_stealth += 16 + entry + entry;
                        let arrive = self.toleo_link.transfer(now, 16);
                        let _ = self
                            .toleo_link
                            .transfer(arrive + self.cfg.toleo_dram_ns, 2 * entry);
                    }
                    if resp.uv_update() {
                        // UV_UPDATE + page re-encryption: read and re-write
                        // all 64 blocks, notify over CXL.
                        self.stats.bytes_data += 2 * 4096;
                        self.stats.bytes_stealth += 32;
                    }
                }
            }
        }
    }

    /// Executes one trace operation.
    fn exec_op(&mut self, shared: &mut SharedMemory, op: &Op) {
        match op {
            Op::Compute(n) => {
                self.instructions += *n as u64;
                self.now_ns += *n as f64 / (self.cfg.dispatch_width as f64 * self.cfg.freq_ghz);
            }
            Op::Read(addr) | Op::Write(addr) => {
                let is_write = matches!(op, Op::Write(_));
                self.instructions += 1;
                self.now_ns += 1.0 / (self.cfg.dispatch_width as f64 * self.cfg.freq_ghz);
                let res = self.hier.access(*addr, is_write);
                for wb in &res.llc_writebacks {
                    self.protected_write(shared, *wb);
                }
                match res.level {
                    HitLevel::L1 => {}
                    HitLevel::L2 => {
                        self.now_ns += self.cfg.cycles_to_ns(self.cfg.l2.latency_cycles) / self.mlp;
                    }
                    HitLevel::L3 => {
                        self.now_ns += self.cfg.cycles_to_ns(self.cfg.l3.latency_cycles) / self.mlp;
                    }
                    HitLevel::Memory => {
                        if is_write {
                            // Write-allocate fetch: mostly hidden by the
                            // store buffer; charge bandwidth + 1/4 latency.
                            let (done, _) = self.protected_read(shared, *addr);
                            self.now_ns += (done - self.now_ns).max(0.0) / (self.mlp * 4.0);
                        } else {
                            let (done, bd) = self.protected_read(shared, *addr);
                            self.stats.read_misses += 1;
                            self.sum_bd.dram += bd.dram;
                            self.sum_bd.aes += bd.aes;
                            self.sum_bd.mac += bd.mac;
                            self.sum_bd.fresh += bd.fresh;
                            self.now_ns += (done - self.now_ns).max(0.0) / self.mlp;
                        }
                    }
                }
            }
        }
        if self.instructions >= self.next_sample {
            self.next_sample += self.sample_every;
            if let Some(dev) = shared.device.as_ref() {
                self.stats
                    .usage_timeline
                    .push((self.instructions, dev.device().usage()));
            }
        }
    }

    fn finalize(&mut self, shared: &mut SharedMemory, trace: &Trace) -> RunStats {
        // Flush dirty lines so all writes reach the version system.
        for wb in self.hier.drain() {
            self.protected_write(shared, wb);
        }
        let mut s = std::mem::take(&mut self.stats);
        s.name = trace.name.clone();
        s.rss_bytes = trace.rss_bytes;
        s.instructions = self.instructions;
        s.ns = self.now_ns;
        s.cycles = self.now_ns * self.cfg.freq_ghz;
        s.llc_misses = self.hier.llc_misses();
        s.llc_mpki = s.llc_misses as f64 / (s.instructions as f64 / 1000.0);
        let n = s.read_misses.max(1) as f64;
        s.avg_dram_ns = self.sum_bd.dram / n;
        s.avg_aes_ns = self.sum_bd.aes / n;
        s.avg_mac_ns = self.sum_bd.mac / n;
        s.avg_fresh_ns = self.sum_bd.fresh / n;
        s.stealth_hit_rate = self.stealth_cache.stats().hit_rate();
        s.mac_hit_rate = self.mac_cache.stats().hit_rate();
        if let Some(dev) = shared.device.as_ref() {
            let u = dev.device().usage();
            s.trip_pages = (u.flat_pages, u.uneven_pages, u.full_pages);
            s.peak_toleo = s
                .usage_timeline
                .iter()
                .map(|(_, u)| *u)
                .chain(std::iter::once(u))
                .max_by_key(DeviceUsage::total_bytes)
                .unwrap_or_default();
        }
        s
    }
}

/// A single-node system (the paper's per-benchmark runs).
#[derive(Debug)]
pub struct System {
    node: Node,
    shared: SharedMemory,
}

impl System {
    /// Creates a system for the given configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use toleo_sim::config::{Protection, SimConfig};
    /// use toleo_sim::system::System;
    /// use toleo_workloads::{generate, Benchmark, GenConfig};
    ///
    /// let trace = generate(Benchmark::Chain, &GenConfig::tiny());
    /// let stats = System::new(SimConfig::scaled(Protection::Toleo)).run(&trace);
    /// assert!(stats.cycles > 0.0);
    /// ```
    pub fn new(cfg: SimConfig) -> Self {
        System {
            shared: SharedMemory::new(&cfg, 1),
            node: Node::new(cfg),
        }
    }

    /// Runs `trace` to completion, with the trace's MLP hint as the
    /// overlap factor on read stalls, and flushes the dirty lines it
    /// leaves behind.
    pub fn run(&mut self, trace: &Trace) -> RunStats {
        self.node.mlp = trace.mlp.max(1.0);
        for op in &trace.ops {
            self.node.exec_op(&mut self.shared, op);
        }
        self.node.finalize(&mut self.shared, trace)
    }

    /// The shared memory (pool + device) for inspection.
    pub fn shared(&self) -> &SharedMemory {
        &self.shared
    }
}

/// A rack of nodes sharing one memory pool and one Toleo device (Fig. 1).
#[derive(Debug)]
pub struct Rack {
    nodes: Vec<Node>,
    shared: SharedMemory,
}

impl Rack {
    /// Creates a rack of `n` nodes.
    pub fn new(cfg: SimConfig, n: usize) -> Self {
        Rack {
            nodes: (0..n).map(|_| Node::new(cfg.clone())).collect(),
            shared: SharedMemory::new(&cfg, n),
        }
    }

    /// The shared memory (pool + device) for inspection: the one device
    /// every node's `RunStats::{trip_pages, peak_toleo}` describe.
    pub fn shared(&self) -> &SharedMemory {
        &self.shared
    }

    /// Runs one trace per node, interleaved in simulated time (the node
    /// with the earliest clock steps next), so contention on the shared
    /// pool and Toleo device is modelled.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the node count.
    pub fn run(&mut self, traces: &[Trace]) -> Vec<RunStats> {
        assert_eq!(traces.len(), self.nodes.len(), "one trace per node");
        let mut cursors = vec![0usize; self.nodes.len()];
        for (node, trace) in self.nodes.iter_mut().zip(traces) {
            node.mlp = trace.mlp.max(1.0);
        }
        loop {
            // Pick the unfinished node with the smallest clock.
            let mut best: Option<usize> = None;
            for (i, node) in self.nodes.iter().enumerate() {
                if cursors[i] < traces[i].ops.len()
                    && best.is_none_or(|b| node.now_ns < self.nodes[b].now_ns)
                {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            // Execute a small burst for efficiency.
            let burst = 64.min(traces[i].ops.len() - cursors[i]);
            for k in 0..burst {
                let op = offset_op(&traces[i].ops[cursors[i] + k], i as u64);
                self.nodes[i].exec_op(&mut self.shared, &op);
            }
            cursors[i] += burst;
        }
        self.nodes
            .iter_mut()
            .zip(traces)
            .map(|(n, t)| n.finalize(&mut self.shared, t))
            .collect()
    }
}

/// Shifts a node's addresses into its private window, so the nodes'
/// address spaces don't alias in the shared pool and device.
fn offset_op(op: &Op, node: u64) -> Op {
    let off = node << NODE_WINDOW_BITS;
    match op {
        Op::Compute(n) => Op::Compute(*n),
        Op::Read(a) => Op::Read(a + off),
        Op::Write(a) => Op::Write(a + off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toleo_workloads::{generate, Benchmark, GenConfig};

    fn run_bench(b: Benchmark, p: Protection) -> RunStats {
        let trace = generate(b, &GenConfig::tiny());
        System::new(SimConfig::scaled(p)).run(&trace)
    }

    #[test]
    fn overhead_vs_guards_degenerate_runs() {
        let mut base = RunStats::default();
        let mut run = RunStats {
            cycles: 100.0,
            ..RunStats::default()
        };
        // Zero-cycle baseline (empty trace): typed error, not NaN/inf.
        assert_eq!(
            run.overhead_vs(&base),
            Err(OverheadError::DegenerateBaseline { cycles: 0.0 })
        );
        base.cycles = f64::NAN;
        assert!(matches!(
            run.overhead_vs(&base),
            Err(OverheadError::DegenerateBaseline { .. })
        ));
        base.cycles = 80.0;
        run.cycles = f64::INFINITY;
        assert!(matches!(
            run.overhead_vs(&base),
            Err(OverheadError::DegenerateRun { .. })
        ));
        // The healthy path matches the raw ratio.
        run.cycles = 100.0;
        let ovh = run.overhead_vs(&base).unwrap();
        assert!((ovh - 0.25).abs() < 1e-12);
        assert!(OverheadError::DegenerateBaseline { cycles: 0.0 }
            .to_string()
            .contains("undefined"));
    }

    #[test]
    fn empty_trace_run_reports_degenerate_overhead() {
        // An actually-empty trace through the full system must route into
        // the typed error rather than a NaN overhead.
        let empty = Trace::new("empty");
        let base = System::new(SimConfig::scaled(Protection::NoProtect)).run(&empty);
        let toleo = System::new(SimConfig::scaled(Protection::Toleo)).run(&empty);
        assert!(matches!(
            toleo.overhead_vs(&base),
            Err(OverheadError::DegenerateBaseline { .. })
        ));
    }

    #[test]
    fn noprotect_runs_and_counts() {
        let s = run_bench(Benchmark::Chain, Protection::NoProtect);
        assert!(s.instructions > 100_000);
        assert!(s.cycles > 0.0);
        assert_eq!(s.bytes_mac, 0);
        assert_eq!(s.bytes_stealth, 0);
        assert!(s.avg_aes_ns == 0.0);
    }

    #[test]
    fn protection_orders_execution_time() {
        let base = run_bench(Benchmark::Pr, Protection::NoProtect);
        let c = run_bench(Benchmark::Pr, Protection::C);
        let ci = run_bench(Benchmark::Pr, Protection::Ci);
        let toleo = run_bench(Benchmark::Pr, Protection::Toleo);
        let invisimem = run_bench(Benchmark::Pr, Protection::InvisiMem);
        assert!(c.cycles >= base.cycles, "C >= NoProtect");
        assert!(ci.cycles >= c.cycles, "CI >= C");
        assert!(toleo.cycles >= ci.cycles * 0.99, "Toleo ~>= CI");
        assert!(
            invisimem.cycles > ci.cycles,
            "InvisiMem is the most expensive"
        );
        // Toleo's freshness addition over CI is small (paper: 1-2%).
        let toleo_over_ci = toleo.overhead_vs(&ci).expect("both runs executed");
        assert!(
            toleo_over_ci < 0.15,
            "Toleo adds {:.1}% over CI",
            toleo_over_ci * 100.0
        );
    }

    #[test]
    fn ci_fetches_macs() {
        let s = run_bench(Benchmark::Bfs, Protection::Ci);
        assert!(s.bytes_mac > 0);
        assert!(s.mac_hit_rate > 0.0 && s.mac_hit_rate < 1.0);
        assert!(s.avg_mac_ns >= 0.0);
    }

    #[test]
    fn toleo_stealth_cache_hits_high_for_regular_workloads() {
        let s = run_bench(Benchmark::Bsw, Protection::Toleo);
        assert!(
            s.stealth_hit_rate > 0.9,
            "bsw stealth hit {}",
            s.stealth_hit_rate
        );
    }

    #[test]
    fn toleo_usage_timeline_sampled() {
        let s = run_bench(Benchmark::Pr, Protection::Toleo);
        assert!(!s.usage_timeline.is_empty());
        assert!(s.peak_toleo.total_bytes() > 0);
        let (flat, _, _) = s.trip_pages;
        assert!(flat > 0);
    }

    #[test]
    fn invisimem_counts_dummy_bytes() {
        let s = run_bench(Benchmark::Bfs, Protection::InvisiMem);
        assert!(s.bytes_dummy > 0);
    }

    #[test]
    fn mpki_orders_across_workloads() {
        let pr = run_bench(Benchmark::Pr, Protection::NoProtect);
        let chain = run_bench(Benchmark::Chain, Protection::NoProtect);
        assert!(
            pr.llc_mpki > 5.0 * chain.llc_mpki,
            "pr mpki {} must dwarf chain {}",
            pr.llc_mpki,
            chain.llc_mpki
        );
    }

    #[test]
    fn rack_shares_device() {
        let traces: Vec<_> = [Benchmark::Chain, Benchmark::Dbg]
            .iter()
            .map(|b| {
                generate(
                    *b,
                    &GenConfig {
                        mem_ops: 2_000,
                        ..GenConfig::tiny()
                    },
                )
            })
            .collect();
        let mut rack = Rack::new(SimConfig::scaled(Protection::Toleo), 2);
        let stats = rack.run(&traces);
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert!(s.cycles > 0.0);
        }
        // The shared device saw updates from both nodes.
        let dev = rack.shared.device.as_ref().unwrap().device();
        assert!(dev.stats().updates > 0);
    }

    #[test]
    #[should_panic(expected = "one trace per node")]
    fn rack_trace_count_mismatch_panics() {
        let mut rack = Rack::new(SimConfig::scaled(Protection::Toleo), 2);
        let t = generate(Benchmark::Chain, &GenConfig::tiny());
        rack.run(&[t]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use toleo_workloads::trace::Op;

    #[test]
    fn remote_fraction_close_to_configured() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let node = Node::new(cfg.clone());
        let remote = (0..100_000u64).filter(|p| node.is_remote(p * 4096)).count();
        let frac = remote as f64 / 100_000.0;
        assert!(
            (frac - cfg.remote_page_fraction).abs() < 0.01,
            "remote fraction {frac} vs configured {}",
            cfg.remote_page_fraction
        );
    }

    #[test]
    fn empty_trace_finalizes_cleanly() {
        let trace = Trace::new("empty");
        let s = System::new(SimConfig::scaled(Protection::Toleo)).run(&trace);
        assert_eq!(s.instructions, 0);
        assert_eq!(s.read_misses, 0);
        assert_eq!(s.llc_misses, 0);
    }

    #[test]
    fn compute_only_trace_costs_dispatch_time() {
        let mut trace = Trace::new("compute");
        trace.ops.push(Op::Compute(6_000_000));
        let s = System::new(SimConfig::scaled(Protection::NoProtect)).run(&trace);
        // 6M instructions at 6-wide = 1M cycles.
        assert!((s.cycles - 1_000_000.0).abs() < 1.0, "cycles {}", s.cycles);
    }

    #[test]
    fn c_config_charges_only_aes() {
        let mut trace = Trace::new("reads");
        for i in 0..5_000u64 {
            trace.ops.push(Op::Read(i * 64 * 97)); // spread: all miss
        }
        let s = System::new(SimConfig::scaled(Protection::C)).run(&trace);
        assert!(
            s.avg_aes_ns > 17.0 && s.avg_aes_ns < 19.0,
            "aes {}",
            s.avg_aes_ns
        );
        assert_eq!(s.avg_mac_ns, 0.0);
        assert_eq!(s.avg_fresh_ns, 0.0);
        assert_eq!(s.bytes_mac, 0);
    }

    #[test]
    fn drain_flushes_pending_writebacks_to_device() {
        let mut trace = Trace::new("writes");
        for i in 0..100u64 {
            trace.ops.push(Op::Write(i * 64));
        }
        let mut sys = System::new(SimConfig::scaled(Protection::Toleo));
        let s = sys.run(&trace);
        // All 100 dirty lines must have reached the version system by the
        // end-of-run drain even though none were evicted naturally.
        let dev = sys.shared().device.as_ref().unwrap().device();
        assert!(
            dev.stats().updates >= 100,
            "updates {}",
            dev.stats().updates
        );
        assert_eq!(s.name, "writes");
    }

    #[test]
    fn stats_bytes_line_up_with_dram_traffic() {
        let mut trace = Trace::new("reads");
        for i in 0..2_000u64 {
            trace.ops.push(Op::Read(i * 64 * 101));
        }
        let s = System::new(SimConfig::scaled(Protection::NoProtect)).run(&trace);
        assert_eq!(s.bytes_data, s.llc_misses * 64, "one 64B fetch per miss");
    }
}
