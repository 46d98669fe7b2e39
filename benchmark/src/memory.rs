//! What the replay loops drive: the [`Memory`] interface, its
//! implementations for the engines, the counters and device usage a
//! round reads off them, and the siege client's campaign wrapper.

use std::time::Instant;
use toleo_core::cache::CacheStats;
use toleo_core::channel::ChannelStats;
use toleo_core::device::DeviceStats;
use toleo_core::engine::{EngineStats, KillSnapshot, ProtectionEngine};
use toleo_core::error::ToleoError;
use toleo_core::sharded::ShardedEngine;
use toleo_workloads::campaign::TamperEvent;

pub type Block = [u8; 64];
pub const BLOCK_BYTES: u64 = 64;
pub const PAGE_BYTES: u64 = 4096;
pub const MIB: u64 = 1 << 20;

/// Ops a siege client serves between an adversary's tamper and its own
/// integrity poll of that block (the engine's kill-poll interval).
pub const SIEGE_POLL_OPS: u64 = 64;

/// The counters a round reports, flattened out of the engine's five
/// stats structs so that a before/after difference is one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub device_reads: u64,
    pub device_updates: u64,
    pub mac_fetches: u64,
    pub pages_reencrypted: u64,
    pub stealth_hits: u64,
    pub stealth_misses: u64,
    pub mac_hits: u64,
    pub mac_misses: u64,
    pub stealth_resets: u64,
    pub trip_upgrades: u64,
    pub retries: u64,
    pub replays: u64,
    pub backoff_ns: u64,
}

impl Counts {
    pub fn from_parts(
        e: EngineStats,
        stealth: CacheStats,
        mac: CacheStats,
        d: DeviceStats,
        ch: ChannelStats,
    ) -> Self {
        Counts {
            device_reads: e.device_reads,
            device_updates: e.device_updates,
            mac_fetches: e.mac_fetches,
            pages_reencrypted: e.pages_reencrypted,
            stealth_hits: stealth.hits,
            stealth_misses: stealth.misses,
            mac_hits: mac.hits,
            mac_misses: mac.misses,
            stealth_resets: d.stealth_resets,
            trip_upgrades: d.upgrades_to_uneven + d.upgrades_to_full,
            retries: ch.retries,
            replays: ch.replayed_responses,
            backoff_ns: ch.backoff_nanos,
        }
    }

    fn from_snapshot(s: &KillSnapshot) -> Self {
        Self::from_parts(s.stats, s.stealth_cache, s.mac_cache, s.device, s.channel)
    }

    fn fields(&mut self) -> [&mut u64; 13] {
        [
            &mut self.device_reads,
            &mut self.device_updates,
            &mut self.mac_fetches,
            &mut self.pages_reencrypted,
            &mut self.stealth_hits,
            &mut self.stealth_misses,
            &mut self.mac_hits,
            &mut self.mac_misses,
            &mut self.stealth_resets,
            &mut self.trip_upgrades,
            &mut self.retries,
            &mut self.replays,
            &mut self.backoff_ns,
        ]
    }

    pub fn plus(mut self, mut other: Counts) -> Counts {
        for (a, b) in self.fields().into_iter().zip(other.fields()) {
            *a += *b;
        }
        self
    }

    /// `self - earlier`; counters only grow, so this never underflows
    /// unless an engine lost counts (which the caller wants to hear of).
    pub fn since(mut self, mut earlier: Counts) -> Counts {
        for (a, b) in self.fields().into_iter().zip(earlier.fields()) {
            *a = a.checked_sub(*b).expect("a counter went backwards");
        }
        self
    }

    pub fn version_fetches(&self) -> u64 {
        self.device_reads + self.device_updates
    }

    pub fn stealth_hit_rate(&self) -> f64 {
        ratio(self.stealth_hits, self.stealth_hits + self.stealth_misses)
    }

    pub fn mac_hit_rate(&self) -> f64 {
        ratio(self.mac_hits, self.mac_hits + self.mac_misses)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Trusted-device bytes in use and the pages they cover.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    pub total_bytes: f64,
    pub dynamic_bytes: f64,
    pub pages: f64,
}

impl Usage {
    fn of_engine(e: &ProtectionEngine) -> Usage {
        let u = e.device().usage();
        Usage {
            total_bytes: u.total_bytes() as f64,
            dynamic_bytes: u.dynamic_bytes as f64,
            pages: (u.flat_pages + u.uneven_pages + u.full_pages) as f64,
        }
    }

    fn sum(parts: impl IntoIterator<Item = Usage>) -> Usage {
        parts.into_iter().fold(Usage::default(), |sum, u| Usage {
            total_bytes: sum.total_bytes + u.total_bytes,
            dynamic_bytes: sum.dynamic_bytes + u.dynamic_bytes,
            pages: sum.pages + u.pages,
        })
    }

    pub fn of_sharded(e: &mut ShardedEngine) -> Usage {
        Usage::sum((0..e.shard_count()).map(|shard| Usage::of_engine(e.shard_engine_mut(shard))))
    }

    pub fn mean(samples: &[Usage]) -> Usage {
        let n = samples.len().max(1) as f64;
        let sum = Usage::sum(samples.iter().copied());
        Usage {
            total_bytes: sum.total_bytes / n,
            dynamic_bytes: sum.dynamic_bytes / n,
            pages: sum.pages / n,
        }
    }

    /// Trusted bytes per protected MiB touched (flat format: 12 B per
    /// 4 KiB page = 3072).
    pub fn bytes_per_mib(&self) -> f64 {
        if self.pages == 0.0 {
            0.0
        } else {
            self.total_bytes / (self.pages * PAGE_BYTES as f64 / MIB as f64)
        }
    }
}

/// What the replay loops need from a memory under test. Implemented for
/// the engines (owned and shared handles), the baselines and a plain
/// unprotected store, so one loop serves every one of them.
pub trait Memory {
    type Error: std::fmt::Debug;

    fn write(&mut self, addr: u64, data: &Block) -> Result<(), Self::Error>;
    fn read(&mut self, addr: u64) -> Result<Block, Self::Error>;

    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), Self::Error> {
        ops.iter()
            .try_for_each(|(addr, data)| self.write(*addr, data))
    }

    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, Self::Error> {
        addrs.iter().map(|&addr| self.read(addr)).collect()
    }

    /// Event counters so far; zero for memories that keep none.
    fn counts(&self) -> Counts {
        Counts::default()
    }

    /// Trusted-device usage, for memories that have a trusted device.
    fn usage(&mut self) -> Option<Usage> {
        None
    }
}

impl Memory for ProtectionEngine {
    type Error = ToleoError;
    #[inline]
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), ToleoError> {
        ProtectionEngine::write(self, addr, data)
    }
    #[inline]
    fn read(&mut self, addr: u64) -> Result<Block, ToleoError> {
        ProtectionEngine::read(self, addr)
    }
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), ToleoError> {
        ProtectionEngine::write_batch(self, ops).map_err(ToleoError::from)
    }
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, ToleoError> {
        ProtectionEngine::read_batch(self, addrs).map_err(ToleoError::from)
    }
    fn counts(&self) -> Counts {
        Counts::from_parts(
            self.stats(),
            self.stealth_cache_stats(),
            self.mac_cache_stats(),
            self.device_stats(),
            self.channel_stats(),
        )
    }
    fn usage(&mut self) -> Option<Usage> {
        Some(Usage::of_engine(self))
    }
}

fn sharded_counts(e: &ShardedEngine) -> Counts {
    Counts::from_parts(
        e.stats(),
        e.stealth_cache_stats(),
        e.mac_cache_stats(),
        e.device_stats(),
        e.channel_stats(),
    )
}

/// A sharded engine and its one client.
impl Memory for ShardedEngine {
    type Error = ToleoError;
    #[inline]
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), ToleoError> {
        ShardedEngine::write(self, addr, data)
    }
    #[inline]
    fn read(&mut self, addr: u64) -> Result<Block, ToleoError> {
        ShardedEngine::read(self, addr)
    }
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), ToleoError> {
        ShardedEngine::write_batch(self, ops)
    }
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, ToleoError> {
        ShardedEngine::read_batch(self, addrs)
    }
    fn counts(&self) -> Counts {
        sharded_counts(self)
    }
    fn usage(&mut self) -> Option<Usage> {
        Some(Usage::of_sharded(self))
    }
}

/// What the siege round's adversary and recovery plane did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiegeTally {
    pub steps_mounted: u64,
    pub steps_detected: u64,
    pub recoveries: u64,
    /// Victim ops between each mount and its detection, summed.
    pub detect_ops: u64,
    /// Wall time inside `recover_shard`, summed.
    pub recover_ns: u64,
    pub pages_scrubbed: u64,
    pub blocks_lost: u64,
    /// Ops refused with `ShardQuarantined` at their first attempt (each
    /// is served at its second, once the shard is back).
    pub refused_ops: u64,
}

/// The siege client's view of its memory: a sharded engine with the
/// link fault plan armed, an adversary that tampers on schedule, and an
/// operator who keeps a backup of what the adversary is about to hit,
/// polls the tampered block within the kill-poll interval, and on the
/// first refusal recovers the shard, restores the lost block from the
/// backup and re-issues the refused op. Every op of the trace is served
/// in the end; what the campaign costs is refusals, recovery time and
/// the link's retries.
pub struct Siege {
    engine: ShardedEngine,
    steps: Vec<TamperEvent>,
    next_step: usize,
    /// Trace ops served so far.
    served: u64,
    /// `(poll due at, tampered address, mounted at)`.
    pending: Option<(u64, u64, u64)>,
    /// Blocks the campaign destroyed, with their last contents, until
    /// their shard is recovered.
    lost: Vec<(u64, Block)>,
    /// Counters of engines that recovery has since replaced.
    forensic: Counts,
    pub tally: SiegeTally,
}

impl Siege {
    pub fn new(engine: ShardedEngine, steps: Vec<TamperEvent>) -> Self {
        Siege {
            engine,
            steps,
            next_step: 0,
            served: 0,
            pending: None,
            lost: Vec::new(),
            forensic: Counts::default(),
            tally: SiegeTally::default(),
        }
    }

    /// Adversary and poll work due before the op at `addr` is served.
    fn before_op(&mut self, addr: u64) {
        if self.pending.is_none() {
            if let Some(step) = self.steps.get(self.next_step) {
                if step.at_op <= self.served {
                    let target = step.addr;
                    let backup = self
                        .engine
                        .read(target)
                        .expect("siege: a block must read before it is attacked");
                    self.engine
                        .with_adversary(target, |dram| dram.corrupt_data(target, 11, 0x5a));
                    self.lost.push((target, backup));
                    self.pending = Some((self.served + SIEGE_POLL_OPS, target, self.served));
                    self.next_step += 1;
                    self.tally.steps_mounted += 1;
                }
            }
        }
        if let Some((due, target, mounted_at)) = self.pending {
            // Poll when the interval is up, or sooner if the trace is
            // about to touch the block itself (a write would bury the
            // evidence).
            if self.served >= due || addr == target {
                self.pending = None;
                match self.engine.read(target) {
                    Err(ToleoError::IntegrityViolation { .. }) => {}
                    other => panic!("siege: tamper at {target:#x} not detected, got {other:?}"),
                }
                assert!(
                    self.engine
                        .is_shard_quarantined(self.engine.shard_of_addr(target)),
                    "siege: detection must quarantine the shard"
                );
                self.tally.steps_detected += 1;
                self.tally.detect_ops += self.served - mounted_at;
            }
        }
        self.served += 1;
    }

    /// Recovers `shard` and writes back what the campaign destroyed in
    /// it.
    fn recover(&mut self, shard: usize) {
        let t = Instant::now();
        let outcome = self
            .engine
            .recover_shard(shard)
            .expect("siege: a quarantined shard within its budget must recover");
        self.tally.recover_ns += t.elapsed().as_nanos() as u64;
        self.tally.recoveries += 1;
        self.tally.pages_scrubbed += outcome.pages_scrubbed;
        self.tally.blocks_lost += outcome.blocks_lost;
        self.forensic = self.forensic.plus(Counts::from_snapshot(&outcome.forensic));
        let engine = &self.engine;
        self.lost.retain(|(addr, backup)| {
            let here = engine.shard_of_addr(*addr) == shard;
            if here {
                engine
                    .write(*addr, backup)
                    .expect("siege: a re-admitted shard must take the restore");
            }
            !here
        });
    }

    /// Serves one trace op; one refused by a quarantined shard is
    /// re-issued once that shard has been recovered.
    fn serve<T>(
        &mut self,
        addr: u64,
        op: impl Fn(&ShardedEngine) -> Result<T, ToleoError>,
    ) -> Result<T, ToleoError> {
        self.before_op(addr);
        match op(&self.engine) {
            Err(ToleoError::ShardQuarantined { shard, .. }) => {
                self.tally.refused_ops += 1;
                self.recover(shard);
                op(&self.engine)
            }
            served => served,
        }
    }
}

impl Memory for Siege {
    type Error = ToleoError;
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), ToleoError> {
        self.serve(addr, |engine| engine.write(addr, data))
    }
    fn read(&mut self, addr: u64) -> Result<Block, ToleoError> {
        self.serve(addr, |engine| engine.read(addr))
    }
    fn counts(&self) -> Counts {
        sharded_counts(&self.engine).plus(self.forensic)
    }
    fn usage(&mut self) -> Option<Usage> {
        Some(Usage::of_sharded(&mut self.engine))
    }
}
