//! Sharded concurrent protection engine.
//!
//! The paper pitches Toleo at tera-scale pools serving many hosts, which a
//! single-threaded [`ProtectionEngine`] cannot saturate. This module
//! partitions the physical address space page-wise across N independent
//! shards. Each shard owns a complete `ProtectionEngine` — its own
//! untrusted-memory arena, stealth/MAC caches, device slice and a key
//! schedule derived per-shard from the root key material — so shards share
//! **no** mutable state except the world-kill flag. That makes the
//! decomposition embarrassingly parallel: on a host with enough cores,
//! throughput scales with the number of caller threads until memory
//! bandwidth saturates.
//!
//! A shard is one mutex. Everything that belongs to shard *k* — its
//! engine (with the ledger of blocks a recovery scrub lost, which travels
//! with its arena), its key generation, whether it is quarantined, its
//! served-op count and its recovery counters — is one `Shard` behind
//! `shards[k]`, and the handle holds no other lock: whoever drains,
//! recovers or snapshots a shard already holds that mutex, so nothing
//! beside it needs synchronisation of its own, and telemetry is summed
//! when it is read, never pushed. A drain runs ops without knowing their
//! kind. The module's only atomics are the world-kill flag (`Release`
//! store, `Acquire` load) and the batch helper's mailbox phase.
//!
//! [`ShardedEngine`] is the thread-safe handle. Single operations route to
//! the owning shard under its mutex, on the calling thread;
//! [`read_batch`](ShardedEngine::read_batch) and
//! [`write_batch`](ShardedEngine::write_batch) split a batch into per-shard
//! runs, each drained under its shard's lock. The caller drains the lower
//! half of the runs itself and offers the upper half to one
//! batch helper thread — spawned by the first batch that has two runs, never
//! when the platform reports one CPU — and takes that half back if the
//! helper has not started it. More parallelism comes from several callers
//! on the `&self` handle, which contend only when they meet on one shard's
//! mutex; a caller that finds the helper busy drains alone.
//!
//! Failure containment is an escalation ladder:
//!
//! * **Quarantine** — a shard whose engine detects tampering or replay is
//!   frozen *alone*: its engine's kill switch engages (so the shard is
//!   individually inert, counters frozen in a [`KillSnapshot`]), its
//!   `quarantined` field is set under the lock the detecting op already
//!   holds, and subsequent operations routed to it are *refused* (never
//!   parked) with [`ToleoError::ShardQuarantined`]; the frozen snapshot
//!   stays with the shard, read by [`ShardedEngine::per_shard_stats`] and
//!   handed over by recovery. Healthy shards keep serving — one hostile
//!   tenant cannot deny service to every other tenant in the pool. A caller draining a
//!   batch run on a healthy shard shares nothing with the quarantined
//!   one and never learns of it.
//! * **Recover** — a quarantined shard can be scrubbed, re-keyed under a
//!   fresh key generation, and re-admitted to service by
//!   [`ShardedEngine::recover_shard`] (see the [`recovery`] module);
//!   blocks the scrub could not re-verify refuse with
//!   [`ToleoError::PageLost`] until rewritten.
//! * **World-kill** — a *device-level* failure (the freshness device
//!   unreachable after the [`DeviceChannel`](crate::channel::DeviceChannel)
//!   retry budget), or a shard tampered *again* after exhausting its
//!   per-shard recovery budget, means containment is over: the global
//!   flag flips, in-flight batch drains abort, and every peer shard is
//!   force-killed so each is individually inert thereafter.
//!
//! [`KillSnapshot`]: crate::engine::KillSnapshot

// audit: allow-file(indexing, shard and run indices come from shard_of_addr and run_batch's per-shard runs, bounded by the shard count and batch length)

use crate::cache::CacheStats;
use crate::channel::{ChannelStats, RetryPolicy};
use crate::config::{ToleoConfig, CACHE_BLOCK_BYTES, PAGE_BYTES};
use crate::device::DeviceStats;
use crate::engine::{Block, EngineStats, KillSnapshot, ProtectionEngine, UntrustedDram};
use crate::error::{BatchError, Result, ToleoError};
use crate::fault::FaultPlanConfig;
use crate::layout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use toleo_crypto::aes::Aes128;

mod helper;
pub mod recovery;

pub use recovery::{RecoveryOutcome, RecoveryStats, RECOVERY_BUDGET};

use helper::{Helper, Settled};
use recovery::RekeyInputs;

// Whichever thread takes a shard's lock — a caller or the batch helper —
// drives that shard; this fails to compile if `ProtectionEngine` ever
// grows a non-Send member.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ProtectionEngine>();
};

/// Upper bound on the shard count: one shard per page-interleave slot of
/// the smallest supported pool would be absurd; 4096 comfortably covers
/// any plausible worker fleet while keeping the routing modulus cheap.
pub const MAX_SHARDS: usize = 4096;

/// Ops a batch drain serves between polls of the world-kill flag. Large
/// enough that the poll's one `Acquire` load is amortised over real work;
/// small enough that a world-kill is still observed promptly.
pub const KILL_POLL_OPS: usize = 64;

/// Aggregated robustness telemetry for a sharded engine: what the device
/// fault plane absorbed and what the quarantine and recovery layers
/// contained. Feeds the bench `availability` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessStats {
    /// Device-channel counters summed over every shard (faults injected /
    /// absorbed, retries, virtual backoff nanoseconds, replays).
    pub channel: ChannelStats,
    /// Shards currently quarantined.
    pub quarantined_shards: u64,
    /// Whether the world-kill (device-level escalation) has engaged.
    pub world_killed: bool,
    /// Operations served successfully through this handle (singles plus
    /// batch ops), summed over the shards.
    pub ops_served: u64,
    /// Recovery-plane counters: scrubs, re-keys, lost blocks, and
    /// budget-exhaustion kills. See [`RecoveryStats`].
    pub recovery: RecoveryStats,
}

/// A sharded, thread-safe protection engine: N independent
/// [`ProtectionEngine`] shards behind one handle, with page-granular
/// address routing, per-shard quarantine, and a world-kill switch for
/// device-level failures.
///
/// # Examples
///
/// ```
/// use toleo_core::config::ToleoConfig;
/// use toleo_core::sharded::ShardedEngine;
///
/// let engine = ShardedEngine::new(ToleoConfig::small(), 4, [7u8; 48]).unwrap();
/// let writes: Vec<(u64, [u8; 64])> =
///     (0..16u64).map(|i| (i * 4096, [i as u8; 64])).collect();
/// engine.write_batch(&writes).unwrap();
/// let addrs: Vec<u64> = writes.iter().map(|(a, _)| *a).collect();
/// let blocks = engine.read_batch(&addrs).unwrap();
/// for (i, block) in blocks.iter().enumerate() {
///     assert_eq!(*block, [i as u8; 64]);
/// }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    /// Everything a drain touches. The batch helper holds a clone only
    /// from an offer until it has drained it, so `&mut self` finds it
    /// unshared.
    core: Arc<Core>,
    /// The batch helper, spawned by the first batch with two occupied
    /// runs; `None` inside when the platform reports one CPU or the spawn
    /// failed, and every batch drains on its caller.
    helper: OnceLock<Option<Helper>>,
    /// What [`recover_shard`](Self::recover_shard) re-keys from.
    rekey: RekeyInputs,
    cfg: ToleoConfig,
}

/// The shards and the kill flag beside them: what a drain touches,
/// shared by the handle and the batch helper.
#[derive(Debug)]
struct Core {
    shards: Box<[Mutex<Shard>]>,
    /// Set only by the world-kill escalation (device unreachable, a panic
    /// inside a batch drain); checked on every entry and between batch
    /// chunks so drains abort promptly.
    killed: AtomicBool,
}

/// Everything one shard's mutex guards. The counters sit *beside* the
/// engine, not in it: [`ShardedEngine::recover_shard`] replaces the
/// engine, and they must outlive that generation. The ledger of lost
/// blocks is the engine's own and moves with its arena.
#[derive(Debug)]
struct Shard {
    engine: ProtectionEngine,
    /// Completed recoveries, which is also the key generation in force.
    generation: u64,
    /// Frozen by a tamper detection until
    /// [`ShardedEngine::recover_shard`] re-admits it: every op routed
    /// here is refused.
    quarantined: bool,
    /// Ops this shard served, across generations (see [`RobustnessStats`]).
    ops_served: u64,
    pages_scrubbed: u64,
    blocks_scrubbed: u64,
    blocks_lost: u64,
    budget_kills: u64,
}

impl Shard {
    /// Classifies an engine-kill observed after an operation: a channel
    /// retry-budget exhaustion escalates to the world-kill; anything else
    /// (tamper, replay) quarantines only this shard — unless the shard
    /// has already consumed its recovery budget, in which case a repeat
    /// tamper is a determined adversary parked on one address range and
    /// containment gives way to the world-kill. Returns `true` when the
    /// caller must finish the world-kill (after releasing this shard's
    /// lock).
    fn escalate_after_kill(&mut self, error: &ToleoError) -> bool {
        if matches!(error, ToleoError::DeviceUnavailable { .. }) {
            return true;
        }
        self.quarantined = true;
        if self.generation >= RECOVERY_BUDGET {
            self.budget_kills += 1;
            return true;
        }
        false
    }
}

impl ShardedEngine {
    /// Creates an engine with `shards` independent shards. Each shard's
    /// 48-byte key material is derived from `root_key` with AES-128 as a
    /// PRF (so shards never share data/tweak/MAC keys), and each shard's
    /// device draws from an independently seeded D-RaNGe stream. Honors
    /// the `TOLEO_FAULT_PLAN` environment variable (see
    /// [`FaultPlanConfig::parse`](crate::fault::FaultPlanConfig::parse)).
    ///
    /// # Errors
    ///
    /// [`ToleoError::InvalidConfig`] if `shards` is 0 or exceeds
    /// [`MAX_SHARDS`], or if `cfg` fails
    /// [`ToleoConfig::validate`](crate::config::ToleoConfig::validate),
    /// or `TOLEO_FAULT_PLAN` is malformed.
    pub fn new(cfg: ToleoConfig, shards: usize, root_key: [u8; 48]) -> Result<Self> {
        let fault_plan = FaultPlanConfig::from_env()?;
        Self::new_with_robustness(cfg, shards, root_key, fault_plan, RetryPolicy::default())
    }

    /// [`new`](Self::new) with an explicit robustness configuration: an
    /// optional device fault-injection campaign and the retry policy that
    /// absorbs its transients. Each shard's plan is salted with that
    /// shard's derived RNG seed, so shards draw independent fault streams
    /// from one campaign spec.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new); additionally if `fault_plan` is invalid.
    pub fn new_with_robustness(
        cfg: ToleoConfig,
        shards: usize,
        root_key: [u8; 48],
        fault_plan: Option<FaultPlanConfig>,
        policy: RetryPolicy,
    ) -> Result<Self> {
        if shards == 0 || shards > MAX_SHARDS {
            return Err(ToleoError::InvalidConfig {
                detail: format!("shard count {shards} outside 1..={MAX_SHARDS}"),
            });
        }
        let engines = (0..shards)
            .map(|s| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.rng_seed = derive_shard_seed(cfg.rng_seed, s as u64, 0);
                ProtectionEngine::try_new_with_robustness(
                    shard_cfg,
                    derive_shard_key(&root_key, s as u64, 0),
                    fault_plan,
                    policy,
                )
                .map(|engine| {
                    Mutex::new(Shard {
                        engine,
                        generation: 0,
                        quarantined: false,
                        ops_served: 0,
                        pages_scrubbed: 0,
                        blocks_scrubbed: 0,
                        blocks_lost: 0,
                        budget_kills: 0,
                    })
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedEngine {
            core: Arc::new(Core {
                shards: engines.into_boxed_slice(),
                killed: AtomicBool::new(false),
            }),
            helper: OnceLock::new(),
            rekey: RekeyInputs {
                root_key,
                fault_plan,
                policy,
            },
            cfg,
        })
    }

    /// The configuration shards were built from (per-shard configs differ
    /// only in their derived RNG seed).
    pub fn config(&self) -> &ToleoConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The shard that owns `addr` (page-wise interleaving: consecutive
    /// pages land on consecutive shards, so page-local version state —
    /// Trip entries, UVs, reset walks — never crosses a shard boundary).
    pub fn shard_of_addr(&self, addr: u64) -> usize {
        self.shard_of_page(layout::page_of(addr))
    }

    /// The shard that owns `page`.
    pub fn shard_of_page(&self, page: u64) -> usize {
        (page % self.shard_count() as u64) as usize
    }

    /// Whether the world-kill switch has engaged (device-level failure or
    /// a panic inside a batch drain). Per-shard tamper detections quarantine instead; see
    /// [`is_shard_quarantined`](Self::is_shard_quarantined).
    pub fn is_killed(&self) -> bool {
        self.core.is_killed()
    }

    /// Whether `shard` is quarantined (out-of-range shard indices are
    /// simply not quarantined). Read under the shard's lock, so it
    /// answers for a whole quarantine or a whole recovery, never for the
    /// middle of one — and must not be called with a shard lock held.
    pub fn is_shard_quarantined(&self, shard: usize) -> bool {
        shard < self.shard_count() && self.core.lock_shard(shard).quarantined
    }

    fn check_alive(&self, address: u64) -> Result<()> {
        if self.is_killed() {
            return Err(ToleoError::IntegrityViolation { address });
        }
        Ok(())
    }

    /// The batch helper, spawned on first use; `None` on a one-CPU
    /// platform.
    fn helper(&self) -> Option<&Helper> {
        self.helper.get_or_init(Helper::spawn).as_ref()
    }

    /// Halves the batch helper has drained; `None` without a helper.
    #[cfg(test)]
    fn helper_drained(&self) -> Option<u64> {
        self.helper.get()?.as_ref().map(Helper::drained)
    }

    /// Runs `f` on the shard owning `address` as a batch run of one:
    /// the single-op path is [`drain_shard_guarded`](Core::drain_shard_guarded)
    /// over the one index `0`, so quarantine refusal, the escalation
    /// ladder and the fail-closed response to a panic exist once, in
    /// [`drain_shard`](Core::drain_shard). It never involves the batch
    /// helper.
    fn run_on_shard<R>(
        &self,
        address: u64,
        mut f: impl FnMut(&mut ProtectionEngine) -> Result<R>,
    ) -> Result<R> {
        self.check_alive(address)?;
        let mut served = None;
        let outcome = self.core.drain_shard_guarded(
            self.shard_of_addr(address),
            &[0],
            &|_| address,
            &mut |engine, _| f(engine).map(|value| served = Some(value)),
        );
        self.core.finish_world_kill();
        match outcome {
            // A drained run of one has served its op; were that ever
            // untrue, the answer is a violation, not a value.
            Ok(()) => served.ok_or(ToleoError::IntegrityViolation { address }),
            Err((_, e)) => Err(e),
        }
    }

    /// Writes a 64-byte block at `addr` through the owning shard.
    ///
    /// # Errors
    ///
    /// As [`ProtectionEngine::write`]; additionally
    /// [`ToleoError::ShardQuarantined`] once the owning shard is
    /// quarantined, and [`ToleoError::IntegrityViolation`] once the
    /// world-kill has engaged.
    pub fn write(&self, addr: u64, plaintext: &Block) -> Result<()> {
        self.run_on_shard(addr, |engine| engine.write(addr, plaintext))
    }

    /// Reads the 64-byte block at `addr` through the owning shard.
    ///
    /// # Errors
    ///
    /// As [`ProtectionEngine::read`]; a tamper detection on this shard
    /// quarantines it (healthy shards keep serving), while a device-level
    /// failure escalates to the world-kill. An address a recovery scrub
    /// classified lost refuses with [`ToleoError::PageLost`] until a
    /// fresh write repopulates it.
    pub fn read(&self, addr: u64) -> Result<Block> {
        self.run_on_shard(addr, |engine| engine.read(addr))
    }

    /// OS page free / remap, routed to the owning shard.
    ///
    /// # Errors
    ///
    /// As [`ProtectionEngine::free_page`].
    pub fn free_page(&self, page: u64) -> Result<()> {
        self.run_on_shard(page * PAGE_BYTES as u64, |engine| engine.free_page(page))
    }

    /// Writes a batch of blocks. The batch is split into per-shard runs,
    /// each drained under its shard's lock as one
    /// [`ProtectionEngine::write`] after another, polling the world-kill
    /// flag every [`KILL_POLL_OPS`] ops; the calling thread drains the
    /// lower half of the runs and the batch helper, if it starts in time,
    /// the upper half. Within a shard, ops execute in
    /// batch order (so a later write to the same address wins, exactly as
    /// in a sequential replay); ops on different shards may execute out of
    /// batch order, or at once, which is safe because shards share no
    /// state.
    ///
    /// # Errors
    ///
    /// The failing op's error, smallest batch index first, except that a
    /// security-relevant failure ([`ToleoError::IntegrityViolation`],
    /// [`ToleoError::ShardQuarantined`],
    /// [`ToleoError::DeviceUnavailable`]) anywhere in the batch always
    /// wins over benign failures (a security event must not be masked by
    /// a retryable error). A tamper detection quarantines only its shard:
    /// the healthy shards' runs are still drained to completion around
    /// the quarantined member.
    pub fn write_batch(&self, ops: &[(u64, Block)]) -> Result<()> {
        self.write_batch_indexed(ops).map_err(|e| e.error)
    }

    /// [`write_batch`](Self::write_batch) variant that also reports the
    /// smallest failing batch index (security-relevant failures still
    /// take precedence over earlier benign failures). *All* occupied
    /// shards are still attempted after a failure on one, so ops on
    /// **other** shards may have completed whatever their index; on the
    /// failing op's own shard, ops before it completed and ops after it
    /// were not attempted.
    ///
    /// # Errors
    ///
    /// [`BatchError`] with the failing index and underlying error.
    pub fn write_batch_indexed(&self, ops: &[(u64, Block)]) -> std::result::Result<(), BatchError> {
        self.run_batch(BatchOps::Write(ops), &mut [])
    }

    /// Reads a batch of blocks: each occupied shard's run is one
    /// [`ProtectionEngine::read`] after another, drained and kill-polled
    /// as in [`write_batch`](Self::write_batch). Results are returned in
    /// batch order.
    ///
    /// # Errors
    ///
    /// As [`write_batch`](Self::write_batch): smallest failing batch
    /// index, with security-relevant errors preferred over benign ones; a
    /// tamper detection quarantines only the offending shard.
    pub fn read_batch(&self, addrs: &[u64]) -> Result<Vec<Block>> {
        self.read_batch_indexed(addrs).map_err(|e| e.error)
    }

    /// [`read_batch`](Self::read_batch) variant that also reports the
    /// smallest failing batch index, with the same cross-shard completion
    /// caveat as [`write_batch_indexed`](Self::write_batch_indexed).
    ///
    /// # Errors
    ///
    /// [`BatchError`] with the failing index and underlying error.
    pub fn read_batch_indexed(&self, addrs: &[u64]) -> std::result::Result<Vec<Block>, BatchError> {
        let mut out = vec![[0u8; CACHE_BLOCK_BYTES]; addrs.len()];
        self.run_batch(BatchOps::Read(addrs), &mut out)?;
        Ok(out)
    }

    /// Shared batch executor. Splits the batch into per-shard runs
    /// ([`Runs::split`]) and drains every occupied shard's run through
    /// [`drain_shard_guarded`](Core::drain_shard_guarded), whatever the
    /// others returned. With two or more runs it offers the upper half of
    /// them to the batch [`helper`] as an owned copy of their ops, drains
    /// the lower half itself, then either takes the offer back, if the
    /// helper has not started it, and drains that half too, or waits for
    /// the helper's half. A helper slow to wake thus never costs more than
    /// draining alone, and a helper that died fails its half closed into
    /// the world-kill. Returns the smallest failing batch index with its
    /// error ([`Failures`]).
    fn run_batch(
        &self,
        ops: BatchOps<'_>,
        out: &mut [Block],
    ) -> std::result::Result<(), BatchError> {
        if ops.len() == 0 {
            return Ok(());
        }
        self.check_alive(ops.addr(0))
            .map_err(|error| BatchError { index: 0, error })?;
        let runs = Runs::split(ops.len(), self.shard_count(), |i| {
            self.shard_of_addr(ops.addr(i))
        });
        let addr_of = |i: usize| ops.addr(i);
        let mut exec_op = |engine: &mut ProtectionEngine, i: usize| match ops {
            BatchOps::Write(writes) => engine.write(writes[i].0, &writes[i].1),
            BatchOps::Read(addrs) => engine.read(addrs[i]).map(|block| out[i] = block),
        };
        let mut failures = Failures::default();
        let (own, handed) = runs.spans.split_at(runs.spans.len().div_ceil(2));
        let mut offer = match handed {
            [] => None,
            _ => self
                .helper()
                .and_then(|helper| helper.offer(|job| job.load(&self.core, ops, &runs, handed))),
        };
        let own = if offer.is_some() {
            own
        } else {
            &runs.spans[..]
        };
        self.core
            .drain_spans(&runs, own, &addr_of, &mut exec_op, &mut failures);
        if let Some(offer) = &mut offer {
            match offer.settle() {
                Settled::Reclaimed => {
                    self.core
                        .drain_spans(&runs, handed, &addr_of, &mut exec_op, &mut failures)
                }
                Settled::Returned(mut job) => {
                    failures.absorb(std::mem::take(&mut job.failures));
                    if let BatchOps::Read(_) = ops {
                        for &i in runs.indices(handed) {
                            out[i] = job.blocks[i];
                        }
                    }
                }
                Settled::Lost => {
                    // The helper thread ended with this half in an
                    // unknown state: fail it closed, as a panicked run.
                    self.core.killed.store(true, Ordering::Release);
                    let first = runs.indices(handed)[0];
                    let address = ops.addr(first);
                    failures.note((first, ToleoError::IntegrityViolation { address }));
                }
            }
        }
        // Frees the mailbox; the kill, if any, is finished with no lock
        // held and both halves back.
        drop(offer);
        self.core.finish_world_kill();
        failures.into_result()
    }

    /// Every shard's [`ProtectionEngine::snapshot`] merged in one pass
    /// over the shard locks. Quarantined (and world-killed) shards
    /// contribute their frozen counters — each shard's engine serves
    /// either its live state or its frozen snapshot, never both, so a
    /// partial quarantine merges live and frozen shards without
    /// double-counting. The five accessors below are its fields.
    pub fn snapshot(&self) -> KillSnapshot {
        let mut total = KillSnapshot::default();
        for index in 0..self.shard_count() {
            total.merge(&self.core.lock_shard(index).engine.snapshot());
        }
        total
    }

    /// Aggregated engine counters across all shards.
    pub fn stats(&self) -> EngineStats {
        self.snapshot().stats
    }

    /// Per-shard engine counters, in shard order (load-balance
    /// telemetry). Quarantined shards report their frozen snapshot.
    pub fn per_shard_stats(&self) -> Vec<EngineStats> {
        (0..self.shard_count())
            .map(|index| self.core.lock_shard(index).engine.stats())
            .collect()
    }

    /// Aggregated stealth-cache statistics across all shards.
    pub fn stealth_cache_stats(&self) -> CacheStats {
        self.snapshot().stealth_cache
    }

    /// Aggregated MAC-cache statistics across all shards.
    pub fn mac_cache_stats(&self) -> CacheStats {
        self.snapshot().mac_cache
    }

    /// Aggregated device counters across all shards.
    pub fn device_stats(&self) -> DeviceStats {
        self.snapshot().device
    }

    /// Aggregated device-channel counters across all shards (frozen
    /// values for quarantined shards).
    pub fn channel_stats(&self) -> ChannelStats {
        self.snapshot().channel
    }

    /// Aggregated robustness telemetry — channel counters, quarantine
    /// state, served ops and recovery counters — built in one pass that
    /// takes each shard lock once. See [`RobustnessStats`].
    pub fn robustness_stats(&self) -> RobustnessStats {
        let mut total = RobustnessStats::default();
        for index in 0..self.shard_count() {
            let state = self.core.lock_shard(index);
            total.channel.merge(&state.engine.channel_stats());
            total.quarantined_shards += u64::from(state.quarantined);
            total.ops_served += state.ops_served;
            total.recovery.recoveries += state.generation;
            total.recovery.pages_scrubbed += state.pages_scrubbed;
            total.recovery.blocks_scrubbed += state.blocks_scrubbed;
            total.recovery.blocks_lost += state.blocks_lost;
            total.recovery.blocks_still_lost += state.engine.lost_blocks();
            total.recovery.budget_kills += state.budget_kills;
        }
        total.world_killed = self.is_killed();
        total
    }

    /// Adversary access to the untrusted memory of the shard owning
    /// `addr`. Usable concurrently with victim traffic on other shards —
    /// exactly the attack surface the concurrency security tests drive.
    pub fn with_adversary<R>(&self, addr: u64, f: impl FnOnce(&mut UntrustedDram) -> R) -> R {
        let shard = self.shard_of_addr(addr);
        let mut state = self.core.lock_shard(shard);
        f(state.engine.adversary())
    }

    /// Exclusive access to one shard's engine (tests and tooling; `&mut
    /// self` proves no caller is inside the handle).
    pub fn shard_engine_mut(&mut self, index: usize) -> &mut ProtectionEngine {
        // `&mut self` also means no batch is in flight, and the helper
        // lets go of the core before it hands a half back, so the core is
        // unshared here. Were it not, no shard could be lent exclusively:
        // the lookup then fails as an out-of-range index does.
        let shards =
            Arc::get_mut(&mut self.core).map_or_else(Default::default, |core| &mut core.shards[..]);
        let state = shards[index]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        &mut state.engine
    }
}

impl Core {
    fn is_killed(&self) -> bool {
        // Acquire pairs with the Release stores in trip_kill and the
        // batch drains: seeing the flag also sees the state that
        // justified it. The flag only latches, so no total order is
        // needed (protocol role `flag` in AUDIT.json).
        self.killed.load(Ordering::Acquire)
    }

    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        // A panic in an engine op must not wedge the handle: the engine's
        // state is still sound (it never holds half-updated invariants
        // across public calls), so recover the guard from the poison.
        self.shards[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Engages the world-kill: flips the flag and force-kills every shard
    /// so each is individually inert. Must not be called while holding a
    /// shard lock (it acquires all of them in turn).
    #[cold]
    fn trip_kill(&self) {
        self.killed.store(true, Ordering::Release);
        for index in 0..self.shards.len() {
            self.lock_shard(index).engine.force_kill();
        }
    }

    /// Finishes propagating a world-kill that a drain flagged while it
    /// held a shard lock, so every shard is individually inert. Call it
    /// with no lock held.
    fn finish_world_kill(&self) {
        if self.is_killed() {
            self.trip_kill();
        }
    }

    /// Drains the runs `spans` of `runs`, one shard after another, noting
    /// each run's failure in `failures`: the part of a batch one thread
    /// drains, the caller's or the helper's.
    fn drain_spans(
        &self,
        runs: &Runs,
        spans: &[Span],
        addr_of: &impl Fn(usize) -> u64,
        exec_op: &mut impl FnMut(&mut ProtectionEngine, usize) -> Result<()>,
        failures: &mut Failures,
    ) {
        for span in spans {
            let run = &runs.order[span.start..span.end];
            if let Err(failure) = self.drain_shard_guarded(span.shard, run, addr_of, exec_op) {
                failures.note(failure);
            }
        }
    }

    /// [`drain_shard`](Self::drain_shard) over a non-empty `run`, failing
    /// closed if it panics. A panicked run is an engine bug, not
    /// tampering, but the response is the same: flag the world-kill (the
    /// caller finishes it) and fail the shard's whole run from its first
    /// index rather than unwinding into the caller or silently dropping
    /// ops. (`lock_shard` recovers the poisoned lock.)
    fn drain_shard_guarded(
        &self,
        shard: usize,
        run: &[usize],
        addr_of: &impl Fn(usize) -> u64,
        exec_op: &mut impl FnMut(&mut ProtectionEngine, usize) -> Result<()>,
    ) -> DrainResult {
        catch_unwind(AssertUnwindSafe(|| {
            self.drain_shard(shard, run, addr_of, exec_op)
        }))
        .unwrap_or_else(|_| {
            self.killed.store(true, Ordering::Release);
            let address = addr_of(run[0]);
            Err((run[0], ToleoError::IntegrityViolation { address }))
        })
    }

    /// Drains `run` — the batch indices `shard` owns, in batch order —
    /// under that shard's lock: `exec_op` serves one index at a time,
    /// exactly as a caller's own loop of single ops would, each served op
    /// counted in the shard's `ops_served`, and the only thing done per
    /// [`KILL_POLL_OPS`]-op chunk is the kill poll. Returns the failing
    /// batch index; ops after it are not attempted.
    fn drain_shard(
        &self,
        shard: usize,
        run: &[usize],
        addr_of: &impl Fn(usize) -> u64,
        exec_op: &mut impl FnMut(&mut ProtectionEngine, usize) -> Result<()>,
    ) -> DrainResult {
        let mut state = self.lock_shard(shard);
        if state.quarantined {
            // This whole run is addressed to a frozen shard: refuse it.
            let address = addr_of(run[0]);
            return Err((run[0], ToleoError::ShardQuarantined { shard, address }));
        }
        for chunk in run.chunks(KILL_POLL_OPS) {
            // A device-level failure seen by another caller trips the
            // world-kill while this run was draining: abort promptly.
            // Acquire is the hot half of the flag protocol — on x86 it
            // costs nothing over Relaxed, and on ARM it avoids the full
            // fence a SeqCst load would issue every chunk.
            if self.killed.load(Ordering::Acquire) {
                return Err((
                    chunk[0],
                    ToleoError::IntegrityViolation {
                        address: addr_of(chunk[0]),
                    },
                ));
            }
            let failure = chunk.iter().find_map(|&i| {
                if let Err(e) = exec_op(&mut state.engine, i) {
                    return Some((i, e));
                }
                // Counted as it lands: a failure or an unwind later in
                // the chunk cannot take it back.
                state.ops_served += 1;
                None
            });
            if let Some((index, e)) = failure {
                if state.engine.is_killed() && !self.is_killed() && state.escalate_after_kill(&e) {
                    // Only the flag here: trip_kill() locks every
                    // shard and we hold this one. The caller
                    // finishes the kill once no lock is held.
                    self.killed.store(true, Ordering::Release);
                }
                return Err((index, e));
            }
        }
        Ok(())
    }
}

/// A batch as its caller handed it in.
#[derive(Debug, Clone, Copy)]
enum BatchOps<'a> {
    Write(&'a [(u64, Block)]),
    Read(&'a [u64]),
}

impl BatchOps<'_> {
    fn len(self) -> usize {
        match self {
            BatchOps::Write(writes) => writes.len(),
            BatchOps::Read(addrs) => addrs.len(),
        }
    }

    fn addr(self, i: usize) -> u64 {
        match self {
            BatchOps::Write(writes) => writes[i].0,
            BatchOps::Read(addrs) => addrs[i],
        }
    }
}

/// One occupied shard's run: its batch indices are
/// `Runs::order[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    shard: usize,
    start: usize,
    end: usize,
}

/// A batch split by owning shard.
#[derive(Debug, Default)]
struct Runs {
    /// Every batch index, grouped by shard in ascending shard order and
    /// in batch order within a shard.
    order: Vec<usize>,
    /// The occupied shards' runs, in ascending shard order.
    spans: Vec<Span>,
}

impl Runs {
    /// Splits batch indices `0..len` among `shards` shards by `shard_of`
    /// (a counting sort, so each run keeps batch order).
    fn split(len: usize, shards: usize, shard_of: impl Fn(usize) -> usize) -> Runs {
        let owners: Vec<usize> = (0..len).map(shard_of).collect();
        // Each shard's op count, then the position its next index goes to.
        let mut next = vec![0usize; shards];
        for &shard in &owners {
            next[shard] += 1;
        }
        let mut spans = Vec::new();
        let mut start = 0;
        for (shard, slot) in next.iter_mut().enumerate() {
            let count = std::mem::replace(slot, start);
            if count > 0 {
                spans.push(Span {
                    shard,
                    start,
                    end: start + count,
                });
            }
            start += count;
        }
        let mut order = vec![0; len];
        for (i, &shard) in owners.iter().enumerate() {
            order[next[shard]] = i;
            next[shard] += 1;
        }
        Runs { order, spans }
    }

    /// The batch indices of `spans`, a contiguous slice of `self.spans`.
    fn indices(&self, spans: &[Span]) -> &[usize] {
        match (spans.first(), spans.last()) {
            (Some(first), Some(last)) => &self.order[first.start..last.end],
            _ => &[],
        }
    }
}

/// A batch's failures reduced to the one it reports: the smallest
/// failing index, tracked per severity, because a security-relevant
/// failure (tamper, quarantine, unreachable device, lost block) must
/// never be masked by a benign, retryable one (e.g. `DeviceFull`) that
/// sits earlier in the batch. The reduction does not depend on the order
/// failures arrive in, so the caller's and the helper's halves merge into
/// the answer one thread draining every run would give.
#[derive(Debug, Default)]
struct Failures {
    severe: Option<(usize, ToleoError)>,
    other: Option<(usize, ToleoError)>,
}

impl Failures {
    fn note(&mut self, (index, error): (usize, ToleoError)) {
        let slot = if error_is_severe(&error) {
            &mut self.severe
        } else {
            &mut self.other
        };
        if slot.as_ref().is_none_or(|(first, _)| index < *first) {
            *slot = Some((index, error));
        }
    }

    fn absorb(&mut self, other: Failures) {
        for failure in [other.severe, other.other].into_iter().flatten() {
            self.note(failure);
        }
    }

    fn into_result(self) -> std::result::Result<(), BatchError> {
        match self.severe.or(self.other) {
            Some((index, error)) => Err(BatchError { index, error }),
            None => Ok(()),
        }
    }
}

/// The helper's half of a batch, owned: its runs and a copy of their
/// ops. The mailbox keeps one, so its buffers are reused from batch to
/// batch.
#[derive(Default)]
struct Job {
    /// The shards, held from the offer until the half is drained.
    core: Option<Arc<Core>>,
    write: bool,
    /// `runs.spans` is the helper's half; `runs.order` the whole batch's.
    runs: Runs,
    /// Indexed by batch index; only the half's indices are filled.
    addrs: Vec<u64>,
    /// Indexed by batch index: a write's payload, or a read's block.
    blocks: Vec<Block>,
    failures: Failures,
    /// Halves the helper thread has drained.
    #[cfg(test)]
    drained: u64,
}

impl std::fmt::Debug for Job {
    // Payloads and read blocks are plaintext: never printed.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("write", &self.write)
            .field("runs", &self.runs.spans.len())
            .field("failures", &self.failures)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Fills the job with `handed`, the upper runs of `runs`, and the
    /// shards they drain on.
    fn load(&mut self, core: &Arc<Core>, ops: BatchOps<'_>, runs: &Runs, handed: &[Span]) {
        self.core = Some(Arc::clone(core));
        self.write = matches!(ops, BatchOps::Write(_));
        self.runs.order.clone_from(&runs.order);
        self.runs.spans.clear();
        self.runs.spans.extend_from_slice(handed);
        self.addrs.resize(ops.len(), 0);
        self.blocks.resize(ops.len(), [0u8; CACHE_BLOCK_BYTES]);
        for &i in runs.indices(handed) {
            self.addrs[i] = ops.addr(i);
            if let BatchOps::Write(writes) = ops {
                self.blocks[i] = writes[i].1;
            }
        }
        self.failures = Failures::default();
    }

    /// Drains the job's runs through the same guarded drain as the
    /// caller's, then lets go of the shards.
    fn drain(&mut self) {
        let Some(core) = self.core.take() else {
            return;
        };
        let Job {
            write,
            runs,
            addrs,
            blocks,
            failures,
            ..
        } = self;
        core.drain_spans(
            runs,
            &runs.spans,
            &|i| addrs[i],
            &mut |engine, i| {
                if *write {
                    engine.write(addrs[i], &blocks[i])
                } else {
                    engine.read(addrs[i]).map(|block| blocks[i] = block)
                }
            },
            failures,
        );
        #[cfg(test)]
        {
            self.drained += 1;
        }
    }
}

/// A drain's failure: the failing batch index with its error.
type DrainResult = std::result::Result<(), (usize, ToleoError)>;

/// Whether `e` is security-relevant (must never be masked by a benign
/// failure earlier in a batch): tampering, a quarantined shard, an
/// unreachable freshness device, or a block lost to a recovery scrub
/// (data the adversary destroyed).
fn error_is_severe(e: &ToleoError) -> bool {
    matches!(
        e,
        ToleoError::IntegrityViolation { .. }
            | ToleoError::ShardQuarantined { .. }
            | ToleoError::DeviceUnavailable { .. }
            | ToleoError::PageLost { .. }
    )
}

/// Derives a shard's 48-byte key material from the root key: each 16-byte
/// subkey (XTS data, XTS tweak, MAC) keys AES-128 as a PRF over a block
/// encoding the shard index, the subkey's role and the recovery
/// generation, so no two shards — no shard and the root, and no re-keyed
/// shard and its compromised predecessor — ever share a key. The
/// generation fits the block's last byte: it never exceeds
/// [`RECOVERY_BUDGET`] (asserted in [`recovery`]).
fn derive_shard_key(root: &[u8; 48], shard: u64, generation: u64) -> [u8; 48] {
    let mut out = [0u8; 48];
    for (role, subkey) in crate::seal::split_key_material(root)
        .into_iter()
        .enumerate()
    {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&shard.to_le_bytes());
        block[8] = role as u8;
        block[9..15].copy_from_slice(b"shard/");
        block[15] = generation as u8;
        out[role * 16..(role + 1) * 16]
            .copy_from_slice(&Aes128::new(&subkey).encrypt_block(&block));
    }
    out
}

/// Splitmix64-style derivation of a shard's device RNG seed: shards must
/// draw independent stealth-base streams or identical pages on different
/// shards would reveal correlated versions, and a re-keyed shard's device
/// draws a fresh one. `shard` is below [`MAX_SHARDS`] and the generation
/// fits a byte, so distinct (shard, generation) pairs salt distinct
/// inputs.
fn derive_shard_seed(root_seed: u64, shard: u64, generation: u64) -> u64 {
    let salted = shard ^ (generation << 32);
    let mut z = root_seed ^ (salted.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LINES_PER_PAGE;

    fn sharded(shards: usize) -> ShardedEngine {
        ShardedEngine::new(ToleoConfig::small(), shards, [0x5cu8; 48]).unwrap()
    }

    #[test]
    fn rejects_zero_and_excessive_shard_counts() {
        for shards in [0, MAX_SHARDS + 1] {
            assert!(matches!(
                ShardedEngine::new(ToleoConfig::small(), shards, [0u8; 48]),
                Err(ToleoError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn single_ops_roundtrip_across_shards() {
        let e = sharded(4);
        for page in 0..16u64 {
            let addr = page * PAGE_BYTES as u64;
            e.write(addr, &[page as u8; 64]).unwrap();
        }
        for page in 0..16u64 {
            let addr = page * PAGE_BYTES as u64;
            assert_eq!(e.read(addr).unwrap(), [page as u8; 64]);
        }
        assert_eq!(e.stats().writes, 16);
        assert_eq!(e.stats().reads, 16);
        assert_eq!(e.robustness_stats().ops_served, 32);
    }

    #[test]
    fn pages_route_to_expected_shards() {
        let e = sharded(4);
        for page in 0..32u64 {
            assert_eq!(e.shard_of_page(page), (page % 4) as usize);
            // Every line of a page routes to the same shard.
            for line in [0usize, 17, 63] {
                let addr = page * PAGE_BYTES as u64 + (line * CACHE_BLOCK_BYTES) as u64;
                assert_eq!(e.shard_of_addr(addr), (page % 4) as usize);
            }
        }
    }

    #[test]
    fn batch_roundtrip_and_unwritten_zeros() {
        let e = sharded(3);
        let writes: Vec<(u64, Block)> = (0..64u64).map(|i| (i * 4096, [i as u8; 64])).collect();
        e.write_batch(&writes).unwrap();
        // Interleave written and never-written addresses.
        let addrs: Vec<u64> = (0..128u64).map(|i| i * 4096).collect();
        let blocks = e.read_batch(&addrs).unwrap();
        for (i, block) in blocks.iter().enumerate() {
            let expect = if i < 64 { [i as u8; 64] } else { [0u8; 64] };
            assert_eq!(*block, expect, "address {i}");
        }
    }

    #[test]
    fn duplicate_addresses_in_one_write_batch_keep_batch_order() {
        let e = sharded(4);
        let ops: Vec<(u64, Block)> = (0..10u8).map(|v| (0x3000, [v; 64])).collect();
        e.write_batch(&ops).unwrap();
        assert_eq!(e.read(0x3000).unwrap(), [9u8; 64]);
    }

    #[test]
    fn empty_batches_are_noops() {
        let e = sharded(2);
        e.write_batch(&[]).unwrap();
        assert!(e.read_batch(&[]).unwrap().is_empty());
        assert_eq!(e.stats(), EngineStats::default());
    }

    #[test]
    fn tamper_on_one_shard_quarantines_only_that_shard() {
        let mut e = sharded(4);
        for page in 0..8u64 {
            e.write(page * 4096, &[1u8; 64]).unwrap();
        }
        // Corrupt a block owned by shard 2 (page 2).
        e.with_adversary(2 * 4096, |dram| dram.corrupt_data(2 * 4096, 13, 0xa5));
        assert!(matches!(
            e.read(2 * 4096),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        // Containment: only shard 2 is frozen; the world lives on.
        assert!(!e.is_killed(), "tamper must quarantine, not world-kill");
        assert!(e.is_shard_quarantined(2));
        assert_eq!(e.robustness_stats().quarantined_shards, 1);
        // The quarantined shard refuses; its frozen forensic record stays
        // with the shard.
        assert_eq!(
            e.read(2 * 4096),
            Err(ToleoError::ShardQuarantined {
                shard: 2,
                address: 2 * 4096
            })
        );
        let frozen = e.per_shard_stats()[2];
        // Shard 2 owned pages 2 and 6 of the 8 written, plus the detecting
        // read; the refused read is not in it.
        assert_eq!(frozen.writes, 2);
        assert_eq!(frozen.reads, 1);
        assert!(e.write(6 * 4096, &[0u8; 64]).is_err(), "page 6 is shard 2");
        // Every healthy shard keeps serving reads, writes and frees.
        for page in [0u64, 1, 3, 4, 5, 7] {
            assert_eq!(e.read(page * 4096).unwrap(), [1u8; 64], "page {page}");
            e.write(page * 4096, &[2u8; 64]).unwrap();
        }
        e.free_page(3).unwrap();
        // Only shard 2's engine is dead.
        for shard in 0..4 {
            assert_eq!(e.shard_engine_mut(shard).is_killed(), shard == 2);
        }
        // The frozen record's two homes agree: what the shard reports
        // while quarantined is what recovery hands over.
        assert_eq!(e.per_shard_stats()[2], frozen);
        assert_eq!(e.recover_shard(2).unwrap().forensic.stats, frozen);
    }

    #[test]
    fn batch_containing_tampered_block_quarantines_owner_only() {
        let e = sharded(4);
        let writes: Vec<(u64, Block)> = (0..16u64).map(|i| (i * 4096, [i as u8; 64])).collect();
        e.write_batch(&writes).unwrap();
        e.with_adversary(5 * 4096, |dram| dram.corrupt_data(5 * 4096, 0, 0x01));
        let addrs: Vec<u64> = (0..16u64).map(|i| i * 4096).collect();
        assert!(matches!(
            e.read_batch(&addrs),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        assert!(!e.is_killed());
        assert!(e.is_shard_quarantined(1), "page 5 belongs to shard 1");
        assert_eq!(e.robustness_stats().quarantined_shards, 1);
        // A batch over the healthy shards' pages drains around the
        // quarantined member.
        let healthy: Vec<u64> = (0..16u64)
            .filter(|i| i % 4 != 1)
            .map(|i| i * 4096)
            .collect();
        let blocks = e.read_batch(&healthy).unwrap();
        assert_eq!(blocks.len(), 12);
        // A batch touching the quarantined shard refuses.
        assert!(matches!(
            e.read_batch(&[0, 4096]),
            Err(ToleoError::ShardQuarantined { shard: 1, .. })
        ));
    }

    #[test]
    fn batch_reports_tamper_over_earlier_benign_error() {
        // A batch whose lowest-index failure is benign (out-of-range) but
        // which also trips a tamper on another shard must surface the
        // integrity violation — the caller has to learn the shard died.
        let e = sharded(2);
        e.write(4096, &[7u8; 64]).unwrap(); // page 1 -> shard 1
        e.with_adversary(4096, |dram| dram.corrupt_data(4096, 3, 0x40));
        let out_of_range = e.config().protected_pages() * PAGE_BYTES as u64; // shard 0
        let err = e.read_batch_indexed(&[out_of_range, 4096]).unwrap_err();
        assert!(matches!(err.error, ToleoError::IntegrityViolation { .. }));
        assert_eq!(err.index, 1, "the violation's own index, not 0");
        assert!(!e.is_killed());
        assert!(e.is_shard_quarantined(1));
    }

    #[test]
    fn indexed_batches_report_the_failing_op_index() {
        let e = sharded(4);
        let writes: Vec<(u64, Block)> = (0..12u64).map(|i| (i * 4096, [i as u8; 64])).collect();
        e.write_batch_indexed(&writes).unwrap();
        // Corrupt page 7 (shard 3): the read batch must name index 7.
        e.with_adversary(7 * 4096, |dram| dram.corrupt_data(7 * 4096, 5, 0x11));
        let addrs: Vec<u64> = (0..12u64).map(|i| i * 4096).collect();
        let err = e.read_batch_indexed(&addrs).unwrap_err();
        assert_eq!(err.index, 7);
        assert!(matches!(
            err.error,
            ToleoError::IntegrityViolation { address } if address == 7 * 4096
        ));
        // Re-running the batch: shard 3's queue (indices 3, 7, 11) refuses
        // at its first op with the quarantine error; other shards served.
        let err = e.read_batch_indexed(&addrs).unwrap_err();
        assert_eq!(err.index, 3);
        assert!(matches!(
            err.error,
            ToleoError::ShardQuarantined { shard: 3, .. }
        ));
    }

    #[test]
    fn device_full_propagates_without_killing() {
        let mut cfg = ToleoConfig::small();
        cfg.device_capacity_bytes = cfg.flat_array_bytes(); // zero dynamic blocks
        let e = ShardedEngine::new(cfg, 2, [1u8; 48]).unwrap();
        // Second hot write to one line forces a flat->uneven upgrade, which
        // the zero-block dynamic region rejects.
        e.write(0x40, &[1u8; 64]).unwrap();
        assert!(matches!(
            e.write(0x40, &[2u8; 64]),
            Err(ToleoError::DeviceFull { .. })
        ));
        assert!(!e.is_killed(), "resource exhaustion is not tampering");
        assert_eq!(e.robustness_stats().quarantined_shards, 0);
        // The engine still serves.
        assert_eq!(e.read(0x40).unwrap(), [1u8; 64]);
    }

    #[test]
    fn retry_exhaustion_escalates_to_world_kill() {
        // Every UPDATE times out: the channel burns its whole budget, the
        // engine cannot verify freshness, and — unlike a tamper — this
        // escalates past quarantine to the world-kill.
        let mut plan = FaultPlanConfig::uniform(9, 0.0);
        plan.update.timeout = 1.0;
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let e = ShardedEngine::new_with_robustness(
            ToleoConfig::small(),
            4,
            [1u8; 48],
            Some(plan),
            policy,
        )
        .unwrap();
        match e.write(0x40, &[1u8; 64]) {
            Err(ToleoError::DeviceUnavailable { attempts: 3, .. }) => {}
            other => panic!("expected DeviceUnavailable, got {other:?}"),
        }
        assert!(e.is_killed(), "unreachable device must world-kill");
        let rs = e.robustness_stats();
        assert_eq!(rs.quarantined_shards, 0, "this is not a quarantine");
        assert!(rs.world_killed);
        assert_eq!(rs.channel.retry_exhaustions, 1);
        // Every shard — not just the one that saw the fault — is inert.
        for page in 0..8u64 {
            assert!(e.read(page * 4096).is_err(), "page {page}");
        }
    }

    /// A panic inside a shard's run (here: the engine's alignment assert
    /// on the batch's second address) must not reach the caller or drop
    /// the run's ops silently: it fails closed into the world-kill. The
    /// panicking run is the upper of the batch's two runs, the helper's
    /// half; where the platform has a helper, the batch is retried on a
    /// fresh engine until the helper, not a take-back, drained it.
    #[test]
    fn panicked_shard_run_fails_closed_into_world_kill() {
        let b = [9u8; 64];
        // Indices 1 and 2 -> shard 1, whose run panics at index 2 and is
        // failed whole, from its first batch index. Shard 0's run (index
        // 0, then 3..) keeps the caller busy while the helper takes it.
        let mut batch = vec![(0, b), (4096 + 64, b), (4096 + 3, b)];
        batch.extend((1..64u64).map(|line| (line * 64, b)));
        let mut warm = batch.clone();
        warm[2].0 = 4096 + 128;
        for _ in 0..200 {
            let e = sharded(4);
            // Until the helper, spawned by the first of these, has drained
            // one: it then polls for the next offer.
            for _ in 0..1_000 {
                e.write_batch(&warm).unwrap();
                if e.helper_drained() != Some(0) {
                    break;
                }
            }
            let before = e.helper_drained();
            let err = e.write_batch_indexed(&batch).unwrap_err();
            // Shard 1's run fails from index 1 — unless the kill its panic
            // flagged reached shard 0's kill poll first, which then aborts
            // from index 0: the two halves run at once.
            let first = if err.index == 0 { 0 } else { 4096 + 64 };
            assert!(err.index <= 1, "{err:?}");
            assert!(matches!(
                err.error,
                ToleoError::IntegrityViolation { address } if address == first
            ));
            assert!(e.is_killed(), "a panicked run must world-kill");
            for page in 0..4u64 {
                assert!(e.read(page * 4096).is_err(), "page {page}");
                assert!(e.write_batch(&[(page * 4096, b)]).is_err(), "page {page}");
            }
            // Done when there is no helper (one CPU: the caller drained
            // both halves) or the helper drained the panicking one;
            // retried when the caller took it back.
            if before.is_none() || e.helper_drained() != before {
                return;
            }
        }
        panic!("the helper never took the panicking half in 200 batches");
    }

    /// Batches drained by a caller and the helper together leave every
    /// shard as a twin fed the same ops one at a time does: equal
    /// snapshots and blocks on seeded traffic over 8 shards, and an equal
    /// `BatchError` and frozen `KillSnapshot` for a tamper in the caller's
    /// half, a tamper in the helper's half, and a quarantined shard in
    /// the helper's half.
    #[test]
    fn helper_drained_batches_match_a_sequential_twin() {
        const SHARDS: usize = 8;
        let mut state = 0x7ee1_u64;
        let mut next = move |bound: u64| {
            state = derive_shard_seed(state, 0, 0);
            state % bound
        };
        // 256 ops over 64 pages, 8 per shard: every shard is occupied,
        // and `shard_of_page` puts shards 0..4 in the caller's half and
        // 4..8 in the helper's.
        let mut traffic = || -> Vec<u64> {
            (0..256)
                .map(|_| next(64) * PAGE_BYTES as u64 + next(16) * 64)
                .collect()
        };
        let write = |e: &ShardedEngine, twin: &ShardedEngine, addrs: &[u64], tag: u8| {
            let writes: Vec<(u64, Block)> = (addrs.iter().enumerate())
                .map(|(i, &a)| (a, [tag ^ i as u8; 64]))
                .collect();
            e.write_batch(&writes).unwrap();
            for (addr, block) in &writes {
                twin.write(*addr, block).unwrap();
            }
        };
        let (batched, twin) = (sharded(SHARDS), sharded(SHARDS));
        // 24 rounds, and on until the helper (where there is one) has
        // drained a half: a helper that wakes after the caller finished
        // its own half loses the offer to a take-back, and the twin's
        // singles between batches can outlast the helper's polling.
        let mut round = 0u32;
        while round < 24 || batched.helper_drained() == Some(0) && round < 2_000 {
            let addrs = traffic();
            if round.is_multiple_of(2) {
                write(&batched, &twin, &addrs, round as u8);
            } else {
                let want: Vec<Block> = addrs.iter().map(|&a| twin.read(a).unwrap()).collect();
                assert_eq!(batched.read_batch(&addrs).unwrap(), want, "round {round}");
            }
            assert_eq!(batched.snapshot(), twin.snapshot(), "round {round}");
            round += 1;
        }
        if let Some(drained) = batched.helper_drained() {
            assert!(drained > 0, "the helper drained none of {round} batches");
        }

        for (case, shard, quarantined_first) in [
            ("tamper in the caller's half", 1, false),
            ("tamper in the helper's half", 6, false),
            ("quarantined shard in the helper's half", 5, true),
        ] {
            let (batched, twin) = (sharded(SHARDS), sharded(SHARDS));
            let addrs = traffic();
            write(&batched, &twin, &addrs, 0x3c);
            let victim = *addrs
                .iter()
                .find(|&&a| batched.shard_of_addr(a) == shard)
                .unwrap();
            for e in [&batched, &twin] {
                e.with_adversary(victim, |dram| dram.corrupt_data(victim, 0, 0x01));
                if quarantined_first {
                    assert!(e.read(victim).is_err());
                }
            }
            let err = batched.read_batch_indexed(&addrs).unwrap_err();
            // The twin serves every op; its first failure is the batch's.
            let singles: Vec<Result<Block>> = addrs.iter().map(|&a| twin.read(a)).collect();
            let (index, first) = singles
                .iter()
                .enumerate()
                .find_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
                .unwrap();
            assert_eq!(
                err,
                BatchError {
                    index,
                    error: first.clone()
                },
                "{case}"
            );
            // Both refuse alike, and each shard keeps its frozen snapshot.
            let refusal = batched.read(victim);
            assert!(
                matches!(refusal, Err(ToleoError::ShardQuarantined { .. })),
                "{case}"
            );
            assert_eq!(refusal, twin.read(victim), "{case}");
            assert_eq!(batched.snapshot(), twin.snapshot(), "{case}");
            assert!(!batched.is_killed(), "{case}");
        }
    }

    /// The same panic through the single-op entry points: they are runs
    /// of one through the same guarded drain, so the caller gets an
    /// error, not an unwind, and the poisoned shard serves nothing more.
    #[test]
    fn single_op_panic_fails_closed_into_world_kill() {
        let e = sharded(4);
        let b = [9u8; 64];
        e.write(4096, &b).unwrap();
        assert!(matches!(
            e.write(4096 + 3, &b),
            Err(ToleoError::IntegrityViolation { address }) if address == 4096 + 3
        ));
        assert!(e.is_killed(), "a panicked single op must world-kill");
        for page in 0..4u64 {
            assert!(e.read(page * 4096).is_err(), "page {page}");
            assert!(e.write(page * 4096, &b).is_err(), "page {page}");
        }
        assert_eq!(e.robustness_stats().ops_served, 1, "only the first write");
    }

    /// Ops that landed ahead of a panicking op in the same chunk are
    /// still counted: each is counted as it lands, before the unwind.
    #[test]
    fn ops_served_ahead_of_a_panic_in_the_same_chunk_are_counted() {
        let e = sharded(4);
        let b = [9u8; 64];
        assert!(matches!(
            e.write_batch(&[(4096, b), (4096 + 64, b), (4096 + 3, b)]),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        assert!(e.is_killed(), "a panicked run must world-kill");
        assert_eq!(e.robustness_stats().ops_served, 2, "the two aligned writes");
    }

    /// An in-flight batch on a healthy shard drains to completion
    /// through a peer's quarantine: containment means the healthy
    /// shard's caller is neither aborted nor refused.
    #[test]
    fn healthy_shard_observes_peer_quarantine_within_one_poll_interval() {
        let e = sharded(2);
        // Shard 1 (odd pages) gets a long queue of real, crypto-heavy
        // reads so the batch is still draining when the tamper lands.
        let mut victim_writes: Vec<(u64, Block)> = Vec::new();
        for page in 0..64u64 {
            for line in 0..8u64 {
                victim_writes.push(((2 * page + 1) * 4096 + line * 64, [7u8; 64]));
            }
        }
        e.write_batch(&victim_writes).unwrap();
        e.write(0, &[1u8; 64]).unwrap(); // page 0 -> shard 0
        e.with_adversary(0, |dram| dram.corrupt_data(0, 0, 0xff));
        let addrs: Vec<u64> = (0..100_000usize)
            .map(|i| victim_writes[i % victim_writes.len()].0)
            .collect();
        let batch_result = std::thread::scope(|s| {
            let handle = s.spawn(|| e.read_batch(&addrs));
            // Let the healthy worker get well into its queue, then trip
            // the quarantine on shard 0 from this thread.
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(e.read(0).is_err());
            handle.join().expect("batch worker must not panic")
        });
        let blocks = batch_result.expect("healthy shard's batch must complete");
        assert_eq!(blocks.len(), addrs.len());
        assert!(!e.is_killed());
        assert!(e.is_shard_quarantined(0));
    }

    /// Satellite regression: merged stats during a partial quarantine
    /// combine the live shards' current counters with the quarantined
    /// shard's frozen snapshot, without double-counting.
    #[test]
    fn partial_quarantine_stats_merge_frozen_and_live_shards() {
        let e = sharded(4);
        for page in 0..4u64 {
            e.write(page * 4096, &[1u8; 64]).unwrap();
        }
        // Quarantine shard 1 (page 1).
        e.with_adversary(4096, |dram| dram.corrupt_data(4096, 2, 0x08));
        assert!(e.read(4096).is_err());
        assert!(e.is_shard_quarantined(1));
        let frozen = e.per_shard_stats()[1];
        assert_eq!(frozen.writes, 1);
        assert_eq!(frozen.reads, 1, "the detecting read is in the snapshot");
        let before = e.stats();
        // Drive traffic through the three live shards only.
        let mut healthy_ops = 0u64;
        for round in 0..10u64 {
            for page in [0u64, 2, 3] {
                e.write(page * 4096, &[round as u8; 64]).unwrap();
                assert_eq!(e.read(page * 4096).unwrap(), [round as u8; 64]);
                healthy_ops += 2;
            }
        }
        let after = e.stats();
        let per_shard = e.per_shard_stats();
        // The quarantined shard stayed frozen...
        assert_eq!(per_shard[1], frozen);
        // ...the live shards advanced by exactly the healthy traffic...
        assert_eq!(after.writes, before.writes + healthy_ops / 2);
        assert_eq!(after.reads, before.reads + healthy_ops / 2);
        // ...and the aggregate is exactly the per-shard sum (no double
        // counting of frozen vs live counters).
        let mut summed = EngineStats::default();
        for s in &per_shard {
            summed.merge(s);
        }
        assert_eq!(after, summed);
    }

    #[test]
    fn robustness_stats_aggregate_channel_counters_across_shards() {
        let plan = FaultPlanConfig::uniform(3, 0.2);
        let e = ShardedEngine::new_with_robustness(
            ToleoConfig::small(),
            2,
            [2u8; 48],
            Some(plan),
            RetryPolicy::default(),
        )
        .unwrap();
        for page in 0..50u64 {
            e.write(page * 4096, &[page as u8; 64]).unwrap();
            assert_eq!(e.read(page * 4096).unwrap(), [page as u8; 64]);
        }
        let rs = e.robustness_stats();
        assert_eq!(rs.ops_served, 100);
        assert_eq!(rs.channel.ops, 100, "every device op crossed the channel");
        assert!(rs.channel.faults_injected > 0, "20% rate must inject");
        assert_eq!(rs.channel.faults_absorbed, rs.channel.faults_injected);
        assert!(rs.channel.retries > 0);
        assert!(rs.channel.backoff_nanos > 0);
        assert_eq!(rs.channel.retry_exhaustions, 0);
        assert_eq!(rs.quarantined_shards, 0);
        assert!(!rs.world_killed);
    }

    #[test]
    fn shard_keys_and_seeds_are_pairwise_distinct() {
        let root = [0x42u8; 48];
        let keys: Vec<[u8; 48]> = (0..8).map(|s| derive_shard_key(&root, s, 0)).collect();
        for i in 0..keys.len() {
            assert_ne!(keys[i], root, "shard {i} must not reuse the root key");
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "shards {i}/{j} share key material");
            }
        }
        let seeds: Vec<u64> = (0..8).map(|s| derive_shard_seed(7, s, 0)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn aggregated_stats_sum_per_shard_stats() {
        let e = sharded(3);
        let writes: Vec<(u64, Block)> = (0..30u64).map(|i| (i * 4096, [1u8; 64])).collect();
        e.write_batch(&writes).unwrap();
        let per_shard = e.per_shard_stats();
        assert_eq!(per_shard.len(), 3);
        let total: u64 = per_shard.iter().map(|s| s.writes).sum();
        assert_eq!(total, 30);
        assert_eq!(e.stats().writes, 30);
        assert_eq!(e.device_stats().updates, 30);
        // 30 pages over 3 shards: balanced.
        for (i, s) in per_shard.iter().enumerate() {
            assert_eq!(s.writes, 10, "shard {i}");
        }
    }

    #[test]
    fn free_page_routes_and_scrambles() {
        let e = sharded(4);
        e.write(0x5000, &[3u8; 64]).unwrap();
        e.free_page(0x5000 / PAGE_BYTES as u64).unwrap();
        assert!(e.read(0x5000).is_err(), "freed page must be unreadable");
    }

    #[test]
    fn within_page_lines_stay_on_one_shard_through_reset_walks() {
        // Hot-line hammering with aggressive resets exercises the page
        // re-encryption slab walk entirely inside one shard.
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4;
        let e = ShardedEngine::new(cfg, 4, [9u8; 48]).unwrap();
        for l in 0..8u64 {
            e.write(0x2000 + l * 64, &[l as u8 + 1; 64]).unwrap();
        }
        for _ in 0..300 {
            e.write(0x2000 + 9 * 64, &[0xee; 64]).unwrap();
        }
        assert!(e.stats().pages_reencrypted > 0, "resets must fire");
        for l in 0..8u64 {
            assert_eq!(e.read(0x2000 + l * 64).unwrap(), [l as u8 + 1; 64]);
        }
        let per_shard = e.per_shard_stats();
        let active: Vec<usize> = (0..4).filter(|&s| per_shard[s].writes > 0).collect();
        assert_eq!(active, vec![e.shard_of_addr(0x2000)]);
    }

    /// Two callers draining batches over the same shards at once: each
    /// convoys on the shard locks the other holds, and neither may lose,
    /// reorder or double-count an op. The barrier releases both into
    /// every round together, so the drains overlap by construction.
    #[test]
    fn two_callers_batching_over_the_same_shards_stay_isolated() {
        const ROUNDS: u64 = 64;
        const BATCH: u64 = 256;
        let e = sharded(8);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (e, barrier) = (&e, &barrier);
                s.spawn(move || {
                    // Both callers touch the same 32 pages (4 per shard),
                    // on disjoint lines: caller `t` owns lines 8t..8t+8.
                    let addrs: Vec<u64> = (0..BATCH)
                        .map(|i| (i % 32) * PAGE_BYTES as u64 + (8 * t + i / 32) * 64)
                        .collect();
                    for round in 0..ROUNDS {
                        let writes: Vec<(u64, Block)> = addrs
                            .iter()
                            .zip(0u64..)
                            .map(|(&a, i)| (a, [(round * 2 + t + i) as u8; 64]))
                            .collect();
                        barrier.wait();
                        e.write_batch(&writes).unwrap();
                        let blocks = e.read_batch(&addrs).unwrap();
                        for (block, (addr, written)) in blocks.iter().zip(&writes) {
                            assert_eq!(block, written, "caller {t} round {round} addr {addr:#x}");
                        }
                    }
                });
            }
        });
        let issued = 2 * ROUNDS * BATCH;
        let stats = e.stats();
        assert_eq!(stats.writes, issued);
        assert_eq!(stats.reads, issued);
        assert_eq!(e.robustness_stats().ops_served, 2 * issued);
        assert!(!e.is_killed());
        assert_eq!(e.robustness_stats().quarantined_shards, 0);
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let e = sharded(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let e = &e;
                s.spawn(move || {
                    for i in 0..LINES_PER_PAGE as u64 {
                        let addr = (t * 16 + i % 16) * PAGE_BYTES as u64 + (i / 16) * 64;
                        e.write(addr, &[t as u8; 64]).unwrap();
                        assert_eq!(e.read(addr).unwrap(), [t as u8; 64]);
                    }
                });
            }
        });
        assert_eq!(e.stats().writes, 4 * LINES_PER_PAGE as u64);
        assert!(!e.is_killed());
        assert_eq!(e.robustness_stats().quarantined_shards, 0);
    }
}
