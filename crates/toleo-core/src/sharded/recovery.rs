//! Shard recovery: scrub, re-key, re-admit.
//!
//! Quarantine alone is terminal — one tamper event permanently retires
//! 1/N of protected capacity, so a hostile tenant could consume shards
//! forever. This module turns quarantine into a bounded outage, the
//! middle rung of the escalation ladder:
//!
//! 1. **Quarantine** — tamper detection freezes the owning shard alone
//!    (forensic [`KillSnapshot`], healthy peers keep serving).
//! 2. **Recover** — [`ShardedEngine::recover_shard`] *scrubs* the frozen
//!    shard (re-verifies every resident block's ciphertext + MAC +
//!    composed version against untrusted memory), *re-keys* it (fresh
//!    AES-PRF-derived key material and device RNG seed under a bumped
//!    generation, with every intact block re-encrypted), and *re-admits*
//!    it to service. Blocks that no longer verify are **lost**: they
//!    refuse with [`ToleoError::PageLost`] on the next read instead of
//!    serving silent zeroes, until a fresh write repopulates the address.
//! 3. **World-kill** — a shard tampered *again* after consuming its
//!    per-shard recovery budget signals a determined adversary parked on
//!    one address range; containment has failed and every shard fails
//!    closed (as it does for a device-level failure at any rung).
//!
//! The whole recovery cycle runs under the quarantined shard's own engine
//! lock: healthy shards never block on it, and in-flight batch drains
//! observe nothing but the quarantine-epoch bump when the shard is
//! re-admitted.

use super::{derive_shard_key_gen, derive_shard_seed_gen, ShardedEngine};
use crate::channel::RetryPolicy;
use crate::engine::{KillSnapshot, ProtectionEngine};
use crate::error::{Result, ToleoError};
use crate::fault::FaultPlanConfig;
use crate::layout;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// audit: allow-file(indexing, per-shard plane arrays are sized to the shard count at construction and every index is validated against shard_count first)

/// Default number of recoveries one shard may consume before its next
/// quarantine escalates to the world-kill: enough to ride out a
/// realistic fault-plus-tamper campaign, small enough that an adversary
/// replaying tamper against one shard cannot spin the recovery plane
/// forever.
pub const DEFAULT_RECOVERY_BUDGET: u64 = 3;

/// Upper bound on the per-shard recovery budget: the recovery generation
/// salts one byte of the key-derivation PRF block, so generations beyond
/// 255 would reuse key material.
pub const MAX_RECOVERY_BUDGET: u64 = 255;

/// Root key material the handle retains so a recovered shard can be
/// re-keyed. The Debug impl is redacted; the bytes never leave the
/// derivation PRF.
pub(super) struct RootKey(pub(super) [u8; 48]);

impl std::fmt::Debug for RootKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RootKey(<redacted>)")
    }
}

/// Aggregate recovery-plane counters, folded into
/// [`RobustnessStats`](super::RobustnessStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Completed recoveries across all shards.
    pub recoveries: u64,
    /// Pages walked by recovery scrubs (cumulative).
    pub pages_scrubbed: u64,
    /// Resident blocks re-verified by recovery scrubs (cumulative).
    pub blocks_scrubbed: u64,
    /// Blocks classified lost at scrub time (cumulative).
    pub blocks_lost: u64,
    /// Lost blocks not yet repopulated by a fresh write.
    pub blocks_still_lost: u64,
    /// Wall-clock nanoseconds spent scrubbing + re-keying (cumulative).
    pub rekey_nanos: u64,
    /// World-kills taken because a tampered shard had already consumed
    /// its recovery budget.
    pub budget_kills: u64,
}

/// Report of one completed [`ShardedEngine::recover_shard`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The recovered shard.
    pub shard: usize,
    /// The shard's new key/seed generation (1-based; generation 0 is the
    /// original derivation).
    pub generation: u64,
    /// Pages the scrub walked.
    pub pages_scrubbed: u64,
    /// Resident blocks the scrub re-verified.
    pub blocks_scrubbed: u64,
    /// Blocks that verified and were re-encrypted under the new keys.
    pub blocks_intact: u64,
    /// Blocks that failed re-verification, now marked lost.
    pub blocks_lost: u64,
    /// Wall-clock nanoseconds from scrub start to re-admission.
    pub rekey_nanos: u64,
    /// The quarantined engine's frozen counters, preserved as the
    /// forensic record (the re-admitted engine restarts its stats from
    /// zero).
    pub forensic: Box<KillSnapshot>,
}

/// Per-handle recovery state: retained re-keying inputs, per-shard
/// recovery generations, the lost-block ledger, and aggregate telemetry.
///
/// Lock discipline: `lost[shard]` and `totals` are leaf locks, acquired
/// only while holding (at most) one shard engine lock and never while
/// acquiring another lock.
// audit: allow(secret, RootKey's manual Debug impl already redacts the bytes)
#[derive(Debug)]
pub(super) struct RecoveryPlane {
    root_key: RootKey,
    fault_plan: Option<FaultPlanConfig>,
    policy: RetryPolicy,
    /// Max recoveries per shard before the ladder escalates. Mutated only
    /// through `&mut ShardedEngine`, so plain storage is safe to read
    /// through `&self`.
    pub(super) budget: u64,
    /// Completed recoveries per shard — equal to the shard's current key
    /// generation.
    recoveries: Box<[AtomicU64]>,
    /// Per-shard lost-address ledger.
    lost: Box<[Mutex<HashSet<u64>>]>,
    /// Per-shard ledger size: the hot-path hint that lets every operation
    /// skip the ledger lock while its shard has no losses (the
    /// overwhelmingly common case).
    lost_counts: Box<[AtomicU64]>,
    /// Aggregate telemetry (leaf lock; recoveries are rare).
    totals: Mutex<RecoveryTotals>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RecoveryTotals {
    recoveries: u64,
    pages_scrubbed: u64,
    blocks_scrubbed: u64,
    blocks_lost: u64,
    rekey_nanos: u64,
    budget_kills: u64,
}

impl RecoveryPlane {
    pub(super) fn new(
        shards: usize,
        root_key: [u8; 48],
        fault_plan: Option<FaultPlanConfig>,
        policy: RetryPolicy,
    ) -> Self {
        RecoveryPlane {
            root_key: RootKey(root_key),
            fault_plan,
            policy,
            budget: DEFAULT_RECOVERY_BUDGET,
            recoveries: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            lost: (0..shards).map(|_| Mutex::new(HashSet::new())).collect(),
            lost_counts: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            totals: Mutex::new(RecoveryTotals::default()),
        }
    }

    fn lock_lost(&self, shard: usize) -> MutexGuard<'_, HashSet<u64>> {
        self.lost[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_totals(&self) -> MutexGuard<'_, RecoveryTotals> {
        self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Completed recoveries of `shard` (its current key generation).
    pub(super) fn recoveries_of(&self, shard: usize) -> u64 {
        let shard_recoveries = &self.recoveries[shard];
        shard_recoveries.load(Ordering::Acquire)
    }

    /// Whether `shard` has consumed its whole recovery budget — the
    /// escalation ladder's last-rung test.
    pub(super) fn budget_consumed(&self, shard: usize) -> bool {
        self.recoveries_of(shard) >= self.budget
    }

    /// Records a world-kill taken because of an exhausted budget.
    pub(super) fn note_budget_kill(&self) {
        self.lock_totals().budget_kills += 1;
    }

    /// Whether `addr` on `shard` is marked lost. One atomic load while
    /// the shard has no losses.
    pub(super) fn is_lost(&self, shard: usize, addr: u64) -> bool {
        let lost_count = &self.lost_counts[shard];
        if lost_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.lock_lost(shard).contains(&addr)
    }

    /// Drops the lost marker for `addr` (a fresh write repopulated it).
    pub(super) fn clear_lost(&self, shard: usize, addr: u64) {
        let lost_count = &self.lost_counts[shard];
        if lost_count.load(Ordering::Acquire) == 0 {
            return;
        }
        if self.lock_lost(shard).remove(&addr) {
            lost_count.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Drops every lost marker on the page owning `addr`: the OS freed
    /// and scrambled the page, so subsequent accesses answer for its
    /// *new* contents, not for blocks lost from its previous life.
    pub(super) fn clear_lost_page(&self, shard: usize, addr: u64) {
        let lost_count = &self.lost_counts[shard];
        if lost_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let page = layout::page_of(addr);
        let mut set = self.lock_lost(shard);
        let before = set.len();
        set.retain(|&a| layout::page_of(a) != page);
        let removed = (before - set.len()) as u64;
        drop(set);
        if removed > 0 {
            lost_count.fetch_sub(removed, Ordering::AcqRel);
        }
    }

    /// Installs a scrub's lost addresses, unioned with any still-lost
    /// markers surviving from earlier generations (an address lost in
    /// generation k and never rewritten is still lost in generation k+1,
    /// even though the fresh engine never held it).
    fn install_losses(&self, shard: usize, lost: &[u64]) {
        if lost.is_empty() {
            return;
        }
        let mut set = self.lock_lost(shard);
        let mut added = 0u64;
        for &addr in lost {
            if set.insert(addr) {
                added += 1;
            }
        }
        drop(set);
        if added > 0 {
            let lost_count = &self.lost_counts[shard];
            lost_count.fetch_add(added, Ordering::AcqRel);
        }
    }

    /// Stats snapshot (see [`RecoveryStats`]).
    pub(super) fn stats(&self) -> RecoveryStats {
        let t = *self.lock_totals();
        let blocks_still_lost: u64 = self
            .lost_counts
            .iter()
            .map(|lost_count| lost_count.load(Ordering::Acquire))
            .sum();
        RecoveryStats {
            recoveries: t.recoveries,
            pages_scrubbed: t.pages_scrubbed,
            blocks_scrubbed: t.blocks_scrubbed,
            blocks_lost: t.blocks_lost,
            blocks_still_lost,
            rekey_nanos: t.rekey_nanos,
            budget_kills: t.budget_kills,
        }
    }
}

impl ShardedEngine {
    /// Max recoveries each shard may consume before its next quarantine
    /// escalates to the world-kill.
    pub fn recovery_budget(&self) -> u64 {
        self.recovery.budget
    }

    /// Sets the per-shard recovery budget, clamped to
    /// `1..=`[`MAX_RECOVERY_BUDGET`]. `&mut self` proves no caller is
    /// mid-flight while the ladder's last rung moves.
    pub fn set_recovery_budget(&mut self, budget: u64) {
        self.recovery.budget = budget.clamp(1, MAX_RECOVERY_BUDGET);
    }

    /// Recovery-plane counters (also folded into
    /// [`robustness_stats`](Self::robustness_stats)).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.stats()
    }

    /// Scrubs, re-keys and re-admits the quarantined `shard`.
    ///
    /// The whole cycle runs under the shard's own engine lock: healthy
    /// shards keep serving throughout and observe only the
    /// quarantine-epoch bump once the shard is re-admitted. On success
    /// the shard serves again under generation-fresh key material and a
    /// fresh device seed, with every block the scrub verified re-encrypted
    /// bit-identically; blocks that failed re-verification refuse with
    /// [`ToleoError::PageLost`] until rewritten. The quarantined engine's
    /// frozen counters are preserved in the returned
    /// [`RecoveryOutcome::forensic`] snapshot.
    ///
    /// # Errors
    ///
    /// [`ToleoError::IntegrityViolation`] once the world-kill has
    /// engaged; [`ToleoError::InvalidConfig`] for an out-of-range shard
    /// index, a shard that is not quarantined, or a shard that has
    /// consumed its recovery budget. Errors from re-keying (for example
    /// the freshness device unreachable while re-encrypting under an
    /// armed fault plan) abort the recovery with the shard still
    /// quarantined — the call can simply be retried.
    pub fn recover_shard(&self, shard: usize) -> Result<RecoveryOutcome> {
        self.check_alive(0)?;
        if shard >= self.shard_count() {
            return Err(ToleoError::InvalidConfig {
                detail: format!(
                    "recover_shard: shard {shard} outside 0..{}",
                    self.shard_count()
                ),
            });
        }
        let mut engine = self.lock_shard(shard);
        if !self.quarantine.is_quarantined(shard) {
            return Err(ToleoError::InvalidConfig {
                detail: format!("recover_shard: shard {shard} is not quarantined"),
            });
        }
        let generation = self.recovery.recoveries_of(shard) + 1;
        if generation > self.recovery.budget {
            return Err(ToleoError::InvalidConfig {
                detail: format!(
                    "recover_shard: shard {shard} consumed its recovery budget of {}",
                    self.recovery.budget
                ),
            });
        }
        let start = Instant::now();
        let forensic = Box::new(engine.kill_snapshot().unwrap_or_default());
        // Scrub: re-verify every resident block of the frozen engine
        // against untrusted memory, splitting intact plaintext from lost
        // addresses.
        let scrub = engine.scrub_extract();
        // Re-key: a fresh engine under generation-salted key material and
        // device seed — no cryptographic state survives the compromise —
        // with every intact block re-encrypted into it.
        let mut shard_cfg = self.cfg.clone();
        shard_cfg.rng_seed = derive_shard_seed_gen(self.cfg.rng_seed, shard as u64, generation);
        let mut fresh = ProtectionEngine::try_new_with_robustness(
            shard_cfg,
            derive_shard_key_gen(&self.recovery.root_key.0, shard as u64, generation as u8),
            self.recovery.fault_plan,
            self.recovery.policy,
        )?;
        for (addr, plaintext) in &scrub.intact {
            fresh.write(*addr, plaintext)?;
        }
        let rekey_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Re-admit: swap the fresh engine in, install the lost-block
        // markers, bump the generation, then clear the quarantine bit
        // (epoch bump) — all before the shard lock drops, so the first
        // peer routed here sees a fully re-admitted shard.
        *engine = fresh;
        let blocks_intact = scrub.intact.len() as u64;
        let blocks_lost = scrub.lost.len() as u64;
        self.recovery.install_losses(shard, &scrub.lost);
        let shard_recoveries = &self.recovery.recoveries[shard];
        shard_recoveries.store(generation, Ordering::Release);
        {
            let mut totals = self.recovery.lock_totals();
            totals.recoveries += 1;
            totals.pages_scrubbed += scrub.pages_scrubbed;
            totals.blocks_scrubbed += scrub.blocks_scrubbed;
            totals.blocks_lost += blocks_lost;
            totals.rekey_nanos += rekey_nanos;
        }
        self.quarantine.clear(shard);
        drop(engine);
        Ok(RecoveryOutcome {
            shard,
            generation,
            pages_scrubbed: scrub.pages_scrubbed,
            blocks_scrubbed: scrub.blocks_scrubbed,
            blocks_intact,
            blocks_lost,
            rekey_nanos,
            forensic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{derive_shard_key, derive_shard_seed};
    use super::*;
    use crate::config::{ToleoConfig, PAGE_BYTES};
    use crate::engine::Block;

    fn sharded(shards: usize) -> ShardedEngine {
        ShardedEngine::new(ToleoConfig::small(), shards, [0x5cu8; 48]).unwrap()
    }

    /// Writes pages 0..8 (value `page + 1`), corrupts the block on page 2
    /// (shard 2 at 4 shards), and trips the quarantine with a read.
    /// Returns the tampered address.
    fn quarantine_shard2(e: &ShardedEngine) -> u64 {
        for page in 0..8u64 {
            e.write(page * PAGE_BYTES as u64, &[page as u8 + 1; 64])
                .unwrap();
        }
        let victim = 2 * PAGE_BYTES as u64;
        e.with_adversary(victim, |dram| dram.corrupt_data(victim, 9, 0x77));
        assert!(matches!(
            e.read(victim),
            Err(ToleoError::IntegrityViolation { .. })
        ));
        assert!(e.is_shard_quarantined(2));
        victim
    }

    #[test]
    fn recover_readmits_shard_with_intact_data_and_lost_markers() {
        let e = sharded(4);
        let victim = quarantine_shard2(&e);
        let out = e.recover_shard(2).unwrap();
        assert_eq!(out.shard, 2);
        assert_eq!(out.generation, 1);
        assert_eq!(out.blocks_lost, 1, "exactly the corrupted block");
        assert_eq!(out.blocks_intact + out.blocks_lost, out.blocks_scrubbed);
        assert_eq!(out.pages_scrubbed, 2, "shard 2 owned pages 2 and 6");
        assert!(out.rekey_nanos > 0);
        assert_eq!(out.forensic.stats.reads, 1, "forensic snapshot preserved");
        assert!(!e.is_shard_quarantined(2));
        assert_eq!(e.quarantined_shard_count(), 0);
        assert!(!e.is_killed());
        // The intact block on shard 2 reads back bit-identically under
        // the new generation's keys.
        assert_eq!(e.read(6 * PAGE_BYTES as u64).unwrap(), [7u8; 64]);
        // The tampered block is lost — a typed refusal, never silent
        // zeroes.
        match e.read(victim) {
            Err(ToleoError::PageLost { shard: 2, address }) => assert_eq!(address, victim),
            other => panic!("expected PageLost, got {other:?}"),
        }
        let rs = e.robustness_stats();
        assert_eq!(rs.recovery.recoveries, 1);
        assert_eq!(rs.recovery.blocks_lost, 1);
        assert_eq!(rs.recovery.blocks_still_lost, 1);
        assert_eq!(rs.recovery.pages_scrubbed, 2);
        assert!(rs.recovery.rekey_nanos > 0);
        // A fresh write repopulates the lost address and drops the marker.
        e.write(victim, &[0xaa; 64]).unwrap();
        assert_eq!(e.read(victim).unwrap(), [0xaa; 64]);
        assert_eq!(e.robustness_stats().recovery.blocks_still_lost, 0);
    }

    #[test]
    fn batches_refuse_lost_addresses_and_writes_clear_markers() {
        let e = sharded(4);
        let victim = quarantine_shard2(&e);
        e.recover_shard(2).unwrap();
        // Batch order on shard 2's queue: index 2 (page 6, intact) then
        // index 3 (the lost block). The read refuses at the lost op's own
        // index, having served the ops before it.
        let addrs: Vec<u64> = [0u64, 1, 6, 2, 3]
            .iter()
            .map(|p| p * PAGE_BYTES as u64)
            .collect();
        let err = e.read_batch_indexed(&addrs).unwrap_err();
        assert_eq!(err.index, 3);
        assert!(matches!(err.error, ToleoError::PageLost { shard: 2, .. }));
        // A write batch covering the lost address clears the marker.
        e.write_batch(&[(victim, [0x33u8; 64])]).unwrap();
        let blocks = e.read_batch(&addrs).unwrap();
        assert_eq!(blocks[3], [0x33u8; 64]);
        assert_eq!(blocks[2], [7u8; 64]);
    }

    #[test]
    fn re_quarantine_past_budget_world_kills() {
        let mut e = sharded(2);
        e.set_recovery_budget(1);
        assert_eq!(e.recovery_budget(), 1);
        e.write(0, &[1u8; 64]).unwrap();
        e.write(PAGE_BYTES as u64, &[2u8; 64]).unwrap();
        // First tamper: quarantine, then recover (consumes the budget).
        e.with_adversary(0, |dram| dram.corrupt_data(0, 0, 0x01));
        assert!(e.read(0).is_err());
        assert!(e.is_shard_quarantined(0));
        e.recover_shard(0).unwrap();
        assert!(!e.is_shard_quarantined(0));
        assert!(!e.is_killed());
        // Repopulate and tamper the same shard again: the ladder's last
        // rung — containment has failed, the world fails closed.
        e.write(0, &[3u8; 64]).unwrap();
        e.with_adversary(0, |dram| dram.corrupt_data(0, 0, 0x01));
        assert!(e.read(0).is_err());
        assert!(
            e.is_killed(),
            "budget-exhausted re-quarantine must world-kill"
        );
        let rs = e.robustness_stats();
        assert!(rs.world_killed);
        assert_eq!(rs.recovery.budget_kills, 1);
        // A recover attempt on the killed world refuses.
        assert!(matches!(
            e.recover_shard(0),
            Err(ToleoError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn recover_refuses_healthy_out_of_range_and_budget_consumed_shards() {
        let mut e = sharded(2);
        assert!(
            matches!(e.recover_shard(0), Err(ToleoError::InvalidConfig { .. })),
            "healthy shard has nothing to recover"
        );
        assert!(
            matches!(e.recover_shard(9), Err(ToleoError::InvalidConfig { .. })),
            "out-of-range shard index"
        );
        // Recover once (generation 1), re-quarantine within the default
        // budget, then shrink the budget under it: the recovery refuses
        // and the quarantine stays in place.
        e.write(0, &[1u8; 64]).unwrap();
        e.with_adversary(0, |dram| dram.corrupt_data(0, 0, 0x01));
        assert!(e.read(0).is_err());
        e.recover_shard(0).unwrap();
        e.write(0, &[2u8; 64]).unwrap();
        e.with_adversary(0, |dram| dram.corrupt_data(0, 0, 0x01));
        assert!(e.read(0).is_err());
        assert!(!e.is_killed(), "second quarantine is within budget 3");
        e.set_recovery_budget(1);
        assert!(matches!(
            e.recover_shard(0),
            Err(ToleoError::InvalidConfig { .. })
        ));
        assert!(
            e.is_shard_quarantined(0),
            "a refused recovery leaves the quarantine in place"
        );
    }

    #[test]
    fn healthy_shards_serve_while_recovery_runs() {
        let e = sharded(4);
        // A big resident set on shard 2 so the scrub plus re-encryption
        // has real work to do while shard 1 keeps serving.
        let mut writes: Vec<(u64, Block)> = Vec::new();
        for k in 0..32u64 {
            let page = 2 + 4 * k;
            for line in 0..16u64 {
                writes.push((page * PAGE_BYTES as u64 + line * 64, [k as u8; 64]));
            }
        }
        e.write_batch(&writes).unwrap();
        e.write(PAGE_BYTES as u64, &[9u8; 64]).unwrap(); // shard 1
        let victim = 2 * PAGE_BYTES as u64;
        e.with_adversary(victim, |dram| dram.corrupt_data(victim, 0, 0x01));
        assert!(e.read(victim).is_err());
        std::thread::scope(|s| {
            let rec = s.spawn(|| e.recover_shard(2).unwrap());
            // Healthy shard 1 serves at least one op while the recovery
            // may still be in flight — recovery holds only shard 2's lock.
            loop {
                assert_eq!(e.read(PAGE_BYTES as u64).unwrap(), [9u8; 64]);
                if rec.is_finished() {
                    break;
                }
            }
            let out = rec.join().expect("recovery must not panic");
            assert_eq!(out.blocks_lost, 1);
            assert_eq!(out.blocks_intact, writes.len() as u64 - 1);
        });
        assert!(!e.is_shard_quarantined(2));
        // Every intact block reads back bit-identically post-recovery.
        for (addr, block) in &writes {
            if *addr == victim {
                continue;
            }
            assert_eq!(e.read(*addr).unwrap(), *block, "addr {addr:#x}");
        }
    }

    #[test]
    fn free_page_discards_lost_markers() {
        let e = sharded(4);
        let victim = quarantine_shard2(&e);
        e.recover_shard(2).unwrap();
        assert_eq!(e.recovery_stats().blocks_still_lost, 1);
        e.free_page(victim / PAGE_BYTES as u64).unwrap();
        assert_eq!(
            e.recovery_stats().blocks_still_lost,
            0,
            "a freed page answers for its new life, not its lost blocks"
        );
        e.write(victim, &[0x44u8; 64]).unwrap();
        assert_eq!(e.read(victim).unwrap(), [0x44u8; 64]);
    }

    #[test]
    fn recovery_rekeys_under_an_armed_fault_plan() {
        let e = ShardedEngine::new_with_robustness(
            ToleoConfig::small(),
            2,
            [8u8; 48],
            Some(FaultPlanConfig::uniform(21, 0.2)),
            RetryPolicy::default(),
        )
        .unwrap();
        for page in 0..8u64 {
            e.write(page * PAGE_BYTES as u64, &[5u8; 64]).unwrap();
        }
        e.with_adversary(0, |dram| dram.corrupt_data(0, 1, 0x10));
        assert!(e.read(0).is_err());
        let out = e.recover_shard(0).unwrap();
        assert_eq!(out.blocks_lost, 1);
        for page in [2u64, 4, 6] {
            assert_eq!(e.read(page * PAGE_BYTES as u64).unwrap(), [5u8; 64]);
        }
        assert!(e.robustness_stats().channel.faults_injected > 0);
    }

    #[test]
    fn generation_salted_derivations_are_fresh_and_gen0_compatible() {
        let root = [0x42u8; 48];
        assert_eq!(
            derive_shard_key_gen(&root, 3, 0),
            derive_shard_key(&root, 3),
            "generation 0 must stay byte-identical to the original derivation"
        );
        assert_eq!(derive_shard_seed_gen(7, 3, 0), derive_shard_seed(7, 3));
        let mut keys: Vec<[u8; 48]> = Vec::new();
        for shard in 0..4u64 {
            for generation in 0..4u8 {
                keys.push(derive_shard_key_gen(&root, shard, generation));
            }
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "key reuse across shard/generation");
            }
        }
        let seeds: Vec<u64> = (0..4u64)
            .flat_map(|s| (0..4u64).map(move |g| derive_shard_seed_gen(7, s, g)))
            .collect();
        let unique: HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
    }
}
