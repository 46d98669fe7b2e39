//! Shard recovery: scrub and re-key in one walk, then re-admit.
//!
//! Quarantine alone is terminal — one tamper event permanently retires
//! 1/N of protected capacity, so a hostile tenant could consume shards
//! forever. This module turns quarantine into a bounded outage, the
//! middle rung of the escalation ladder:
//!
//! 1. **Quarantine** — tamper detection freezes the owning shard alone
//!    (forensic [`KillSnapshot`], healthy peers keep serving).
//! 2. **Recover** — [`ShardedEngine::recover_shard`] *re-keys* the frozen
//!    shard's untrusted memory in place (fresh AES-PRF-derived key
//!    material and device RNG seed under a bumped generation): one page
//!    walk *scrubs* every resident block, re-verifying its ciphertext +
//!    MAC at the old device's version, and re-seals it under the new key
//!    at the version the fresh device already holds — one READ per page,
//!    no UPDATE per line. Then it *re-admits* the shard to service.
//!    Blocks that no longer verify are **lost**: they
//!    refuse with [`ToleoError::PageLost`] on the next read instead of
//!    serving silent zeroes, until a fresh write repopulates the address.
//! 3. **World-kill** — a shard tampered *again* after consuming its
//!    per-shard recovery budget signals a determined adversary parked on
//!    one address range; containment has failed and every shard fails
//!    closed (as it does for a device-level failure at any rung).
//!
//! The whole recovery cycle runs under the quarantined shard's own lock,
//! from the kill-flag check to the clearing of `quarantined`: healthy
//! shards never block on it and observe nothing of it, and a caller
//! routed to the recovering shard waits on that lock and then finds the
//! shard either still quarantined (the recovery failed) or fully
//! re-admitted. Recovery has no state of its own to lock. The ledger of
//! lost addresses is the engine's: the fresh engine adopts it with the
//! arena it describes, so a marker outlives the generation that lost it,
//! and the engine refuses its own lost lines. The shard's key generation
//! and scrub counters live in its `Shard`, beside the engine, because
//! recovery replaces the engine. The handle keeps only the immutable
//! inputs a re-key derives from.

use super::{derive_shard_key, derive_shard_seed, ShardedEngine};
use crate::channel::RetryPolicy;
use crate::engine::{KillSnapshot, ProtectionEngine};
use crate::error::{Result, ToleoError};
use crate::fault::FaultPlanConfig;

/// Recoveries one shard may consume before its next quarantine escalates
/// to the world-kill: enough to ride out a realistic fault-plus-tamper
/// campaign, small enough that an adversary replaying tamper against one
/// shard cannot spin the recovery plane forever.
pub const RECOVERY_BUDGET: u64 = 3;

// The recovery generation salts one byte of the key-derivation PRF
// block: a generation past 255 would reuse key material.
const _: () = assert!(RECOVERY_BUDGET <= u8::MAX as u64);

/// Recovery counters summed over all shards: the `recovery` field of
/// [`ShardedEngine::robustness_stats`].
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
    /// Blocks that verified and were moved to the new keys.
    pub blocks_intact: u64,
    /// Blocks that failed re-verification, now marked lost.
    pub blocks_lost: u64,
    /// The quarantined engine's frozen counters, preserved as the
    /// forensic record (the re-admitted engine restarts its stats from
    /// zero).
    pub forensic: Box<KillSnapshot>,
}

/// What a re-key derives a recovered shard's engine from, retained
/// unchanged from construction. The root key never leaves the derivation
/// PRF, and `Debug` redacts it.
pub(super) struct RekeyInputs {
    pub(super) root_key: [u8; 48],
    pub(super) fault_plan: Option<FaultPlanConfig>,
    pub(super) policy: RetryPolicy,
}

impl std::fmt::Debug for RekeyInputs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RekeyInputs")
            .field("root_key", &"<redacted>")
            .field("fault_plan", &self.fault_plan)
            .field("policy", &self.policy)
            .finish()
    }
}

impl ShardedEngine {
    /// Scrubs, re-keys and re-admits the quarantined `shard`.
    ///
    /// The whole cycle runs under the shard's own lock: healthy shards
    /// keep serving throughout and observe nothing of it. On success
    /// the shard serves again under generation-fresh key material and a
    /// fresh device seed. Its untrusted memory is re-keyed in place: one
    /// page walk moves every block that still verifies to the new key,
    /// bit-identically, under the version the fresh device already holds
    /// (one READ per born page, no UPDATE), blank lines included, and
    /// each page's birth moves with it. Lines that fail refuse
    /// with [`ToleoError::PageLost`] until rewritten. The quarantined
    /// engine's frozen counters are preserved in the returned
    /// [`RecoveryOutcome::forensic`] snapshot.
    ///
    /// # Errors
    ///
    /// [`ToleoError::IntegrityViolation`] once the world-kill has
    /// engaged — which is also the answer for a shard quarantined past
    /// its [`RECOVERY_BUDGET`], since that quarantine is itself the
    /// world-kill; [`ToleoError::InvalidConfig`] for an out-of-range
    /// shard index or a shard that is not quarantined. A fresh device
    /// unreachable for the walk's READs (under an armed fault plan) is
    /// [`ToleoError::DeviceUnavailable`], returned before anything moves:
    /// the shard is still quarantined, its memory as it was, and the call
    /// can simply be retried.
    pub fn recover_shard(&self, shard: usize) -> Result<RecoveryOutcome> {
        if shard >= self.shard_count() {
            return Err(ToleoError::InvalidConfig {
                detail: format!(
                    "recover_shard: shard {shard} outside 0..{}",
                    self.shard_count()
                ),
            });
        }
        let mut state = self.core.lock_shard(shard);
        // Checked under the lock: a quarantine past the budget flags the
        // world-kill before it releases this lock, so a quarantined shard
        // seen alive from here is within its budget.
        self.check_alive(0)?;
        if !state.quarantined {
            return Err(ToleoError::InvalidConfig {
                detail: format!("recover_shard: shard {shard} is not quarantined"),
            });
        }
        let generation = state.generation + 1;
        let forensic = Box::new(state.engine.kill_snapshot().unwrap_or_default());
        // Scrub and re-key: a fresh engine under generation-salted key
        // material and device seed — no cryptographic state survives the
        // compromise — takes over the frozen engine's untrusted memory,
        // every line that still verifies moved to the new key in place.
        let mut shard_cfg = self.cfg.clone();
        shard_cfg.rng_seed = derive_shard_seed(self.cfg.rng_seed, shard as u64, generation);
        let mut fresh = ProtectionEngine::try_new_with_robustness(
            shard_cfg,
            derive_shard_key(&self.rekey.root_key, shard as u64, generation),
            self.rekey.fault_plan,
            self.rekey.policy,
        )?;
        // An address lost in generation k and never rewritten is still
        // lost in k+1: the fresh engine adopts the old ledger with the
        // arena, the walk's losses added.
        let (pages_scrubbed, blocks_scrubbed, blocks_lost) = fresh.readmit(&mut state.engine)?;
        // Re-admit: swap the fresh engine in, bump the generation, then
        // clear `quarantined` — all before the shard lock drops, so the
        // first caller routed here sees a fully re-admitted shard.
        state.engine = fresh;
        state.generation = generation;
        state.pages_scrubbed += pages_scrubbed;
        state.blocks_scrubbed += blocks_scrubbed;
        state.blocks_lost += blocks_lost;
        state.quarantined = false;
        drop(state);
        Ok(RecoveryOutcome {
            shard,
            generation,
            pages_scrubbed,
            blocks_scrubbed,
            blocks_intact: blocks_scrubbed - blocks_lost,
            blocks_lost,
            forensic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PageSlot;
    use crate::config::{ToleoConfig, LINES_PER_PAGE, PAGE_BYTES};
    use crate::engine::{Block, UntrustedDram};
    use crate::version::UpperVersion;
    use toleo_crypto::mac::Tag56;

    fn sharded(shards: usize) -> ShardedEngine {
        ShardedEngine::new(ToleoConfig::small(), shards, [0x5cu8; 48]).unwrap()
    }

    /// Flips one ciphertext bit at `addr` and trips the owning shard's
    /// quarantine (or the world-kill) with the detecting read.
    fn tamper_and_detect(e: &ShardedEngine, addr: u64) {
        e.with_adversary(addr, |dram| dram.corrupt_data(addr, 0, 0x01));
        assert!(matches!(
            e.read(addr),
            Err(ToleoError::IntegrityViolation { .. })
        ));
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
        tamper_and_detect(e, victim);
        assert!(e.is_shard_quarantined(2));
        victim
    }

    /// One line of untrusted memory as an adversary observes it: page,
    /// UV, ciphertext and tag.
    type Line = (u64, UpperVersion, Option<Block>, Option<Tag56>);

    /// Every line of `dram`, in address order.
    fn image(dram: &UntrustedDram) -> Vec<Line> {
        let mut pages: Vec<_> = dram.pages().collect();
        pages.sort_unstable_by_key(|&(page, _)| page);
        let line = |(page, slot): (u64, &PageSlot), l| {
            (page, slot.uv(), slot.block(l).copied(), slot.tag(l))
        };
        let image = pages.into_iter().flat_map(|(page, id)| {
            (0..LINES_PER_PAGE).map(move |l| line((page, dram.slot(id)), l))
        });
        image.collect()
    }

    /// Re-admission asks the fresh device one READ per written page and
    /// never UPDATEs it; every intact block reads back bit-identically,
    /// and a line captured before the tamper and replayed after the
    /// re-key is caught.
    #[test]
    fn readmission_reads_each_page_once_and_updates_nothing() {
        let mut e = sharded(4);
        let page = |p: u64| p * PAGE_BYTES as u64;
        let fill = |addr: u64| [(addr / 64) as u8; 64];
        // Shard 2's pages 2, 6, 10 and 14, three lines each.
        let written: Vec<u64> = [2u64, 6, 10, 14]
            .iter()
            .flat_map(|&p| (0..3u64).map(move |l| page(p) + l * 64))
            .collect();
        for &addr in &written {
            e.write(addr, &fill(addr)).unwrap();
        }
        let stale = page(10) + 64;
        let capsule = e.with_adversary(stale, |dram| dram.capture(stale));
        let victim = page(6) + 128;
        tamper_and_detect(&e, victim);
        let out = e.recover_shard(2).unwrap();

        let fresh = e.shard_engine_mut(2);
        assert_eq!(fresh.device_stats().updates, 0);
        assert_eq!(fresh.device_stats().reads, 4, "one READ per written page");
        assert_eq!(fresh.stats().device_reads, 4);
        assert_eq!(out.pages_scrubbed, 4);
        assert_eq!((out.blocks_scrubbed, out.blocks_lost), (12, 1));
        assert_eq!(out.blocks_intact + out.blocks_lost, out.blocks_scrubbed);
        for &addr in written.iter().filter(|&&addr| addr != victim) {
            assert_eq!(e.read(addr).unwrap(), fill(addr), "addr {addr:#x}");
        }
        e.with_adversary(stale, |dram| dram.replay(&capsule));
        assert!(matches!(
            e.read(stale),
            Err(ToleoError::IntegrityViolation { address }) if address == stale
        ));
        assert!(e.is_shard_quarantined(2));
    }

    /// Recovery walks blank lines like resident ones and carries each
    /// page's birth to the fresh device. A blank capture replayed over a
    /// written line fails its check in the walk and is dropped as lost;
    /// the page's next write is no birth, so it blanks nothing: the
    /// rolled-back line reads `PageLost`, never zeros, and the page's
    /// other lines read back.
    #[test]
    fn recovery_drops_a_replayed_blank_and_keeps_pages_born() {
        let e = sharded(4);
        let page = 2 * PAGE_BYTES as u64;
        let [kept, rolled, later, blank] = [0u64, 1, 2, 3].map(|l| page + l * 64);
        e.write(kept, &[1; 64]).unwrap();
        let capsule = e.with_adversary(rolled, |dram| dram.capture(rolled));
        e.write(rolled, &[2; 64]).unwrap();
        e.with_adversary(rolled, |dram| dram.replay(&capsule));
        let tampered = 6 * PAGE_BYTES as u64;
        e.write(tampered, &[6; 64]).unwrap();
        tamper_and_detect(&e, tampered);
        let out = e.recover_shard(2).unwrap();
        assert_eq!((out.blocks_scrubbed, out.blocks_lost), (3, 2));
        e.write(later, &[3; 64]).unwrap();
        let address = rolled;
        assert_eq!(e.read(rolled), Err(ToleoError::PageLost { address }));
        assert_eq!(e.read(kept).unwrap(), [1; 64]);
        assert_eq!(e.read(later).unwrap(), [3; 64]);
        assert_eq!(e.read(blank).unwrap(), [0; 64]);
        assert!(!e.is_shard_quarantined(2) && !e.is_killed());
    }

    /// A re-key whose READs cannot reach the fresh device fails whole:
    /// `DeviceUnavailable`, and the shard is still quarantined with its
    /// generation, counters, frozen snapshot and every block, tag and UV
    /// of its untrusted memory as they were. No half re-keyed arena.
    #[test]
    fn failed_rekey_leaves_the_quarantined_shard_untouched() {
        let mut cfg = ToleoConfig::small();
        cfg.reset_log2 = 4;
        let mut plan = FaultPlanConfig::uniform(3, 0.0);
        plan.read.timeout = 1.0;
        let policy = RetryPolicy::default();
        let mut e =
            ShardedEngine::new_with_robustness(cfg, 2, [0x6e; 48], Some(plan), policy).unwrap();
        for p in 0..4u64 {
            for l in 0..8u64 {
                e.write(p * PAGE_BYTES as u64 + l * 64, &[(p * 8 + l) as u8; 64])
                    .unwrap();
            }
        }
        // Every READ times out, so the tamper is caught by a reset walk
        // over shard 0's page 0, driven by writes to another of its lines.
        let victim = 3 * 64;
        e.with_adversary(victim, |dram| dram.corrupt_data(victim, 5, 0x10));
        let caught = (0..2000).find_map(|_| e.write(9 * 64, &[1; 64]).err());
        assert!(matches!(
            caught,
            Some(ToleoError::IntegrityViolation { address }) if address == victim
        ));
        assert!(e.is_shard_quarantined(0));

        let state = |e: &mut ShardedEngine| {
            let generation = e.core.lock_shard(0).generation;
            let frozen = e.shard_engine_mut(0).kill_snapshot();
            let memory = image(e.shard_engine_mut(0).adversary());
            (generation, e.robustness_stats().recovery, frozen, memory)
        };
        let before = state(&mut e);
        assert!(matches!(
            e.recover_shard(0),
            Err(ToleoError::DeviceUnavailable { .. })
        ));
        assert!(e.is_shard_quarantined(0));
        assert!(!e.is_killed());
        assert_eq!(state(&mut e), before);
    }

    /// A page that is not born holds nothing to re-key: a line the
    /// adversary plants outside the protected range (no device ever
    /// versions it), or a freed page's stale lines. Recovery neither READs
    /// nor walks such a page and counts none of it lost, so a refused READ
    /// cannot fail every recovery of the shard. The freed page's next
    /// write is a birth that blanks it: its other lines read zeros.
    #[test]
    fn an_unborn_page_is_neither_read_nor_walked() {
        let mut e = sharded(4);
        let freed = 10 * PAGE_BYTES as u64;
        for l in 0..4u64 {
            e.write(freed + l * 64, &[l as u8 + 1; 64]).unwrap();
        }
        e.free_page(10).unwrap();
        let victim = quarantine_shard2(&e);
        let planted = (e.config().protected_pages() + 2) * PAGE_BYTES as u64;
        assert_eq!(e.shard_of_addr(planted), 2);
        e.with_adversary(planted, |dram| {
            let id = dram.ensure_slot(planted / PAGE_BYTES as u64);
            dram.slot_mut(id).set_block(0, [7; 64]);
        });
        let out = e.recover_shard(2).unwrap();
        assert_eq!((out.pages_scrubbed, out.blocks_lost), (2, 1));
        assert_eq!(e.shard_engine_mut(2).device_stats().reads, 2);
        assert_eq!(e.read(6 * PAGE_BYTES as u64).unwrap(), [7u8; 64]);
        assert!(matches!(e.read(victim), Err(ToleoError::PageLost { .. })));
        e.write(freed + 64, &[9; 64]).unwrap();
        assert_eq!(e.read(freed + 64).unwrap(), [9; 64]);
        for l in [0u64, 2, 3, 63] {
            assert_eq!(e.read(freed + l * 64).unwrap(), [0; 64], "line {l}");
        }
        assert!(!e.is_shard_quarantined(2));
    }

    /// A lost address refuses before the read does anything: no counter,
    /// no cache and no device moves, and a ciphertext the adversary puts
    /// back into the hole is never opened, so the refusal is `PageLost`
    /// and not a quarantine.
    #[test]
    fn a_lost_line_refuses_before_the_read_touches_anything() {
        let mut e = sharded(4);
        for page in 0..8u64 {
            e.write(page * PAGE_BYTES as u64, &[page as u8 + 1; 64])
                .unwrap();
        }
        let victim = 2 * PAGE_BYTES as u64;
        let capsule = e.with_adversary(victim, |dram| dram.capture(victim));
        tamper_and_detect(&e, victim);
        assert_eq!(e.recover_shard(2).unwrap().blocks_lost, 1);
        e.with_adversary(victim, |dram| dram.replay(&capsule));

        let before = e.shard_engine_mut(2).snapshot();
        assert_eq!(
            e.read(victim),
            Err(ToleoError::PageLost { address: victim })
        );
        assert!(!e.is_shard_quarantined(2));
        assert_eq!(e.shard_engine_mut(2).snapshot(), before);
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
        assert_eq!(out.forensic.stats.reads, 1, "forensic snapshot preserved");
        assert!(!e.is_shard_quarantined(2));
        assert_eq!(e.robustness_stats().quarantined_shards, 0);
        assert!(!e.is_killed());
        // The intact block on shard 2 reads back bit-identically under
        // the new generation's keys.
        assert_eq!(e.read(6 * PAGE_BYTES as u64).unwrap(), [7u8; 64]);
        // The tampered block is lost — a typed refusal, never silent
        // zeroes.
        assert_eq!(
            e.read(victim),
            Err(ToleoError::PageLost { address: victim })
        );
        assert_eq!(e.shard_of_addr(victim), 2);
        let rs = e.robustness_stats();
        assert_eq!(rs.recovery.recoveries, 1);
        assert_eq!(rs.recovery.blocks_lost, 1);
        assert_eq!(rs.recovery.blocks_still_lost, 1);
        assert_eq!(rs.recovery.pages_scrubbed, 2);
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
        assert_eq!(err.error, ToleoError::PageLost { address: addrs[3] });
        // A write batch covering the lost address clears the marker.
        e.write_batch(&[(victim, [0x33u8; 64])]).unwrap();
        let blocks = e.read_batch(&addrs).unwrap();
        assert_eq!(blocks[3], [0x33u8; 64]);
        assert_eq!(blocks[2], [7u8; 64]);
    }

    /// The ledger and the served-op count follow each op, not each chunk:
    /// a write (or a page free) that landed ahead of a failing op in the
    /// same run has cleared its markers and been counted.
    #[test]
    fn partial_write_chunk_clears_markers_of_ops_that_landed() {
        let e = sharded(4);
        let page = |p: u64| p * PAGE_BYTES as u64;
        let (lost_a, lost_b) = (page(2), page(6));
        for addr in [lost_a, lost_b] {
            e.write(addr, &[1u8; 64]).unwrap();
        }
        e.with_adversary(lost_b, |dram| dram.corrupt_data(lost_b, 3, 0x20));
        tamper_and_detect(&e, lost_a);
        assert_eq!(e.recover_shard(2).unwrap().blocks_lost, 2);
        // Out of the protected range, and routed to shard 2 like the rest.
        let bad = page(e.config().protected_pages() + 2);
        assert_eq!(e.shard_of_addr(bad), 2);

        let served = e.robustness_stats().ops_served;
        let err = e
            .write_batch_indexed(&[(lost_a, [0x5a; 64]), (bad, [0; 64])])
            .unwrap_err();
        assert_eq!(err.index, 1);
        assert!(matches!(err.error, ToleoError::PageOutOfRange { .. }));
        assert_eq!(e.robustness_stats().ops_served, served + 1);
        assert_eq!(e.robustness_stats().recovery.blocks_still_lost, 1);
        assert_eq!(e.read(lost_a).unwrap(), [0x5a; 64], "op 0 landed");

        // The same for a free: served, so its page's marker is gone even
        // though the next op on the shard fails.
        e.free_page(lost_b / PAGE_BYTES as u64).unwrap();
        assert!(e.write(bad, &[0; 64]).is_err());
        assert_eq!(e.robustness_stats().recovery.blocks_still_lost, 0);
        assert_eq!(e.robustness_stats().ops_served, served + 3);
    }

    #[test]
    fn re_quarantine_past_budget_world_kills() {
        let e = sharded(2);
        e.write(PAGE_BYTES as u64, &[2u8; 64]).unwrap();
        // The whole budget: tamper, quarantine, recover, repopulate.
        for generation in 1..=RECOVERY_BUDGET {
            e.write(0, &[generation as u8; 64]).unwrap();
            tamper_and_detect(&e, 0);
            assert!(e.is_shard_quarantined(0));
            assert!(!e.is_killed(), "quarantine {generation} is within budget");
            assert_eq!(e.recover_shard(0).unwrap().generation, generation);
            assert!(!e.is_shard_quarantined(0));
        }
        assert_eq!(e.robustness_stats().recovery.budget_kills, 0);
        // Tampered once more: the ladder's last rung — containment has
        // failed, and the quarantine itself is the world-kill.
        e.write(0, &[0xffu8; 64]).unwrap();
        tamper_and_detect(&e, 0);
        assert!(
            e.is_killed(),
            "budget-exhausted re-quarantine must world-kill"
        );
        let rs = e.robustness_stats();
        assert!(rs.world_killed);
        assert_eq!(rs.recovery.budget_kills, 1);
        assert_eq!(rs.recovery.recoveries, RECOVERY_BUDGET);
        // A recover attempt only ever sees the dead world.
        assert!(matches!(
            e.recover_shard(0),
            Err(ToleoError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn recover_refuses_healthy_out_of_range_and_budget_consumed_shards() {
        let e = sharded(2);
        assert!(
            matches!(e.recover_shard(0), Err(ToleoError::InvalidConfig { .. })),
            "healthy shard has nothing to recover"
        );
        assert!(
            matches!(e.recover_shard(9), Err(ToleoError::InvalidConfig { .. })),
            "out-of-range shard index"
        );
    }

    /// A lost marker belongs to the shard, not to the engine generation
    /// that lost it: it survives a second recovery, is cleared only by a
    /// rewrite, and the second scrub's losses join it.
    #[test]
    fn lost_markers_outlive_a_generation() {
        let e = sharded(4);
        let page = |p: u64| p * PAGE_BYTES as u64;
        let (kept, rewritten, third) = (page(2), page(6), page(10));
        for addr in [kept, rewritten, third, page(14)] {
            e.write(addr, &[1u8; 64]).unwrap();
        }
        e.with_adversary(kept, |dram| dram.corrupt_data(kept, 3, 0x20));
        tamper_and_detect(&e, rewritten);
        assert_eq!(e.recover_shard(2).unwrap().blocks_lost, 2);
        e.write(rewritten, &[2u8; 64]).unwrap();
        tamper_and_detect(&e, third);
        let out = e.recover_shard(2).unwrap();
        assert_eq!(out.generation, 2);
        assert_eq!(out.blocks_lost, 1, "the kept marker is no longer resident");
        for lost in [kept, third] {
            assert_eq!(e.read(lost), Err(ToleoError::PageLost { address: lost }));
            assert_eq!(e.shard_of_addr(lost), 2);
        }
        assert_eq!(e.read(rewritten).unwrap(), [2u8; 64]);
        assert_eq!(e.read(page(14)).unwrap(), [1u8; 64]);
        let rs = e.robustness_stats().recovery;
        assert_eq!(rs.blocks_lost, 3);
        assert_eq!(rs.blocks_still_lost, 2);
    }

    /// `RecoveryStats` is summed from the shards: after recovering two
    /// of them every field is the sum over the two outcomes.
    #[test]
    fn recovery_stats_sum_the_per_shard_counters() {
        let e = sharded(4);
        quarantine_shard2(&e);
        // Shard 1's adversary flips the bit back after the detection, so
        // its scrub finds every block intact.
        let restored = PAGE_BYTES as u64;
        tamper_and_detect(&e, restored);
        e.with_adversary(restored, |dram| dram.corrupt_data(restored, 0, 0x01));
        let outs = [e.recover_shard(2).unwrap(), e.recover_shard(1).unwrap()];
        assert_eq!(outs[0].blocks_lost, 1);
        assert_eq!(outs[1].blocks_lost, 0);
        let sum = |f: fn(&RecoveryOutcome) -> u64| outs.iter().map(f).sum::<u64>();
        let rs = e.robustness_stats().recovery;
        assert_eq!(
            rs,
            RecoveryStats {
                recoveries: 2,
                pages_scrubbed: sum(|o| o.pages_scrubbed),
                blocks_scrubbed: sum(|o| o.blocks_scrubbed),
                blocks_lost: 1,
                blocks_still_lost: 1,
                budget_kills: 0,
            }
        );
        assert!(outs.iter().all(|o| o.pages_scrubbed > 0));
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
        tamper_and_detect(&e, victim);
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
        assert_eq!(e.robustness_stats().recovery.blocks_still_lost, 1);
        e.free_page(victim / PAGE_BYTES as u64).unwrap();
        assert_eq!(
            e.robustness_stats().recovery.blocks_still_lost,
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
        tamper_and_detect(&e, 0);
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
        // Pinned from the derivation every shipped engine was built with:
        // generation 0 must stay byte-identical to it.
        let key = derive_shard_key(&root, 3, 0);
        assert_eq!(key[..8], [0xf1, 0x0d, 0x00, 0x06, 0xfa, 0xfe, 0x99, 0x38]);
        assert_eq!(key[40..], [0xfb, 0x38, 0xf0, 0x0e, 0x33, 0xde, 0xbd, 0x23]);
        assert_eq!(derive_shard_key(&root, 3, 1)[..4], [0x4a, 0x9f, 0xe3, 0x6a]);
        assert_eq!(derive_shard_seed(7, 3, 0), 0x6d1d_b36c_cba9_82d2);
        assert_eq!(derive_shard_seed(7, 3, 1), 0x739e_db7e_6de4_ce38);
        let mut keys: Vec<[u8; 48]> = Vec::new();
        for shard in 0..4u64 {
            for generation in 0..4u64 {
                keys.push(derive_shard_key(&root, shard, generation));
            }
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "key reuse across shard/generation");
            }
        }
        let seeds: Vec<u64> = (0..4u64)
            .flat_map(|s| (0..4u64).map(move |g| derive_shard_seed(7, s, g)))
            .collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len());
    }
}
