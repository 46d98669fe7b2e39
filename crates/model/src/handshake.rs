//! State-machine model of the quarantine → snapshot-freeze → recover/
//! re-key → re-admit handshake from `toleo-core`'s sharded engine.
//!
//! Three threads at one shared-atomic-action-per-step granularity:
//!
//! - **thread 0, recovery**: under the shard lock, detects tampering,
//!   sets the quarantine bit, bumps the epoch, freezes the audit
//!   snapshot; then (outside the lock) scrubs and re-keys, re-acquires
//!   the lock to install the fresh engine, and finally clears the bit
//!   and bumps the epoch to re-admit. If the recovery budget is
//!   exhausted it must escalate to the world-kill instead.
//! - **thread 1, a peer caller draining a batch on another shard**
//!   (`ShardedEngine::drain_shard`): serves one op at a time — a model
//!   step is an engine call in the shipped loop — polling the kill flag
//!   and quarantine epoch at every chunk boundary: the dynamic twin of
//!   the static `blocking-in-poll` rule.
//! - **thread 2, caller on the quarantined shard**: tries to serve one
//!   op — in the shipped code a single op is `drain_shard` over a run
//!   of one, the same ladder thread 1 walks, so under the lock it
//!   re-checks the bit and the kill flag before the engine is touched.
//!   On seeing the quarantine bit it parks, using the epoch as its wake
//!   condition, and retries when the epoch moves. A re-admission that
//!   forgets the epoch bump strands it forever, which the explorer
//!   reports as a deadlock (the lost-wakeup invariant).
//!
//! [`Bug`] injects one protocol mistake at a time; the test suite
//! proves the explorer detects every one of them, which is the evidence
//! that the clean model passing means something.

// audit: allow-file(secret, key_gen/data_gen are abstract generation counters in a protocol model, not key material)

use crate::sched::{Program, Step};

/// Ops the peer caller's batch drain serves in total, and per chunk.
const PEER_OPS: u8 = 4;
const CHUNK: u8 = 2;

/// One deliberately-injected protocol mistake. `None` is the shipped
/// protocol; every other variant must be caught by the explorer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bug {
    None,
    /// Bump the quarantine epoch before setting the bit: the epoch
    /// announces a state change that is not yet visible.
    EpochBeforeBit,
    /// Re-admit (clear the bit) without bumping the epoch: a parked
    /// caller waiting on the epoch never wakes.
    SkipReadmitEpochBump,
    /// Exhausted recovery budget but no world-kill: callers are left
    /// draining (or parked forever) against a dead shard.
    SkipKillOnBudget,
    /// The caller skips the quarantine check and serves anyway,
    /// observing the re-keyed shard's old-generation data.
    ServeDuringRekey,
    /// The batch drain stops polling at chunk boundaries, exceeding
    /// the declared `kill_poll_ops` bound (dynamic twin of the static
    /// `blocking-in-poll` finding).
    SkipChunkPoll,
}

/// Shared + per-thread state of the handshake. Cloned by the explorer
/// at every branch point; every field is plain data.
#[derive(Clone, Debug)]
pub struct Handshake {
    bug: Bug,
    /// When true the recovery budget is already spent: the only legal
    /// outcome of detection is the world-kill.
    budget_exhausted: bool,

    // Shared state of the quarantined shard B.
    lock: Option<usize>,
    bit: bool,
    epoch: u64,
    /// Bit flips (set or clear) not yet announced by an epoch bump.
    /// A bump with nothing pending is the announce-before-flip bug.
    pending_flips: u8,
    killed: bool,
    tampered: bool,
    snapshot_frozen: bool,
    /// Key generation advances at re-key; the engine's data generation
    /// catches up only when the fresh engine is installed. Serving
    /// while they differ is the old-generation-read violation.
    key_gen: u64,
    data_gen: u64,

    // Thread 0: recovery program counter.
    rec_pc: u8,

    // Thread 1: a peer caller draining a batch on another shard.
    peer_pc: u8,
    peer_done_ops: u8,
    peer_since_poll: u8,
    peer_seen_epoch: u64,

    // Thread 2: caller on the quarantined shard.
    caller_pc: u8,
    caller_wait_epoch: u64,
    caller_served: bool,

    violation: Option<String>,
}

impl Handshake {
    pub fn new(bug: Bug, budget_exhausted: bool) -> Self {
        Handshake {
            bug,
            budget_exhausted,
            lock: None,
            bit: false,
            epoch: 0,
            pending_flips: 0,
            killed: false,
            tampered: false,
            snapshot_frozen: false,
            key_gen: 0,
            data_gen: 0,
            rec_pc: 0,
            peer_pc: 0,
            peer_done_ops: 0,
            peer_since_poll: 0,
            peer_seen_epoch: 0,
            caller_pc: 0,
            caller_wait_epoch: 0,
            caller_served: false,
            violation: None,
        }
    }

    fn flip_bit(&mut self, to: bool) {
        self.bit = to;
        self.pending_flips += 1;
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
        if self.pending_flips == 0 {
            self.violation = Some(
                "quarantine epoch bumped before the bit flip it announces was visible: \
                 a peer polling now acts on a stale quarantine set"
                    .to_owned(),
            );
        } else {
            self.pending_flips -= 1;
        }
    }

    fn recovery_step(&mut self) -> Step {
        match self.rec_pc {
            // Quarantine phase, under the shard lock.
            0 => match self.lock {
                Some(_) => return Step::Blocked,
                None => self.lock = Some(0),
            },
            1 => self.tampered = true, // MAC mismatch detected on access
            2 => {
                if self.bug == Bug::EpochBeforeBit {
                    self.bump_epoch();
                } else {
                    self.flip_bit(true);
                }
            }
            3 => {
                if self.bug == Bug::EpochBeforeBit {
                    self.flip_bit(true);
                } else {
                    self.bump_epoch();
                }
            }
            4 => self.snapshot_frozen = true,
            5 => self.lock = None,
            // Budget gate: escalate or recover.
            6 => {
                if self.budget_exhausted {
                    if self.bug != Bug::SkipKillOnBudget {
                        self.killed = true;
                    }
                    self.rec_pc = 13;
                    return Step::Ran;
                }
            }
            // Recovery phase: scrub + re-key runs outside the lock,
            // the engine swap back under it.
            7 => self.key_gen += 1,
            8 => match self.lock {
                Some(_) => return Step::Blocked,
                None => self.lock = Some(0),
            },
            9 => {
                self.data_gen = self.key_gen;
                self.tampered = false;
            }
            10 => self.lock = None,
            // Re-admission: clear the bit, announce via the epoch.
            11 => self.flip_bit(false),
            12 => {
                if self.bug != Bug::SkipReadmitEpochBump {
                    self.bump_epoch();
                }
            }
            _ => return Step::Done,
        }
        self.rec_pc += 1;
        Step::Ran
    }

    fn peer_step(&mut self) -> Step {
        match self.peer_pc {
            // Chunk boundary: poll the kill flag and quarantine epoch.
            0 => {
                if self.killed {
                    self.peer_pc = 2;
                    return Step::Ran;
                }
                self.peer_seen_epoch = self.epoch;
                self.peer_since_poll = 0;
                self.peer_pc = if self.peer_done_ops == PEER_OPS { 2 } else { 1 };
                Step::Ran
            }
            // Serve one op of the current chunk.
            1 => {
                self.peer_done_ops += 1;
                self.peer_since_poll += 1;
                if self.peer_since_poll > CHUNK {
                    self.violation = Some(format!(
                        "kill-poll bound exceeded: peer worker served {} ops without \
                         polling the kill flag and quarantine epoch (declared bound {CHUNK})",
                        self.peer_since_poll
                    ));
                }
                let boundary = self.peer_since_poll >= CHUNK || self.peer_done_ops == PEER_OPS;
                if boundary && self.bug != Bug::SkipChunkPoll {
                    self.peer_pc = 0;
                } else if self.peer_done_ops == PEER_OPS {
                    self.peer_pc = 2;
                }
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn caller_step(&mut self) -> Step {
        match self.caller_pc {
            // Entry: check alive, then the quarantine bit.
            0 => {
                if self.killed {
                    self.caller_pc = 4;
                } else if self.bit && self.bug != Bug::ServeDuringRekey {
                    self.caller_wait_epoch = self.epoch;
                    self.caller_pc = 1;
                } else {
                    self.caller_pc = 2;
                }
                Step::Ran
            }
            // Parked: the epoch is the wake condition. A re-admission
            // that skips the bump leaves this thread Blocked forever,
            // which the explorer reports as a deadlock.
            1 => {
                if self.killed {
                    self.caller_pc = 4;
                    Step::Ran
                } else if self.epoch != self.caller_wait_epoch {
                    self.caller_pc = 0;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            // Acquire the shard lock.
            2 => match self.lock {
                Some(_) => Step::Blocked,
                None => {
                    self.lock = Some(2);
                    self.caller_pc = 3;
                    Step::Ran
                }
            },
            // Serve under the lock — `drain_shard` with a run of one:
            // the quarantine refusal and the chunk-boundary kill poll
            // come first, then the run's single chunk is served.
            3 => {
                if self.killed {
                    self.lock = None;
                    self.caller_pc = 4;
                } else if self.bit && self.bug != Bug::ServeDuringRekey {
                    self.lock = None;
                    self.caller_wait_epoch = self.epoch;
                    self.caller_pc = 1;
                } else {
                    if self.tampered {
                        self.violation = Some(
                            "op served a quarantined shard's tampered data: the quarantine \
                             check was bypassed before recovery completed"
                                .to_owned(),
                        );
                    } else if self.data_gen != self.key_gen {
                        self.violation = Some(format!(
                            "op observed a re-keyed shard's old-generation data: key \
                             generation {} but engine data generation {}",
                            self.key_gen, self.data_gen
                        ));
                    }
                    self.caller_served = true;
                    self.lock = None;
                    self.caller_pc = 4;
                }
                Step::Ran
            }
            _ => Step::Done,
        }
    }
}

impl Program for Handshake {
    fn thread_count(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize) -> Step {
        match tid {
            0 => self.recovery_step(),
            1 => self.peer_step(),
            _ => self.caller_step(),
        }
    }

    fn check(&self) -> Result<(), String> {
        match &self.violation {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    fn check_final(&self) -> Result<(), String> {
        if self.budget_exhausted {
            if !self.killed {
                return Err(
                    "recovery-budget exhaustion never reached the world-kill: workers \
                     were left running against an unrecoverable shard"
                        .to_owned(),
                );
            }
            return Ok(());
        }
        if self.bit {
            return Err("recovery completed but the shard was never re-admitted".to_owned());
        }
        if self.tampered || self.data_gen != self.key_gen {
            return Err(format!(
                "recovery completed but the engine still serves stale state \
                 (tampered={}, key_gen={}, data_gen={})",
                self.tampered, self.key_gen, self.data_gen
            ));
        }
        if !self.snapshot_frozen {
            return Err("quarantine ran but the audit snapshot was never frozen".to_owned());
        }
        if !self.caller_served {
            return Err(
                "the caller on the quarantined shard never completed its op despite \
                 re-admission (missed wakeup that did not deadlock)"
                    .to_owned(),
            );
        }
        if self.peer_done_ops != PEER_OPS {
            return Err(format!(
                "peer worker finished with {}/{PEER_OPS} ops despite no kill",
                self.peer_done_ops
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore_exhaustive, explore_random};

    #[test]
    fn clean_protocol_survives_a_capped_exhaustive_prefix() {
        let ex = explore_exhaustive(&Handshake::new(Bug::None, false), 1_500)
            .expect("shipped protocol holds on every explored interleaving");
        assert!(ex.schedules >= 1_500, "explored {} schedules", ex.schedules);
    }

    #[test]
    fn clean_protocol_survives_random_schedules() {
        let ex = explore_random(&Handshake::new(Bug::None, false), 0x701E0, 500)
            .expect("shipped protocol holds under random scheduling");
        assert_eq!(ex.schedules, 500);
    }

    #[test]
    fn budget_exhaustion_reaches_the_world_kill() {
        explore_random(&Handshake::new(Bug::None, true), 0x701E1, 500)
            .expect("kill escalation satisfies every invariant");
    }

    #[test]
    fn epoch_before_bit_is_caught() {
        let err = explore_exhaustive(&Handshake::new(Bug::EpochBeforeBit, false), 1_000)
            .expect_err("announce-before-flip must be detected");
        assert!(err.contains("before the bit flip"), "{err}");
    }

    #[test]
    fn skipped_readmit_epoch_bump_is_a_lost_wakeup() {
        let err = explore_random(
            &Handshake::new(Bug::SkipReadmitEpochBump, false),
            0x701E2,
            3_000,
        )
        .expect_err("parked caller must be reported stranded");
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn skipped_kill_on_budget_is_caught() {
        let err = explore_random(&Handshake::new(Bug::SkipKillOnBudget, true), 0x701E3, 3_000)
            .expect_err("missing world-kill must be detected");
        assert!(
            err.contains("world-kill") || err.contains("deadlock"),
            "{err}"
        );
    }

    #[test]
    fn serving_during_rekey_observes_old_generation_data() {
        let err = explore_random(
            &Handshake::new(Bug::ServeDuringRekey, false),
            0x701E4,
            3_000,
        )
        .expect_err("bypassed quarantine check must be detected");
        assert!(
            err.contains("old-generation") || err.contains("tampered"),
            "{err}"
        );
    }

    #[test]
    fn skipped_chunk_poll_exceeds_the_kill_poll_bound() {
        let err = explore_exhaustive(&Handshake::new(Bug::SkipChunkPoll, false), 1_000)
            .expect_err("unpolled batch loop must be detected");
        assert!(err.contains("kill-poll bound exceeded"), "{err}");
    }
}
