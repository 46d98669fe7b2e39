//! State-machine model of the sharded engine's quarantine / recovery /
//! world-kill protocol, derived step for step from `toleo-core`'s
//! `sharded.rs` and `sharded/recovery.rs` as shipped: one mutex per
//! shard guarding everything the shard owns (engine, `quarantined`, its
//! stamp, the key generation), plus two atomics on the handle — the
//! `Release`/`Acquire` world-kill flag and the `Relaxed` served-op
//! counter. A model step is one action another thread can observe: a
//! lock acquire or release, or one load / store / RMW on an atomic.
//! Plain accesses to lock-guarded fields ride on the neighbouring step.
//!
//! Two shards — `A` healthy, `B` holding one tampered block — and four
//! threads, the protocol's four critical sections:
//!
//! - [`DETECTOR`], [`CALLER`] and [`PEER`] run the *same* ladder, as the
//!   shipped code does (`run_on_shard` / `run_batch` → `drain_shard` →
//!   `finish_world_kill`): `check_alive`, lock the shard, refuse if it is
//!   quarantined, then per chunk poll the kill flag, serve the ops, flush
//!   the served count; on a failure `escalate_after_kill` marks and
//!   stamps the quarantine and, past the recovery budget, stores the
//!   kill flag — still under the lock — and the caller finishes the kill
//!   with `trip_kill` once no lock is held. The detector's run on `B` is
//!   one served op then the read that detects the tamper; the caller is
//!   a single op on `B`; the peer drains a chunked batch on `A`.
//! - [`RECOVERER`] is `recover_shard(B)`: it holds `B`'s lock from
//!   `check_alive` to the clearing of `quarantined`, so nobody observes
//!   a half-recovered shard. A caller that meets a quarantined shard is
//!   refused; nothing in the protocol waits for a recovery.
//!
//! [`Bug`] injects one mistake the shipped code could contain at a
//! time; the tests prove the explorer catches every one, which is the
//! evidence that the clean model passing means something. The
//! integration tests replay every ordering of the four critical
//! sections against a real `ShardedEngine` and require identical
//! outcomes and final state, so the model cannot drift from the code.

use crate::sched::{Program, Step};

/// Thread ids, which are also the critical sections the replay orders.
/// The first three index `Handshake::drains`.
pub const DETECTOR: usize = 0;
pub const CALLER: usize = 1;
pub const PEER: usize = 2;
pub const RECOVERER: usize = 3;

const SHARD_A: usize = 0;
const SHARD_B: usize = 1;

/// `toleo_core::sharded::RECOVERY_BUDGET`.
pub const RECOVERY_BUDGET: u64 = 3;
/// Ops in the peer's batch on `A`, and the model's `KILL_POLL_OPS`.
pub const PEER_OPS: u8 = 4;
const CHUNK: u8 = 2;

/// One deliberately injected protocol mistake. `None` is the shipped
/// protocol; every other variant must be caught by the explorer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Bug {
    None,
    /// `escalate_after_kill` finds the budget spent but does not store
    /// the kill flag.
    SkipKillOnBudget,
    /// `drain_shard` stops polling the kill flag at chunk boundaries.
    SkipChunkPoll,
    /// `drain_shard` serves without looking at `quarantined`.
    SkipAdmissionCheck,
    /// The admission check is taken before `lock_shard` instead of
    /// under it, so it can be stale by the time the op runs.
    AdmitBeforeLock,
    /// The kill flag is stored under a shard lock but the caller never
    /// runs `finish_world_kill`: the other shards' engines stay live.
    SkipFinishWorldKill,
    /// `recover_shard` calls `check_alive` before taking the shard lock
    /// instead of under it (the race PR 18 closed).
    CheckAliveBeforeLock,
    /// `trip_kill`, which locks every shard in turn, is called while
    /// the drain still holds its own shard's lock.
    TripKillUnderLock,
    /// The served-op flush is skipped when a chunk ends in a failure
    /// (what PR 20 fixed).
    SkipFlushOnFailure,
}

/// How a thread's call returned.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Outcome {
    Pending,
    /// Every op of the run was served.
    Served,
    /// Refused at admission: `ToleoError::ShardQuarantined`.
    ShardQuarantined,
    /// The detecting read, or any call that met the world-kill.
    IntegrityViolation,
    /// `recover_shard` returned `Ok`.
    Recovered,
    /// `recover_shard` found nothing to recover (`InvalidConfig`).
    NotQuarantined,
}

/// What the real engine's accessors report once every call has returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FinalState {
    pub killed: bool,
    pub quarantined_shards: u64,
    /// Shard `B`'s key generation (`A` is never recovered).
    pub generation: u64,
    pub budget_kills: u64,
    pub ops_served: u64,
    pub ops_at_last_quarantine: u64,
}

/// Everything one shard's mutex guards, plus the mutex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct Shard {
    holder: Option<usize>,
    /// The engine's own kill switch: frozen by a detection or force-killed
    /// by `trip_kill`. A killed engine fails every op.
    engine_killed: bool,
    quarantined: bool,
    ops_at_quarantine: u64,
    generation: u64,
    budget_kills: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum DrainPc {
    CheckAlive,
    EarlyAdmit,
    LockAdmit,
    Poll,
    Exec,
    Flush,
    Escalate,
    Stamp,
    Budget,
    Unlock,
    FinishKill,
    /// `trip_kill`'s walk over the shards, at this index.
    TripKill(usize),
    Done,
}

/// One caller on the one ladder: `check_alive`, `drain_shard` over its
/// run, `finish_world_kill`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Drain {
    shard: usize,
    ops: u8,
    /// Index of the op that reads the tampered block, if any.
    detects_at: Option<u8>,
    pc: DrainPc,
    next_op: u8,
    /// The chunk's `ServedFlush` count, not yet added to `ops_served`.
    unflushed: u64,
    served_after_kill: u8,
    outcome: Outcome,
}

impl Drain {
    fn new(shard: usize, ops: u8, detects_at: Option<u8>) -> Self {
        Drain {
            shard,
            ops,
            detects_at,
            pc: DrainPc::CheckAlive,
            next_op: 0,
            unflushed: 0,
            served_after_kill: 0,
            outcome: Outcome::Pending,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum RecoverPc {
    EarlyAlive,
    Lock,
    CheckAlive,
    Rekey,
    Done,
}

/// Shared + per-thread state, ghosts included: every field is plain
/// data, and two values are the same state to the explorer exactly when
/// every field is equal.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Handshake {
    bug: Bug,
    budget_spent: bool,
    shards: [Shard; 2],
    killed: bool,
    ops_served: u64,
    /// Ghost: ops that actually landed, whatever the counter says.
    landed: u64,
    drains: [Drain; 3],
    recover_pc: RecoverPc,
    recover_outcome: Outcome,
    violation: Option<String>,
}

impl Handshake {
    /// `budget_spent`: shard `B` has already consumed its
    /// [`RECOVERY_BUDGET`], so its next quarantine is the world-kill.
    pub fn new(bug: Bug, budget_spent: bool) -> Self {
        let mut shards = [Shard::default(); 2];
        if budget_spent {
            shards[SHARD_B].generation = RECOVERY_BUDGET;
        }
        Handshake {
            bug,
            budget_spent,
            shards,
            killed: false,
            ops_served: 0,
            landed: 0,
            drains: [
                Drain::new(SHARD_B, 2, Some(1)),
                Drain::new(SHARD_B, 1, None),
                Drain::new(SHARD_A, PEER_OPS, None),
            ],
            recover_pc: if bug == Bug::CheckAliveBeforeLock {
                RecoverPc::EarlyAlive
            } else {
                RecoverPc::Lock
            },
            recover_outcome: Outcome::Pending,
            violation: None,
        }
    }

    /// Runs thread `tid` with nobody else scheduled until it is
    /// [`Step::Done`] — one critical section of a sequential replay — or
    /// [`Step::Blocked`], which a lone thread can only be on a lock it
    /// holds itself.
    pub fn run_thread(&mut self, tid: usize) -> Step {
        loop {
            match self.step(tid) {
                Step::Ran => {}
                stopped => return stopped,
            }
        }
    }

    pub fn outcome(&self, tid: usize) -> Outcome {
        self.drains
            .get(tid)
            .map_or(self.recover_outcome, |d| d.outcome)
    }

    pub fn final_state(&self) -> FinalState {
        FinalState {
            killed: self.killed,
            quarantined_shards: self.shards.iter().filter(|s| s.quarantined).count() as u64,
            generation: self.shards[SHARD_B].generation,
            budget_kills: self.shards.iter().map(|s| s.budget_kills).sum(),
            ops_served: self.ops_served,
            ops_at_last_quarantine: self
                .shards
                .iter()
                .map(|s| s.ops_at_quarantine)
                .max()
                .unwrap_or(0),
        }
    }

    /// `lock_shard`: `false` (and no change) while another holder — or
    /// this thread itself — has the mutex.
    fn try_lock(&mut self, shard: usize, tid: usize) -> bool {
        if self.shards[shard].holder.is_some() {
            return false;
        }
        self.shards[shard].holder = Some(tid);
        true
    }

    fn unlock(&mut self, shard: usize) {
        self.shards[shard].holder = None;
    }

    fn drain_step(&mut self, tid: usize) -> Step {
        let mut d = self.drains[tid];
        let step = self.drain_advance(tid, &mut d);
        self.drains[tid] = d;
        step
    }

    fn drain_advance(&mut self, tid: usize, d: &mut Drain) -> Step {
        let failed = d.outcome == Outcome::IntegrityViolation;
        let chunk_start = if self.bug == Bug::SkipChunkPoll {
            DrainPc::Exec
        } else {
            DrainPc::Poll
        };
        match d.pc {
            // run_on_shard / run_batch: `self.check_alive(..)?`.
            DrainPc::CheckAlive => {
                if self.killed {
                    d.outcome = Outcome::IntegrityViolation;
                    d.pc = DrainPc::Done;
                } else if self.bug == Bug::AdmitBeforeLock {
                    d.pc = DrainPc::EarlyAdmit;
                } else {
                    d.pc = DrainPc::LockAdmit;
                }
            }
            // Bug only: `quarantined` consulted with the lock not held.
            DrainPc::EarlyAdmit => {
                if self.shards[d.shard].quarantined {
                    d.outcome = Outcome::ShardQuarantined;
                    d.pc = DrainPc::FinishKill;
                } else {
                    d.pc = DrainPc::LockAdmit;
                }
            }
            // drain_shard: `lock_shard`, then `if state.quarantined`.
            DrainPc::LockAdmit => {
                if !self.try_lock(d.shard, tid) {
                    return Step::Blocked;
                }
                let checks = !matches!(self.bug, Bug::SkipAdmissionCheck | Bug::AdmitBeforeLock);
                d.pc = if checks && self.shards[d.shard].quarantined {
                    d.outcome = Outcome::ShardQuarantined;
                    DrainPc::Unlock
                } else {
                    chunk_start
                };
            }
            // Chunk boundary: `self.killed.load(Acquire)`.
            DrainPc::Poll => {
                d.pc = if self.killed {
                    d.outcome = Outcome::IntegrityViolation;
                    DrainPc::Unlock
                } else {
                    DrainPc::Exec
                };
            }
            // `exec_op` on the locked engine.
            DrainPc::Exec => {
                let shard = &mut self.shards[d.shard];
                if shard.quarantined {
                    self.violation = Some(format!(
                        "admission check bypassed: thread {tid}'s op reached quarantined shard \
                         {}'s frozen engine",
                        d.shard
                    ));
                }
                if shard.engine_killed || d.detects_at == Some(d.next_op) {
                    // A dead engine fails every op; the detecting read's
                    // MAC mismatch engages the engine's kill switch
                    // itself, freezing its forensic snapshot.
                    shard.engine_killed = true;
                    d.outcome = Outcome::IntegrityViolation;
                } else {
                    d.next_op += 1;
                    d.unflushed += 1;
                    self.landed += 1;
                    if self.killed {
                        d.served_after_kill += 1;
                    }
                    if d.served_after_kill > CHUNK {
                        self.violation = Some(format!(
                            "kill-poll bound exceeded: thread {tid} served {} ops after the \
                             world-kill flag was set (declared bound {CHUNK})",
                            d.served_after_kill
                        ));
                    }
                }
                let failed = d.outcome == Outcome::IntegrityViolation;
                if failed || d.next_op == d.ops || d.next_op.is_multiple_of(CHUNK) {
                    d.pc = DrainPc::Flush;
                }
            }
            // `ServedFlush`: one `fetch_add` per chunk, failing or not.
            DrainPc::Flush => {
                if !(failed && self.bug == Bug::SkipFlushOnFailure) {
                    self.ops_served += d.unflushed;
                }
                d.unflushed = 0;
                d.pc = if failed {
                    DrainPc::Escalate
                } else if d.next_op == d.ops {
                    d.outcome = Outcome::Served;
                    DrainPc::Unlock
                } else {
                    chunk_start
                };
            }
            // `state.engine.is_killed() && !self.is_killed()`.
            DrainPc::Escalate => {
                d.pc = if self.shards[d.shard].engine_killed && !self.killed {
                    DrainPc::Stamp
                } else {
                    DrainPc::Unlock
                };
            }
            // escalate_after_kill: mark, and stamp with `ops_served`.
            DrainPc::Stamp => {
                let shard = &mut self.shards[d.shard];
                shard.quarantined = true;
                shard.ops_at_quarantine = self.ops_served;
                d.pc = if shard.generation >= RECOVERY_BUDGET {
                    DrainPc::Budget
                } else {
                    DrainPc::Unlock
                };
            }
            // Budget spent: count it and store the flag — only the flag,
            // this thread still holds a shard lock.
            DrainPc::Budget => {
                self.shards[d.shard].budget_kills += 1;
                if self.bug != Bug::SkipKillOnBudget {
                    self.killed = true;
                }
                d.pc = if self.bug == Bug::TripKillUnderLock {
                    DrainPc::TripKill(0)
                } else {
                    DrainPc::Unlock
                };
            }
            DrainPc::Unlock => {
                self.unlock(d.shard);
                d.pc = if self.bug == Bug::SkipFinishWorldKill {
                    DrainPc::Done
                } else {
                    DrainPc::FinishKill
                };
            }
            // finish_world_kill: `if self.is_killed() { self.trip_kill() }`,
            // whose own store of the flag changes nothing by then.
            DrainPc::FinishKill => {
                d.pc = if self.killed {
                    DrainPc::TripKill(0)
                } else {
                    DrainPc::Done
                };
            }
            // trip_kill: `self.lock_shard(index).engine.force_kill()`.
            DrainPc::TripKill(index) => {
                if !self.try_lock(index, tid) {
                    return Step::Blocked;
                }
                self.shards[index].engine_killed = true;
                self.unlock(index);
                d.pc = if index + 1 < self.shards.len() {
                    DrainPc::TripKill(index + 1)
                } else {
                    DrainPc::Done
                };
            }
            DrainPc::Done => return Step::Done,
        }
        Step::Ran
    }

    /// `recover_shard(B)`.
    fn recover_step(&mut self) -> Step {
        match self.recover_pc {
            // Bug only: the kill flag read before the lock is taken.
            RecoverPc::EarlyAlive => {
                self.recover_pc = if self.killed {
                    self.recover_outcome = Outcome::IntegrityViolation;
                    RecoverPc::Done
                } else {
                    RecoverPc::Lock
                };
            }
            RecoverPc::Lock => {
                if !self.try_lock(SHARD_B, RECOVERER) {
                    return Step::Blocked;
                }
                self.recover_pc = if self.bug == Bug::CheckAliveBeforeLock {
                    RecoverPc::Rekey
                } else {
                    RecoverPc::CheckAlive
                };
            }
            // `self.check_alive(0)?` under the lock.
            RecoverPc::CheckAlive => {
                self.recover_pc = if self.killed {
                    self.recover_outcome = Outcome::IntegrityViolation;
                    self.unlock(SHARD_B);
                    RecoverPc::Done
                } else {
                    RecoverPc::Rekey
                };
            }
            // The rest touches nothing but the locked shard: check
            // `quarantined`, scrub, swap in the fresh engine, bump the
            // generation, clear `quarantined`, release.
            RecoverPc::Rekey => {
                let shard = &mut self.shards[SHARD_B];
                if shard.quarantined {
                    shard.engine_killed = false;
                    shard.generation += 1;
                    shard.quarantined = false;
                    self.recover_outcome = Outcome::Recovered;
                    if shard.generation > RECOVERY_BUDGET {
                        self.violation = Some(format!(
                            "recover_shard re-keyed a shard past its recovery budget \
                             (generation {}): its last quarantine was the world-kill",
                            shard.generation
                        ));
                    }
                } else {
                    self.recover_outcome = Outcome::NotQuarantined;
                }
                self.unlock(SHARD_B);
                self.recover_pc = RecoverPc::Done;
            }
            RecoverPc::Done => return Step::Done,
        }
        Step::Ran
    }
}

impl Program for Handshake {
    fn thread_count(&self) -> usize {
        4
    }

    fn step(&mut self, tid: usize) -> Step {
        if tid == RECOVERER {
            self.recover_step()
        } else {
            self.drain_step(tid)
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        for (index, shard) in self.shards.iter().enumerate() {
            if shard.holder.is_some() {
                continue; // mid critical section
            }
            if shard.quarantined && !shard.engine_killed {
                return Err(format!("shard {index} is quarantined over a live engine"));
            }
            if shard.engine_killed && !shard.quarantined && !self.killed {
                return Err(format!(
                    "shard {index}'s engine died with neither a quarantine nor the world-kill"
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        let b = &self.shards[SHARD_B];
        ensure(
            self.ops_served == self.landed,
            format!(
                "served-op flush skipped: ops_served is {} but {} ops landed",
                self.ops_served, self.landed
            ),
        )?;
        ensure(
            self.outcome(DETECTOR) == Outcome::IntegrityViolation && b.ops_at_quarantine > 0,
            format!(
                "the detecting run returned {:?} with quarantine stamp {}: the stamp must \
                 count the op served ahead of the detection",
                self.outcome(DETECTOR),
                b.ops_at_quarantine
            ),
        )?;
        ensure(
            self.killed || !self.budget_spent,
            "recovery-budget exhaustion never reached the world-kill: callers were left \
             serving beside an unrecoverable shard"
                .to_owned(),
        )?;
        ensure(
            self.killed == (b.budget_kills == 1),
            format!(
                "killed={} with {} budget kills",
                self.killed, b.budget_kills
            ),
        )?;
        let live = self.shards.iter().position(|s| !s.engine_killed);
        ensure(
            !self.killed || live.is_none(),
            format!("world-kill flagged but never finished: shard {live:?}'s engine is still live"),
        )?;
        ensure(
            b.quarantined != (self.recover_outcome == Outcome::Recovered),
            format!(
                "recover_shard returned {:?} but quarantined={}",
                self.recover_outcome, b.quarantined
            ),
        )?;
        for tid in [CALLER, PEER] {
            let d = &self.drains[tid];
            let consistent = match d.outcome {
                Outcome::Served => d.next_op == d.ops,
                Outcome::ShardQuarantined => d.shard == SHARD_B && d.next_op == 0,
                Outcome::IntegrityViolation => self.killed,
                _ => false,
            };
            ensure(
                consistent,
                format!(
                    "thread {tid} returned {:?} after {} of {} ops (killed={})",
                    d.outcome, d.next_op, d.ops, self.killed
                ),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, Explored};

    // The whole reachable space of the shipped protocol, both budget
    // configurations, pinned: a model edit that silently drops a step,
    // a thread or a branch shrinks these numbers and fails here.
    // Re-derive them (they are what `explore` returns) when the model
    // changes on purpose.

    #[test]
    fn clean_protocol_holds_on_every_reachable_state() {
        let ex = explore(&Handshake::new(Bug::None, false))
            .expect("shipped protocol holds in every reachable state");
        assert_eq!(
            ex,
            Explored {
                states: 3_180,
                transitions: 8_092,
                terminals: 15
            }
        );
    }

    #[test]
    fn budget_exhaustion_reaches_the_world_kill() {
        let ex = explore(&Handshake::new(Bug::None, true))
            .expect("kill escalation satisfies every invariant in every reachable state");
        assert_eq!(
            ex,
            Explored {
                states: 15_034,
                transitions: 37_315,
                terminals: 72
            }
        );
    }

    // Two bugs are pinned here; `tests/model_check.rs` walks all eight.
    fn caught(bug: Bug, budget_spent: bool) -> String {
        explore(&Handshake::new(bug, budget_spent)).expect_err("injected bug escaped the explorer")
    }

    #[test]
    fn skipped_kill_on_budget_is_caught() {
        // Whichever the search reaches first: the kill that never
        // comes, or the recovery it alone would have refused.
        let err = caught(Bug::SkipKillOnBudget, true);
        assert!(
            err.contains("never reached the world-kill")
                || err.contains("past its recovery budget"),
            "{err}"
        );
    }

    #[test]
    fn skipped_chunk_poll_exceeds_the_kill_poll_bound() {
        let err = caught(Bug::SkipChunkPoll, true);
        assert!(err.contains("kill-poll bound exceeded"), "{err}");
    }
}
