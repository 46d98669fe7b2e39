//! State-machine model of the sharded engine's quarantine / recovery /
//! world-kill protocol, derived step for step from `toleo-core`'s
//! `sharded.rs`, `sharded/helper.rs` and `sharded/recovery.rs` as
//! shipped: one mutex per shard guarding everything the shard owns
//! (engine, `quarantined`, the served-op count, the key generation), the
//! one atomic beside them — the `Release`/`Acquire` world-kill flag — and
//! the batch helper's mailbox phase. A model step is one action another
//! thread can observe: a lock acquire or release, or one load / store /
//! RMW on an atomic. Plain accesses to lock-guarded fields ride on the
//! neighbouring step.
//!
//! Two shards — `A` healthy, `B` holding one tampered block — and four
//! threads, the protocol's critical sections:
//!
//! - [`CALLER`] and [`PEER`] run the *same* ladder, as the shipped code
//!   does (`run_on_shard` / `run_batch` → `drain_shard` →
//!   `finish_world_kill`): `check_alive`, then per run lock the shard,
//!   refuse if it is quarantined, per chunk poll the kill flag, serve the
//!   ops; on a failure `escalate_after_kill` marks the quarantine and,
//!   past the recovery budget, stores the kill flag — still under the
//!   lock — and the ladder finishes the kill with `trip_kill` once no
//!   lock is held. The caller is a single op on `B`.
//! - The peer's batch spans both shards. It offers its upper half, the
//!   run on `B` — one served op, then the read that detects the tamper —
//!   to [`HELPER`], drains its own run on `A` (`PEER_OPS` ops), then takes
//!   the offer back and drains it itself if the helper has not started
//!   it, or awaits the helper's return; only then does it finish the
//!   kill. The helper is one more drainer: it takes the offer, runs the
//!   same `drain_shard` on `B` and hands the half back.
//! - [`RECOVERER`] is `recover_shard(B)`: it holds `B`'s lock from
//!   `check_alive` to the clearing of `quarantined`, so nobody observes
//!   a half-recovered shard. A caller that meets a quarantined shard is
//!   refused; nothing in the protocol waits for a recovery.
//!
//! [`Bug`] injects one mistake the shipped code could contain at a
//! time; the tests prove the explorer catches every one, which is the
//! evidence that the clean model passing means something. The
//! integration tests replay every ordering of the three calls against a
//! real `ShardedEngine` — the peer's batch with every interleaving of
//! peer and helper — and require the real outcomes and final state to be
//! ones the model reaches, so the model cannot drift from the code.

use crate::sched::{Program, Step};

/// Thread ids. The first three also index `Handshake::drains`: the
/// helper's slot holds the offered run, whoever drains it.
pub const HELPER: usize = 0;
pub const CALLER: usize = 1;
pub const PEER: usize = 2;
pub const RECOVERER: usize = 3;

const SHARD_A: usize = 0;
const SHARD_B: usize = 1;

/// `toleo_core::sharded::RECOVERY_BUDGET`.
pub const RECOVERY_BUDGET: u64 = 3;
/// Ops in the peer's own run on `A`.
pub const PEER_OPS: u8 = 4;
/// The model's `KILL_POLL_OPS`: below `PEER_OPS`, so the peer's run polls
/// the kill flag between chunks.
pub const CHUNK: u8 = 2;

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
    /// The batch caller runs `finish_world_kill` before the helper's
    /// half is back, so a kill the helper flags under its shard lock is
    /// never finished.
    FinishBeforeHelperReturns,
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FinalState {
    pub killed: bool,
    pub quarantined_shards: u64,
    /// Shard `B`'s key generation (`A` is never recovered).
    pub generation: u64,
    pub budget_kills: u64,
    pub ops_served: u64,
}

/// Everything one shard's mutex guards, plus the mutex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
struct Shard {
    holder: Option<usize>,
    /// The engine's own kill switch: frozen by a detection or force-killed
    /// by `trip_kill`. A killed engine fails every op.
    engine_killed: bool,
    quarantined: bool,
    generation: u64,
    budget_kills: u64,
}

/// The helper mailbox's phase, as far as one batch sees it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Offer {
    /// The peer has not offered its upper half yet.
    Unposted,
    Offered,
    /// The helper took it and is draining it.
    Taken,
    /// The helper handed it back.
    Returned,
    /// The peer took it back before the helper started it.
    Reclaimed,
    /// The peer's `check_alive` failed: nothing was offered.
    Withdrawn,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum DrainPc {
    CheckAlive,
    /// The peer posts its upper half.
    Post,
    EarlyAdmit,
    LockAdmit,
    Poll,
    Exec,
    Escalate,
    Mark,
    Budget,
    Unlock,
    /// The peer's own run is done: take the offer back, or await it.
    Reclaim,
    /// The peer drains the half it took back.
    DrainOffered,
    /// The peer waits for the helper's return.
    Await,
    FinishKill,
    /// `trip_kill`'s walk over the shards, at this index.
    TripKill(usize),
    Done,
}

/// One drain: a ladder's own run and, for the peer, where it stands with
/// its offer — or the offered run itself, drained by whoever holds it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Drain {
    shard: usize,
    ops: u8,
    /// Index of the op that reads the tampered block, if any.
    detects_at: Option<u8>,
    /// The offered run: it ends at its unlock, with no ladder around it.
    offered: bool,
    /// The peer: it offers an upper half, and has not settled it yet.
    offers: bool,
    pc: DrainPc,
    next_op: u8,
    served_after_kill: u8,
    outcome: Outcome,
}

impl Drain {
    fn new(shard: usize, ops: u8, detects_at: Option<u8>) -> Self {
        Drain {
            shard,
            ops,
            detects_at,
            offered: false,
            offers: false,
            pc: DrainPc::CheckAlive,
            next_op: 0,
            served_after_kill: 0,
            outcome: Outcome::Pending,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum HelperPc {
    /// Polling (or parked) for an offer.
    Wait,
    Drain,
    Return,
    Done,
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
    chunk: u8,
    shards: [Shard; 2],
    killed: bool,
    /// The shards' served-op counts, summed: each op adds to its own
    /// shard's under that shard's lock, so only the sum is observable.
    ops_served: u64,
    drains: [Drain; 3],
    offer: Offer,
    helper_pc: HelperPc,
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
        let mut offered = Drain::new(SHARD_B, 2, Some(1));
        offered.offered = true;
        offered.pc = if bug == Bug::AdmitBeforeLock {
            DrainPc::EarlyAdmit
        } else {
            DrainPc::LockAdmit
        };
        let mut peer = Drain::new(SHARD_A, PEER_OPS, None);
        peer.offers = true;
        Handshake {
            bug,
            budget_spent,
            chunk: CHUNK,
            shards,
            killed: false,
            ops_served: 0,
            drains: [offered, Drain::new(SHARD_B, 1, None), peer],
            offer: Offer::Unposted,
            helper_pc: HelperPc::Wait,
            recover_pc: if bug == Bug::CheckAliveBeforeLock {
                RecoverPc::EarlyAlive
            } else {
                RecoverPc::Lock
            },
            recover_outcome: Outcome::Pending,
            violation: None,
        }
    }

    /// The same model polling the kill flag every `chunk` ops. A replay
    /// against the real engine, whose `KILL_POLL_OPS` covers every run
    /// here, uses a `chunk` of at least [`PEER_OPS`]: once the peer and
    /// the helper overlap, the chunk size is observable.
    pub fn with_chunk(mut self, chunk: u8) -> Self {
        self.chunk = chunk;
        self
    }

    /// Runs thread `tid` with nobody else scheduled until it is
    /// [`Step::Done`] or [`Step::Blocked`] — on a lock it holds itself,
    /// or, for the peer, on a helper that has its half.
    pub fn run_thread(&mut self, tid: usize) -> Step {
        loop {
            match self.step(tid) {
                Step::Ran => {}
                stopped => return stopped,
            }
        }
    }

    /// How thread `tid`'s call returned. The peer's batch reports its own
    /// run's failure first (its indices come first) and else the offered
    /// run's, whoever drained it; the helper reports the offered run.
    pub fn outcome(&self, tid: usize) -> Outcome {
        match tid {
            RECOVERER => self.recover_outcome,
            PEER if self.drains[PEER].outcome == Outcome::Served => self.drains[HELPER].outcome,
            _ => self.drains[tid].outcome,
        }
    }

    pub fn final_state(&self) -> FinalState {
        FinalState {
            killed: self.killed,
            quarantined_shards: self.shards.iter().filter(|s| s.quarantined).count() as u64,
            generation: self.shards[SHARD_B].generation,
            budget_kills: self.shards.iter().map(|s| s.budget_kills).sum(),
            ops_served: self.ops_served,
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

    /// Advances drain `index` one step on behalf of thread `tid`.
    fn advance(&mut self, tid: usize, index: usize) -> Step {
        let mut d = self.drains[index];
        let step = self.drain_advance(tid, &mut d);
        self.drains[index] = d;
        step
    }

    /// Where a ladder goes once its run is unlocked: the peer settles its
    /// offer before it finishes the kill (after, under
    /// [`Bug::FinishBeforeHelperReturns`]).
    fn ladder_next(&self, d: &Drain) -> DrainPc {
        if d.offers && self.bug != Bug::FinishBeforeHelperReturns {
            DrainPc::Reclaim
        } else if self.bug == Bug::SkipFinishWorldKill {
            Self::after_finish(d)
        } else {
            DrainPc::FinishKill
        }
    }

    /// Where a ladder goes once `finish_world_kill` is done.
    fn after_finish(d: &Drain) -> DrainPc {
        if d.offers {
            DrainPc::Reclaim
        } else {
            DrainPc::Done
        }
    }

    /// Where the peer goes once its offer settled.
    fn after_settle(&self) -> DrainPc {
        match self.bug {
            Bug::SkipFinishWorldKill | Bug::FinishBeforeHelperReturns => DrainPc::Done,
            _ => DrainPc::FinishKill,
        }
    }

    fn drain_advance(&mut self, tid: usize, d: &mut Drain) -> Step {
        let chunk_start = if self.bug == Bug::SkipChunkPoll {
            DrainPc::Exec
        } else {
            DrainPc::Poll
        };
        let admit = if self.bug == Bug::AdmitBeforeLock {
            DrainPc::EarlyAdmit
        } else {
            DrainPc::LockAdmit
        };
        match d.pc {
            // run_on_shard / run_batch: `self.check_alive(..)?`.
            DrainPc::CheckAlive => {
                if self.killed {
                    d.outcome = Outcome::IntegrityViolation;
                    d.pc = DrainPc::Done;
                    if d.offers {
                        self.offer = Offer::Withdrawn;
                        d.offers = false;
                    }
                } else if d.offers {
                    d.pc = DrainPc::Post;
                } else {
                    d.pc = admit;
                }
            }
            // run_batch: `helper.offer(..)` stores `OFFERED`.
            DrainPc::Post => {
                self.offer = Offer::Offered;
                d.pc = admit;
            }
            // Bug only: `quarantined` consulted with the lock not held.
            DrainPc::EarlyAdmit => {
                if self.shards[d.shard].quarantined {
                    d.outcome = Outcome::ShardQuarantined;
                    d.pc = if d.offered {
                        DrainPc::Done
                    } else {
                        self.ladder_next(d)
                    };
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
            // `exec_op` on the locked engine; a served op is counted in
            // its shard's `ops_served` under the same lock.
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
                    self.ops_served += 1;
                    if self.killed {
                        d.served_after_kill += 1;
                    }
                    if d.served_after_kill > self.chunk {
                        self.violation = Some(format!(
                            "kill-poll bound exceeded: thread {tid} served {} ops after the \
                             world-kill flag was set (declared bound {})",
                            d.served_after_kill, self.chunk
                        ));
                    }
                }
                if d.outcome == Outcome::IntegrityViolation {
                    d.pc = DrainPc::Escalate;
                } else if d.next_op == d.ops {
                    d.outcome = Outcome::Served;
                    d.pc = DrainPc::Unlock;
                } else if d.next_op.is_multiple_of(self.chunk) {
                    d.pc = chunk_start;
                }
            }
            // `state.engine.is_killed() && !self.is_killed()`.
            DrainPc::Escalate => {
                d.pc = if self.shards[d.shard].engine_killed && !self.killed {
                    DrainPc::Mark
                } else {
                    DrainPc::Unlock
                };
            }
            // escalate_after_kill: mark the quarantine.
            DrainPc::Mark => {
                let shard = &mut self.shards[d.shard];
                shard.quarantined = true;
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
                d.pc = if d.offered {
                    DrainPc::Done
                } else {
                    self.ladder_next(d)
                };
            }
            // `offer.settle()`: the compare-exchange that takes an
            // unstarted half back; otherwise wait for it.
            DrainPc::Reclaim => {
                d.pc = if self.offer == Offer::Offered {
                    self.offer = Offer::Reclaimed;
                    DrainPc::DrainOffered
                } else {
                    DrainPc::Await
                };
            }
            // The peer drains the half it took back: the offered run's
            // steps, on the peer's behalf.
            DrainPc::DrainOffered => {
                let step = self.advance(tid, HELPER);
                if self.drains[HELPER].pc == DrainPc::Done {
                    d.offers = false;
                    d.pc = self.after_settle();
                }
                return step;
            }
            // The wait for `DONE` (or `GONE`): blocked, not spinning.
            DrainPc::Await => {
                if self.offer != Offer::Returned {
                    return Step::Blocked;
                }
                d.offers = false;
                d.pc = self.after_settle();
            }
            // finish_world_kill: `if self.is_killed() { self.trip_kill() }`,
            // whose own store of the flag changes nothing by then.
            DrainPc::FinishKill => {
                d.pc = if self.killed {
                    DrainPc::TripKill(0)
                } else {
                    Self::after_finish(d)
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
                } else if d.offered {
                    DrainPc::Done
                } else {
                    Self::after_finish(d)
                };
            }
            DrainPc::Done => return Step::Done,
        }
        Step::Ran
    }

    /// The helper thread: `serve`'s take, drain and hand-back.
    fn helper_step(&mut self) -> Step {
        match self.helper_pc {
            HelperPc::Wait => match self.offer {
                Offer::Unposted => return Step::Blocked,
                // The compare-exchange `OFFERED -> TAKEN`.
                Offer::Offered => {
                    self.offer = Offer::Taken;
                    self.helper_pc = HelperPc::Drain;
                }
                // Taken back, or never offered: nothing for it here.
                _ => return Step::Done,
            },
            HelperPc::Drain => {
                let step = self.advance(HELPER, HELPER);
                if self.drains[HELPER].pc == DrainPc::Done {
                    self.helper_pc = HelperPc::Return;
                }
                return step;
            }
            // `phase.store(DONE, Release)`.
            HelperPc::Return => {
                self.offer = Offer::Returned;
                self.helper_pc = HelperPc::Done;
            }
            HelperPc::Done => return Step::Done,
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
        match tid {
            HELPER => self.helper_step(),
            RECOVERER => self.recover_step(),
            _ => self.advance(tid, tid),
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
        let peer = &self.drains[PEER];
        let offered = &self.drains[HELPER];
        if peer.pc == DrainPc::Done && self.offer != Offer::Withdrawn && offered.pc != DrainPc::Done
        {
            return Err("the peer's batch returned while its upper half was still draining".into());
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        let b = &self.shards[SHARD_B];
        ensure(
            self.outcome(PEER) == Outcome::IntegrityViolation,
            format!(
                "the detecting batch returned {:?}: its tampered read must fail it",
                self.outcome(PEER)
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
                states: 1_852,
                transitions: 4_635,
                terminals: 8
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
                states: 5_796,
                transitions: 13_033,
                terminals: 48
            }
        );
    }

    // Three bugs are pinned here; `tests/model_check.rs` walks all eight.
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

    #[test]
    fn finishing_before_the_helper_returns_leaves_its_kill_unfinished() {
        let err = caught(Bug::FinishBeforeHelperReturns, true);
        assert!(err.contains("never finished"), "{err}");
    }
}
