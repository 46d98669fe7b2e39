//! The batch helper: one thread that drains half of a sharded batch
//! beside its caller.
//!
//! A batch's per-shard runs share nothing, so two threads can drain them
//! at once. When a batch occupies two or more shards,
//! `ShardedEngine::run_batch` offers the upper half of its runs to this
//! helper as an owned copy of their ops, in a `Job` whose buffers are
//! reused from batch to batch, and drains the lower half itself. When its
//! own half is done it takes the offer back if the helper has not started
//! it, or waits for the helper's half: a helper slow to wake never costs
//! more than the caller draining everything alone. Both halves run the
//! same guarded drain, so quarantine, the ledger, the kill poll and the
//! fail-closed answer to a panic are the caller's; the caller merges the
//! failures and finishes any world-kill once both halves are back.
//!
//! The mailbox is one [`Handoff`]: a `phase` word that says who owns the
//! job, and the job behind a mutex nobody waits on — the phase hands the
//! job over, and the mutex is how its buffers cross threads without
//! `unsafe`. At most one batch holds the mailbox; a concurrent caller
//! that finds it taken drains alone.
//!
//! After each job the helper polls for the next offer [`HELPER_POLLS`]
//! times, so back-to-back batches skip the wake-up, then parks: an idle
//! engine burns nothing. The bound is a count, not a clock (no library
//! crate holds one). There is no helper when the platform reports one
//! CPU, and never more than one per engine.

use super::Job;
use std::hint::spin_loop;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Polls for the next offer after a job before the helper parks: about
/// 0.4 ms of `spin_loop` on a 2 GHz x86 server core, several times the
/// gap between two back-to-back batches.
const HELPER_POLLS: u32 = 1 << 14;

/// Polls a caller spends on a half the helper is draining before it
/// yields its CPU between polls, in case the helper is not running.
const WAIT_POLLS: u32 = 1 << 12;

// The mailbox's phases: who owns the job.
/// Free: a caller may claim it.
const IDLE: u32 = 0;
/// A caller owns it: filling it, or taken back from the helper.
const CLAIMED: u32 = 1;
/// Waiting for the helper.
const OFFERED: u32 = 2;
/// The helper is draining it.
const TAKEN: u32 = 3;
/// The helper handed it back.
const DONE: u32 = 4;
/// The engine is being dropped: the helper exits.
const SHUTDOWN: u32 = 5;
/// The helper thread has ended.
const GONE: u32 = 6;

/// The mailbox between batch callers and the helper.
#[derive(Default)]
struct Handoff {
    phase: AtomicU32,
    job: Mutex<Job>,
}

impl std::fmt::Debug for Handoff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handoff")
            .field("phase", &self.phase)
            .finish_non_exhaustive()
    }
}

impl Handoff {
    fn lock_job(&self) -> MutexGuard<'_, Job> {
        // Nothing panics while holding it, but a poisoned job is still
        // a sound buffer.
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves the job out of the mailbox, so it is drained with no lock
    /// held but the shards'.
    fn take_job(&self) -> Job {
        std::mem::take(&mut self.lock_job())
    }

    /// Moves the phase from `from` to `to`; `false` if it was not `from`.
    /// AcqRel: whoever wins also sees what the previous owner wrote into
    /// the job, and publishes its own writes to the next.
    fn shift(&self, from: u32, to: u32) -> bool {
        self.phase
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The helper thread and its mailbox. Dropping it stops the thread.
#[derive(Debug)]
pub(super) struct Helper {
    handoff: Arc<Handoff>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    /// Spawns the helper, unless the platform reports a single CPU (where
    /// it could only take turns with its caller) or the spawn fails.
    pub(super) fn spawn() -> Option<Helper> {
        let cpus = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        if cpus < 2 {
            return None;
        }
        let handoff = Arc::new(Handoff::default());
        let mailbox = Arc::clone(&handoff);
        let thread = thread::Builder::new()
            .name("toleo-batch-helper".into())
            .spawn(move || serve(&mailbox))
            .ok()?;
        Some(Helper {
            handoff,
            thread: Some(thread),
        })
    }

    /// Claims the mailbox, fills its job with `load` and offers it to the
    /// helper. `None` when another batch holds the mailbox or the helper
    /// is gone: the caller then drains every run itself.
    pub(super) fn offer(&self, load: impl FnOnce(&mut Job)) -> Option<Offer<'_>> {
        let handoff = &*self.handoff;
        if !handoff.shift(IDLE, CLAIMED) {
            return None;
        }
        load(&mut handoff.lock_job());
        // Built before the post so that, if the helper ended while the
        // job was filled, dropping it clears the job again.
        let offer = Offer {
            handoff,
            settled: false,
        };
        if !handoff.shift(CLAIMED, OFFERED) {
            return None;
        }
        // One atomic swap when the helper is polling; a futex wake when
        // it is parked.
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
        Some(offer)
    }

    /// Halves the helper thread has drained.
    #[cfg(test)]
    pub(super) fn drained(&self) -> u64 {
        self.handoff.lock_job().drained
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // The engine is being dropped, so no batch holds the mailbox.
        self.handoff.phase.store(SHUTDOWN, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // A helper that panicked has already failed its half closed.
            drop(thread.join());
        }
    }
}

/// The helper thread: takes offers, drains them, hands them back.
fn serve(handoff: &Handoff) {
    let _gone = Gone(handoff);
    let mut polls = 0;
    loop {
        match handoff.phase.load(Ordering::Acquire) {
            OFFERED if handoff.shift(OFFERED, TAKEN) => {
                let mut job = handoff.take_job();
                job.drain();
                *handoff.lock_job() = job;
                handoff.phase.store(DONE, Ordering::Release);
                polls = 0;
            }
            SHUTDOWN => return,
            _ if polls < HELPER_POLLS => {
                polls += 1;
                spin_loop();
            }
            _ => thread::park(),
        }
    }
}

/// Marks the mailbox `GONE` however the helper thread ends — returning
/// at shutdown, or unwinding past its guarded drains — so that no caller
/// waits on it and no batch offers to it again.
struct Gone<'a>(&'a Handoff);

impl Drop for Gone<'_> {
    fn drop(&mut self) {
        self.0.phase.store(GONE, Ordering::Release);
    }
}

/// A caller's claim on the mailbox, from the offer until the batch has
/// merged the helper's half. Dropping it frees the mailbox.
pub(super) struct Offer<'a> {
    handoff: &'a Handoff,
    settled: bool,
}

/// What became of an offered half once the caller's own half is done.
pub(super) enum Settled<'a> {
    /// The helper had not started it: the caller drains it itself.
    Reclaimed,
    /// The helper drained it: its failures and read blocks.
    Returned(MutexGuard<'a, Job>),
    /// The helper thread ended without handing it back.
    Lost,
}

impl Offer<'_> {
    /// Takes the half back if the helper has not started it; otherwise
    /// waits until the helper hands it back or ends.
    pub(super) fn settle(&mut self) -> Settled<'_> {
        self.settled = true;
        let handoff = self.handoff;
        if handoff.shift(OFFERED, CLAIMED) {
            return Settled::Reclaimed;
        }
        let mut polls = 0;
        loop {
            match handoff.phase.load(Ordering::Acquire) {
                DONE => return Settled::Returned(handoff.lock_job()),
                GONE => return Settled::Lost,
                _ if polls < WAIT_POLLS => {
                    polls += 1;
                    spin_loop();
                }
                _ => thread::yield_now(),
            }
        }
    }
}

impl Drop for Offer<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // An unwinding caller, or an offer the helper ended before
            // it was posted: the next batch must not meet a half in flight.
            drop(self.settle());
        }
        // A half the helper never drained still holds the core.
        self.handoff.lock_job().core = None;
        if !self.handoff.shift(CLAIMED, IDLE) {
            self.handoff.shift(DONE, IDLE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Runs, ShardedEngine, Span};
    use super::*;
    use crate::config::ToleoConfig;

    /// A helper thread that ends with a half in hand — here it panics
    /// outside the guarded drain, on a run past the end of its batch — is
    /// `Lost` to its caller, never awaited, and later batches drain alone.
    #[test]
    fn a_helper_that_dies_mid_half_is_lost_not_awaited() {
        let e = ShardedEngine::new(ToleoConfig::small(), 2, [3u8; 48]).unwrap();
        let b = [1u8; 64];
        e.write_batch(&[(0, b), (4096, b)]).unwrap();
        let Some(helper) = e.helper() else {
            return; // one CPU: no helper to lose
        };
        let mut offer = helper
            .offer(|job| {
                job.core = Some(Arc::clone(&e.core));
                job.runs = Runs {
                    order: Vec::new(),
                    spans: vec![Span {
                        shard: 1,
                        start: 0,
                        end: 1,
                    }],
                };
            })
            .expect("the mailbox is free between batches");
        while helper.handoff.phase.load(Ordering::Acquire) == OFFERED {
            thread::yield_now();
        }
        assert!(matches!(offer.settle(), Settled::Lost));
        drop(offer);
        assert_eq!(helper.handoff.phase.load(Ordering::Acquire), GONE);
        e.write_batch(&[(64, b), (4096 + 64, b)]).unwrap();
        assert_eq!(e.read_batch(&[64, 4096 + 64]).unwrap(), [b, b]);
        assert!(!e.is_killed());
    }
}
