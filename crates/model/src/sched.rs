//! The explorer: exhaustive DFS and seeded-random schedule exploration
//! over cloneable [`Program`] state machines.

// audit: allow-file(secret, explorer seeds are schedule-reproduction inputs that MUST be reported on failure, not key material)

/// Outcome of offering one scheduling slot to a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The thread performed one shared atomic action and advanced.
    Ran,
    /// The thread cannot make progress until another thread acts (it
    /// wants a lock someone holds). A
    /// blocked step MUST NOT have mutated the program state: the
    /// explorer treats the state as unchanged and re-offers the slot
    /// later. If every unfinished thread reports `Blocked` the explorer
    /// reports a deadlock.
    Blocked,
    /// The thread has finished. Further offers must keep returning
    /// `Done` without mutating state.
    Done,
}

/// A concurrent protocol modelled as a deterministic state machine.
///
/// All shared and per-thread state lives in `self`; `step(tid)` performs
/// at most one shared atomic action on behalf of thread `tid`. The
/// explorer decides who runs next, so every interleaving of the real
/// protocol at the model's granularity is reachable.
pub trait Program: Clone {
    /// Number of threads; `step` accepts `0..thread_count()`.
    fn thread_count(&self) -> usize;

    /// Offer one scheduling slot to thread `tid`.
    fn step(&mut self, tid: usize) -> Step;

    /// Safety invariants, checked after every `Ran` step.
    fn check(&self) -> Result<(), String>;

    /// Liveness/terminal invariants, checked once all threads are done.
    fn check_final(&self) -> Result<(), String>;
}

/// Exploration statistics. `schedules` counts complete interleavings
/// (every thread reached `Done`); `steps` counts explored transitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Explored {
    pub schedules: u64,
    pub steps: u64,
    /// True when exhaustive exploration stopped at its schedule cap
    /// rather than exhausting the state space.
    pub capped: bool,
}

/// Any single schedule longer than this is reported as a livelock.
const MAX_STEPS_PER_SCHEDULE: u64 = 4_096;

/// Explore every interleaving by depth-first search, cloning the state
/// at each branch point, up to `max_schedules` complete schedules.
///
/// Returns the first invariant violation, deadlock, or livelock as
/// `Err`; the message names the failure so tests can pin it.
pub fn explore_exhaustive<P: Program>(program: &P, max_schedules: u64) -> Result<Explored, String> {
    let mut explored = Explored::default();
    dfs(program, &mut explored, max_schedules, 0)?;
    Ok(explored)
}

fn dfs<P: Program>(state: &P, ex: &mut Explored, cap: u64, depth: u64) -> Result<(), String> {
    if ex.schedules >= cap {
        ex.capped = true;
        return Ok(());
    }
    if depth > MAX_STEPS_PER_SCHEDULE {
        return Err(format!(
            "livelock: schedule exceeded {MAX_STEPS_PER_SCHEDULE} steps"
        ));
    }
    let threads = state.thread_count();
    let mut progressed = false;
    let mut done = 0usize;
    for tid in 0..threads {
        let mut next = state.clone();
        match next.step(tid) {
            Step::Done => done += 1,
            Step::Blocked => {}
            Step::Ran => {
                progressed = true;
                ex.steps += 1;
                next.check()
                    .map_err(|e| format!("invariant violated after thread {tid} step: {e}"))?;
                dfs(&next, ex, cap, depth + 1)?;
                if ex.capped {
                    return Ok(());
                }
            }
        }
    }
    if done == threads {
        state
            .check_final()
            .map_err(|e| format!("final invariant violated: {e}"))?;
        ex.schedules += 1;
    } else if !progressed {
        return Err(format!(
            "deadlock: {} of {threads} threads blocked, {done} done — every unfinished \
             thread wants a lock that is never released",
            threads - done
        ));
    }
    Ok(())
}

/// splitmix64: tiny, high-quality, dependency-free PRNG. The same seed
/// always reproduces the same schedule sequence.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Run `schedules` fresh copies of the program to completion, picking a
/// uniformly random runnable thread at every scheduling point.
///
/// Random exploration reaches deep interleavings that a capped DFS
/// prefix never visits; with a fixed seed it is just as reproducible.
pub fn explore_random<P: Program>(
    program: &P,
    seed: u64,
    schedules: u64,
) -> Result<Explored, String> {
    let mut rng = SplitMix64::new(seed);
    let mut ex = Explored::default();
    for run in 0..schedules {
        let mut state = program.clone();
        let threads = state.thread_count();
        let mut steps_in_run = 0u64;
        loop {
            // Rotate from a random start so every runnable thread has a
            // chance at every slot; Blocked/Done probes do not mutate.
            let start = (rng.next_u64() % threads as u64) as usize;
            let mut acted = false;
            let mut done = 0usize;
            for offset in 0..threads {
                let tid = (start + offset) % threads;
                match state.step(tid) {
                    Step::Ran => {
                        ex.steps += 1;
                        state.check().map_err(|e| {
                            format!(
                                "invariant violated after thread {tid} step \
                                 (seed {seed}, run {run}): {e}"
                            )
                        })?;
                        acted = true;
                        break;
                    }
                    Step::Done => done += 1,
                    Step::Blocked => {}
                }
            }
            if !acted {
                if done == threads {
                    state.check_final().map_err(|e| {
                        format!("final invariant violated (seed {seed}, run {run}): {e}")
                    })?;
                    ex.schedules += 1;
                    break;
                }
                return Err(format!(
                    "deadlock (seed {seed}, run {run}): {} of {threads} threads blocked, \
                     {done} done — every unfinished thread wants a lock that is never released",
                    threads - done
                ));
            }
            steps_in_run += 1;
            if steps_in_run > MAX_STEPS_PER_SCHEDULE {
                return Err(format!(
                    "livelock (seed {seed}, run {run}): schedule exceeded \
                     {MAX_STEPS_PER_SCHEDULE} steps"
                ));
            }
        }
    }
    Ok(ex)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter twice; a third
    /// "checker" thread waits for the total. Exercises Ran/Blocked/Done
    /// bookkeeping without any protocol content.
    #[derive(Clone)]
    struct Counter {
        total: u8,
        pcs: [u8; 3],
    }

    impl Program for Counter {
        fn thread_count(&self) -> usize {
            3
        }

        fn step(&mut self, tid: usize) -> Step {
            if tid < 2 {
                if self.pcs[tid] >= 2 {
                    return Step::Done;
                }
                self.pcs[tid] += 1;
                self.total += 1;
                Step::Ran
            } else {
                match self.pcs[2] {
                    0 if self.total == 4 => {
                        self.pcs[2] = 1;
                        Step::Ran
                    }
                    0 => Step::Blocked,
                    _ => Step::Done,
                }
            }
        }

        fn check(&self) -> Result<(), String> {
            (self.total <= 4)
                .then_some(())
                .ok_or_else(|| format!("total overshot: {}", self.total))
        }

        fn check_final(&self) -> Result<(), String> {
            (self.total == 4)
                .then_some(())
                .ok_or_else(|| format!("final total {} != 4", self.total))
        }
    }

    fn counter() -> Counter {
        Counter {
            total: 0,
            pcs: [0; 3],
        }
    }

    #[test]
    fn exhaustive_counts_every_interleaving() {
        let ex = explore_exhaustive(&counter(), u64::MAX).expect("counter model is sound");
        // Four increment steps from two 2-step threads: C(4,2) = 6
        // orderings, each followed by the checker's single step.
        assert_eq!(ex.schedules, 6);
        assert!(!ex.capped);
    }

    #[test]
    fn exhaustive_honours_the_schedule_cap() {
        let ex = explore_exhaustive(&counter(), 2).expect("counter model is sound");
        assert_eq!(ex.schedules, 2);
        assert!(ex.capped);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = explore_random(&counter(), 42, 50).expect("counter model is sound");
        let b = explore_random(&counter(), 42, 50).expect("counter model is sound");
        assert_eq!(a.schedules, 50);
        assert_eq!((a.steps, a.schedules), (b.steps, b.schedules));
    }

    /// A thread that stays blocked once everyone else is done is
    /// reported as a deadlock, not silently skipped.
    #[derive(Clone)]
    struct Stuck {
        pc: u8,
    }

    impl Program for Stuck {
        fn thread_count(&self) -> usize {
            2
        }

        fn step(&mut self, tid: usize) -> Step {
            if tid == 0 {
                if self.pc == 0 {
                    self.pc = 1;
                    Step::Ran
                } else {
                    Step::Done
                }
            } else {
                Step::Blocked
            }
        }

        fn check(&self) -> Result<(), String> {
            Ok(())
        }

        fn check_final(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn permanently_blocked_thread_is_a_deadlock() {
        let err = explore_exhaustive(&Stuck { pc: 0 }, u64::MAX).expect_err("must deadlock");
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains("never released"), "{err}");
        let err = explore_random(&Stuck { pc: 0 }, 7, 1).expect_err("must deadlock");
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn splitmix_is_stable() {
        let mut rng = SplitMix64::new(0);
        // First output of splitmix64(0), a published reference value.
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
    }
}
