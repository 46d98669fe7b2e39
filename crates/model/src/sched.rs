//! The explorer: one depth-first search over the **states** of a
//! cloneable [`Program`], each visited exactly once.

use std::collections::HashMap;
use std::hash::Hash;

/// Outcome of offering one scheduling slot to a thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The thread performed one shared atomic action and advanced.
    Ran,
    /// The thread cannot make progress until another thread acts (it
    /// wants a lock someone holds). A blocked step MUST NOT have mutated
    /// the program state. A state in which every unfinished thread
    /// reports `Blocked` is a deadlock.
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
/// protocol at the model's granularity is a path through the states it
/// visits. `Eq + Hash` is what lets it recognise a state it has already
/// expanded: two schedules that meet in one state share everything after.
pub trait Program: Clone + Eq + Hash {
    /// Number of threads; `step` accepts `0..thread_count()`.
    fn thread_count(&self) -> usize;

    /// Offer one scheduling slot to thread `tid`.
    fn step(&mut self, tid: usize) -> Step;

    /// Safety invariants, checked on every state when it is first reached.
    fn check(&self) -> Result<(), String>;

    /// Liveness/terminal invariants, checked on every state in which all
    /// threads are done.
    fn check_final(&self) -> Result<(), String>;
}

/// The size of a fully explored state space: distinct `states` (the
/// initial one included), `Ran` `transitions` out of them, and
/// `terminals`, the states in which every thread is done.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Explored {
    pub states: u64,
    pub transitions: u64,
    pub terminals: u64,
}

/// Visit every state reachable from `program` under any scheduling.
///
/// Returns the first invariant violation, deadlock (a non-terminal state
/// nobody can leave) or livelock (a transition back into a state on the
/// current path, i.e. a schedule that never ends) as `Err`; the message
/// names the failure so tests can pin it. `Ok` means the search ran out
/// of states, not out of budget: there is no cap.
pub fn explore<P: Program>(program: &P) -> Result<Explored, String> {
    program
        .check()
        .map_err(|e| format!("invariant violated in the initial state: {e}"))?;
    let mut explored = Explored::default();
    // state -> "is on the current DFS path".
    let mut seen = HashMap::new();
    visit(program, &mut seen, &mut explored)?;
    explored.states = seen.len() as u64;
    Ok(explored)
}

/// Expands `state`, which has passed `check()` and is not yet in `seen`.
fn visit<P: Program>(
    state: &P,
    seen: &mut HashMap<P, bool>,
    ex: &mut Explored,
) -> Result<(), String> {
    seen.insert(state.clone(), true);
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
                ex.transitions += 1;
                match seen.get(&next) {
                    Some(true) => {
                        return Err(format!(
                            "livelock: thread {tid}'s step re-enters a state on the current \
                             schedule, which can therefore run forever"
                        ));
                    }
                    Some(false) => {}
                    None => {
                        next.check().map_err(|e| {
                            format!("invariant violated after thread {tid} step: {e}")
                        })?;
                        visit(&next, seen, ex)?;
                    }
                }
            }
        }
    }
    if done == threads {
        state
            .check_final()
            .map_err(|e| format!("final invariant violated: {e}"))?;
        ex.terminals += 1;
    } else if !progressed {
        return Err(format!(
            "deadlock: {} of {threads} threads blocked, {done} done — every unfinished \
             thread wants a lock that is never released",
            threads - done
        ));
    }
    if let Some(on_path) = seen.get_mut(state) {
        *on_path = false;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter twice; a third
    /// "checker" thread waits for the total. Exercises Ran/Blocked/Done
    /// bookkeeping without any protocol content.
    #[derive(Clone, PartialEq, Eq, Hash)]
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

    #[test]
    fn explore_visits_every_state_once() {
        let counter = Counter {
            total: 0,
            pcs: [0; 3],
        };
        let ex = explore(&counter).expect("counter model is sound");
        // The two incrementing threads span a 3 x 3 grid of program
        // counters (12 edges, walked by C(4,2) = 6 interleavings that
        // all meet in its far corner); the checker's single step adds
        // one state and one edge.
        assert_eq!(
            ex,
            Explored {
                states: 10,
                transitions: 13,
                terminals: 1
            }
        );
    }

    /// Thread 0 takes one step and finishes; thread 1 is `Blocked`
    /// forever, or — `spins` — flips a bit forever.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Stuck {
        pc: u8,
        spins: bool,
        bit: bool,
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
            } else if self.spins {
                self.bit = !self.bit;
                Step::Ran
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

    /// A thread that stays blocked once everyone else is done is
    /// reported as a deadlock, not silently skipped.
    #[test]
    fn permanently_blocked_thread_is_a_deadlock() {
        let stuck = Stuck {
            pc: 0,
            spins: false,
            bit: false,
        };
        let err = explore(&stuck).expect_err("must deadlock");
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains("never released"), "{err}");
    }

    /// With no step cap, a schedule that never ends must be recognised
    /// by the state it comes back to.
    #[test]
    fn a_cycle_of_states_is_a_livelock() {
        let spinner = Stuck {
            pc: 0,
            spins: true,
            bit: false,
        };
        let err = explore(&spinner).expect_err("must livelock");
        assert!(err.contains("livelock"), "{err}");
    }
}
