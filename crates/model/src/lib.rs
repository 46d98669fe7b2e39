//! Deterministic interleaving checker for Toleo's concurrency protocols.
//!
//! The static side of the concurrency-correctness plane (`toleo-audit`)
//! proves that every atomic call site uses the ordering its protocol row
//! in `AUDIT.json` declares. This crate is the dynamic side: it proves
//! the *protocol itself* is sound by visiting every state a
//! state-machine model of the sharded engine's quarantine / recovery /
//! world-kill protocol can reach under any thread interleaving — a few
//! thousand states behind far too many schedules to enumerate — and
//! asserting its invariants in each one:
//!
//! - no op reaches the engine of a quarantined shard — a caller routed
//!   there is refused under the shard lock, never served and never left
//!   waiting — and no shard is re-keyed past its recovery budget,
//! - recovery-budget exhaustion always reaches the world-kill, the
//!   world-kill is always finished (every engine force-killed, no lock
//!   held by whoever finishes it, and not before the batch helper's half
//!   is back), and a batch drain serves at most one `KILL_POLL_OPS` chunk
//!   after the flag is set,
//! - every op that landed is counted in `ops_served`, ahead of the
//!   quarantine stamp taken from it.
//!
//! Design rules, in the spirit of loom but dependency-free:
//!
//! - A [`Program`] is a cloneable, hashable value; one shared atomic
//!   action per [`Program::step`]. The explorer ([`explore`]) owns
//!   scheduling: a depth-first search that clones the state at every
//!   branch point and expands each distinct state once, so it ends when
//!   the space does — there is no schedule cap, step cap or sampling.
//! - A step that returns [`Step::Blocked`] (a lock someone else holds)
//!   must not mutate state. A state every unfinished thread is blocked
//!   in is a deadlock — which is how a self-deadlock (`trip_kill` called
//!   under a shard lock) is detected; a step back into a state on the
//!   current path is a livelock.
//! - Everything is deterministic: no clocks, no randomness, nothing to
//!   seed. The sizes of the two clean state spaces are pinned by tests.
//!
//! The model lives in [`handshake`]: one mutex per shard guarding the
//! engine, `quarantined`, its stamp and the key generation, the two
//! atomics beside them and the batch helper's mailbox, with injectable
//! protocol bugs that the test suite proves the explorer catches. The
//! integration tests replay every ordering of the model's three calls
//! against a real `toleo_core::sharded::ShardedEngine` and require every
//! real outcome and final state to be one the model reaches, so the
//! model cannot drift from the code it stands for.

pub mod handshake;
pub mod sched;

pub use handshake::{Bug, FinalState, Handshake, Outcome};
pub use sched::{explore, Explored, Program, Step};
