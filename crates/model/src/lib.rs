//! Deterministic interleaving checker for Toleo's concurrency protocols.
//!
//! The static side of the concurrency-correctness plane (`toleo-audit`)
//! proves that every atomic call site uses the ordering its protocol row
//! in `AUDIT.json` declares. This crate is the dynamic side: it proves
//! the *protocol itself* is sound by exhaustively (at small bounds) and
//! randomly (seeded, at larger bounds) exploring thread interleavings of
//! a state-machine model of the sharded engine's quarantine / recovery /
//! world-kill protocol, and asserting its invariants on every explored
//! schedule:
//!
//! - no op reaches the engine of a quarantined shard — a caller routed
//!   there is refused under the shard lock, never served and never left
//!   waiting — and no shard is re-keyed past its recovery budget,
//! - recovery-budget exhaustion always reaches the world-kill, the
//!   world-kill is always finished (every engine force-killed, no lock
//!   held by whoever finishes it), and a batch drain serves at most one
//!   `KILL_POLL_OPS` chunk after the flag is set,
//! - every op that landed is counted in `ops_served`, ahead of the
//!   quarantine stamp taken from it.
//!
//! Design rules, in the spirit of loom but dependency-free:
//!
//! - A [`Program`] is a cloneable value; one shared
//!   atomic action per [`Program::step`]. The explorer owns
//!   scheduling: exhaustive DFS clones the state at every branch point,
//!   the random explorer walks fresh copies under a splitmix64 stream.
//! - A step that returns [`Step::Blocked`] (a lock someone else holds)
//!   must not mutate state; the explorer re-tries it after other threads
//!   run. When every unfinished thread is blocked the explorer reports a
//!   deadlock — which is how a self-deadlock (`trip_kill` called under a
//!   shard lock) is detected.
//! - Everything is deterministic: no clocks, no OS randomness. A seed
//!   reproduces a failing schedule bit-for-bit.
//!
//! The model lives in [`handshake`]: one mutex per shard guarding the
//! engine, `quarantined`, its stamp and the key generation, plus the
//! handle's two atomics, with injectable protocol bugs that the test
//! suite proves the explorer catches. The integration tests replay every
//! ordering of the model's four critical sections against a real
//! `toleo_core::sharded::ShardedEngine` and require identical outcomes
//! and final state, so the model cannot drift from the code it stands
//! for.

pub mod handshake;
pub mod sched;

pub use handshake::{Bug, FinalState, Handshake, Outcome};
pub use sched::{explore_exhaustive, explore_random, Explored, Program, SplitMix64, Step};
