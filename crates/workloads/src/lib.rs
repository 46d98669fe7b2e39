//! # toleo-workloads
//!
//! Synthetic memory-trace generators mirroring the 12 privacy-sensitive
//! benchmarks of the Toleo evaluation (GenomicsBench, GAP, llama2.c,
//! redis/memcached under memtier, hyrise under TPC-C).
//!
//! The paper drives its Sniper simulations from PinPlay captures of the
//! real applications; this crate substitutes trace generators that
//! reproduce the properties the evaluation depends on — working-set size,
//! LLC-pressure class, and version-locality class — at a 1000x spatial
//! down-scaling so the whole suite runs in seconds. See `DESIGN.md` §2 for
//! the substitution rationale.
//!
//! ```
//! use toleo_workloads::gen::{generate, Benchmark, GenConfig};
//!
//! let trace = generate(Benchmark::Llama2Gen, &GenConfig::tiny());
//! println!("{}: {} instructions, {} memory ops",
//!          trace.name, trace.instructions(), trace.mem_ops());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod concurrent;
pub mod gen;
pub mod pattern;
pub mod trace;

pub use campaign::{tamper_schedule, TamperEvent, FAULT_RATE_SWEEP};
pub use concurrent::{multi_tenant, partition_by_page};
pub use gen::{generate, Benchmark, GenConfig};
pub use pattern::{engine_pattern, EnginePattern};
pub use trace::{Op, Trace};
