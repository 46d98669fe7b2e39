//! # toleo
//!
//! Umbrella crate for the Toleo reproduction (*Toleo: Scaling Freshness
//! to Tera-scale Memory using CXL and PIM*, ASPLOS 2024). It re-exports
//! every workspace crate under one roof and hosts the cross-crate
//! integration, property, security, and concurrency tests in `tests/`,
//! plus the runnable walkthroughs in `examples/`.
//!
//! The individual crates:
//!
//! * [`crypto`](toleo_crypto) — AES, the XTS mode, 56-bit MACs, D-RaNGe
//!   entropy.
//! * [`core`](toleo_core) — versions, Trip compression, the Toleo device,
//!   and the host protection engine.
//! * [`sim`](toleo_sim) — the trace-driven performance model.
//! * [`workloads`](toleo_workloads) — the 12 synthetic benchmark traces.
//! * [`baselines`](toleo_baselines) — Merkle counter tree, VAULT, SGX,
//!   and Morphable-counter baselines.
//! * [`bench`](toleo_bench) — the table/figure regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use toleo_baselines;
pub use toleo_bench;
pub use toleo_core;
pub use toleo_crypto;
pub use toleo_sim;
pub use toleo_workloads;
