//! # toleo-bench
//!
//! Harness regenerating every table and figure of the Toleo paper's
//! evaluation (Section 6), plus the availability and recovery
//! experiments over the functional engine. The single entry point is
//! the `reproduce` binary:
//!
//! ```sh
//! cargo run --release -p toleo-bench --bin reproduce
//! ```
//!
//! which runs every experiment in [`experiments::REGISTRY`], writes a
//! `results/` tree (JSON + Markdown per experiment), diffs every
//! experiment against its committed `expected/` reference, checks the
//! availability and recovery invariants, and exits nonzero on any
//! divergence. `reproduce --only fig6` is the scoped single-figure run.
//! This crate holds no clock: the stopwatch is `benchmark/`, and a speed
//! claim is judged by its paired parent/change compare.
//!
//! Module map:
//!
//! - [`experiments`] — the registry: every table/figure/harness as a
//!   named [`experiments::Experiment`] returning a [`report::Report`],
//!   with a shared memoizing [`experiments::RunCtx`].
//! - [`report`] — the experiment output model (`toleo-experiment/v1`
//!   schema): metrics + tables, deterministic 9-significant-digit JSON,
//!   Markdown renderer.
//! - [`repro`] — delta machinery: exact or structural comparison vs
//!   `expected/`, availability and recovery invariants, and the
//!   `EXPERIMENTS.md` generated-block splicer.
//! - [`perf`] — the availability and recovery runs (fault injection,
//!   quarantine containment, adversary campaign), exact counts only, and
//!   the invariants they assert.
//! - [`harness`] — shared trace machinery: generate all 12 workload
//!   traces once, run them under any protection configuration (in
//!   parallel across workloads).
//!
//! JSON goes through `toleo-json`, the workspace's one value tree,
//! parser and printer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod repro;

pub mod harness {
    //! Shared run-everything machinery for the figure experiments.

    use toleo_sim::config::{Protection, SimConfig};
    use toleo_sim::system::{RunStats, System};
    use toleo_workloads::{generate, Benchmark, GenConfig};

    /// Generates all 12 traces.
    pub fn all_traces(cfg: &GenConfig) -> Vec<toleo_workloads::Trace> {
        Benchmark::all().iter().map(|b| generate(*b, cfg)).collect()
    }

    /// Runs every benchmark under `protection` on traces generated from
    /// `gen`, in parallel, preserving Table 2 order.
    pub fn run_all_with(protection: Protection, gen: &GenConfig) -> Vec<RunStats> {
        let traces = all_traces(gen);
        let mut out: Vec<Option<RunStats>> = vec![None; traces.len()];
        std::thread::scope(|s| {
            for (slot, trace) in out.iter_mut().zip(&traces) {
                s.spawn(move || {
                    let mut sys = System::new(SimConfig::scaled(protection));
                    *slot = Some(sys.run(trace));
                });
            }
        });
        // audit: allow(panic, scoped threads fill every slot before the scope exits)
        out.into_iter().map(|o| o.expect("run completed")).collect()
    }

    /// Arithmetic mean.
    pub fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mean_known_value() {
            assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        }

        #[test]
        fn run_all_produces_twelve() {
            let gen = toleo_workloads::GenConfig {
                mem_ops: 1_000,
                ..Default::default()
            };
            let stats = run_all_with(toleo_sim::config::Protection::NoProtect, &gen);
            assert_eq!(stats.len(), 12);
            assert_eq!(stats[0].name, "bsw");
            assert_eq!(stats[11].name, "hyrise");
        }
    }
}
