//! The experiment registry: every paper figure/table plus the
//! availability and recovery experiments as library entry points.
//!
//! Each experiment is a module returning a structured [`Report`]. The
//! `reproduce` binary (`--only <name>` for one experiment) and the test
//! suite share these entry points: run one experiment, get back
//! machine-comparable tables and metrics.
//!
//! A [`RunCtx`] carries the scale knobs and memoizes the expensive
//! simulator sweeps: several experiments need "all 12 workloads under
//! protection P", and the cache means each (protection, scale) pair is
//! simulated once per process instead of once per experiment.
//!
//! # Example
//!
//! Run one experiment at a tiny scale and inspect its output:
//!
//! ```
//! use toleo_bench::experiments;
//!
//! let ctx = experiments::RunCtx::with_ops(2_000, 2_000);
//! let exp = experiments::find("fig10").expect("registered");
//! let report = (exp.run)(&ctx);
//! assert_eq!(report.name, "fig10");
//! assert!(report.get_metric("overall.flat_fraction").is_some());
//! // Machine-readable form parses under the workspace JSON reader.
//! assert!(toleo_json::parse(&report.to_json()).is_ok());
//! ```

pub mod ablations;
pub mod availability;
pub mod calibrate;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod recovery;
pub mod sec62;
pub mod sim_summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::perf;
use crate::report::Report;
use toleo_sim::config::Protection;
use toleo_sim::system::RunStats;
use toleo_workloads::GenConfig;

/// One registered experiment.
pub struct Experiment {
    /// Registry name; also the `reproduce --only` name and the
    /// `results/<name>.*` stem.
    pub name: &'static str,
    /// Which paper element it reproduces ("Figure 6", "Table 2", …).
    pub paper_ref: &'static str,
    /// One-line description for `reproduce --list` and the summary.
    pub about: &'static str,
    /// The entry point.
    pub run: fn(&RunCtx) -> Report,
}

/// Scale knobs plus the memoized simulator sweeps shared by every
/// experiment in one `reproduce` run.
pub struct RunCtx {
    /// Trace-generation config for the modeled-cycles experiments.
    pub gen: GenConfig,
    /// Ops per workload for the availability and recovery experiments.
    pub perf_ops: u64,
    cache: RefCell<HashMap<Protection, Rc<Vec<RunStats>>>>,
}

impl Default for RunCtx {
    /// The scale the committed `expected/` references were generated at.
    fn default() -> RunCtx {
        RunCtx::with_ops(GenConfig::default().mem_ops, perf::DEFAULT_OPS)
    }
}

impl RunCtx {
    /// A context at explicit scales (used by tests and `--ops`).
    pub fn with_ops(mem_ops: usize, perf_ops: u64) -> RunCtx {
        RunCtx {
            gen: GenConfig {
                mem_ops,
                ..Default::default()
            },
            perf_ops,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// All 12 workloads under `protection`, memoized per protection for
    /// the lifetime of this context.
    pub fn run_all(&self, protection: Protection) -> Rc<Vec<RunStats>> {
        if let Some(hit) = self.cache.borrow().get(&protection) {
            return Rc::clone(hit);
        }
        let stats = Rc::new(crate::harness::run_all_with(protection, &self.gen));
        self.cache
            .borrow_mut()
            .insert(protection, Rc::clone(&stats));
        stats
    }
}

/// Every experiment, in reporting order: the paper's tables, its
/// figures, the security analysis and ablations, the raw simulator
/// summary, then the robustness experiments over the functional engine.
pub static REGISTRY: [Experiment; 17] = [
    Experiment {
        name: "table1",
        paper_ref: "Table 1",
        about: "memory-protection guarantee comparison",
        run: table1::run,
    },
    Experiment {
        name: "table2",
        paper_ref: "Table 2",
        about: "benchmark characteristics: measured LLC MPKI and RSS vs paper",
        run: table2::run,
    },
    Experiment {
        name: "table3",
        paper_ref: "Table 3",
        about: "simulation configuration (paper preset and scaled preset)",
        run: table3::run,
    },
    Experiment {
        name: "table4",
        paper_ref: "Table 4",
        about: "freshness-protected version size comparison",
        run: table4::run,
    },
    Experiment {
        name: "fig6",
        paper_ref: "Figure 6",
        about: "execution-time overhead of CI/Toleo/InvisiMem vs NoProtect",
        run: fig6::run,
    },
    Experiment {
        name: "fig7",
        paper_ref: "Figure 7",
        about: "stealth-cache and MAC-cache hit rates",
        run: fig7::run,
    },
    Experiment {
        name: "fig8",
        paper_ref: "Figure 8",
        about: "memory bandwidth overhead: bytes per instruction by traffic class",
        run: fig8::run,
    },
    Experiment {
        name: "fig9",
        paper_ref: "Figure 9",
        about: "average memory read latency decomposition",
        run: fig9::run,
    },
    Experiment {
        name: "fig10",
        paper_ref: "Figure 10",
        about: "pages classified by final Trip format",
        run: fig10::run,
    },
    Experiment {
        name: "fig11",
        paper_ref: "Figure 11",
        about: "peak Toleo usage per TB of protected data",
        run: fig11::run,
    },
    Experiment {
        name: "fig12",
        paper_ref: "Figure 12",
        about: "Toleo usage by Trip format over time",
        run: fig12::run,
    },
    Experiment {
        name: "sec62",
        paper_ref: "Section 6.2",
        about: "stealth exhaustion / replay probability bounds + Monte-Carlo",
        run: sec62::run,
    },
    Experiment {
        name: "ablations",
        paper_ref: "Section 7 (design choices)",
        about: "reset policy, Trip dynamism, stealth width, tree walks, hot writes",
        run: ablations::run,
    },
    Experiment {
        name: "calibrate",
        paper_ref: "Table 2 + Figures 6/7/10",
        about: "calibration dashboard: measured vs paper targets",
        run: calibrate::run,
    },
    Experiment {
        name: "sim-summary",
        paper_ref: "Section 5 (methodology)",
        about: "raw modeled cycles/traffic for all 12 workloads x 5 protections",
        run: sim_summary::run,
    },
    Experiment {
        name: "availability",
        paper_ref: "robustness report",
        about: "injected link faults absorbed by retry + one-shard quarantine containment",
        run: availability::run,
    },
    Experiment {
        name: "recovery",
        paper_ref: "robustness report",
        about: "adversary campaign: detection latency, outage window, scrub/re-key/re-admit",
        run: recovery::run,
    },
];

/// The full registry.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// Looks up one experiment by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for e in registry() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
        }
        let mut names: Vec<_> = registry().iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
    }

    #[test]
    fn run_all_memoizes_per_protection() {
        let ctx = RunCtx::with_ops(500, 500);
        let a = ctx.run_all(Protection::NoProtect);
        let b = ctx.run_all(Protection::NoProtect);
        assert!(Rc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(a.len(), 12);
    }
}
