//! The reproduce harness library: delta comparison of freshly generated
//! experiment [`Report`]s against committed `expected/` references, the
//! availability and recovery correctness invariants, and the
//! `EXPERIMENTS.md` generated-block splicer.
//!
//! Two comparison regimes, chosen per experiment:
//!
//! - **Functional experiments** (the figure/table reports) are
//!   deterministic: same trace seeds, same simulator config, bit-identical
//!   output on any host. When the run used the same `mem_ops` as the
//!   reference, every metric and every table cell must match exactly
//!   (after [`crate::report::sig9`] rounding). When the scales differ — a
//!   CI smoke run at `TOLEO_BENCH_OPS=2000 `against full-scale references
//!   — only the *shape* is checked: metric key set, table titles and
//!   column headers.
//! - **Timing experiments** (`availability`, `recovery`) carry
//!   wall-clock cells that vary by host and run; they are reported and
//!   exempt from reference comparison. What gates them needs no
//!   baseline: [`check_availability_invariants`] and
//!   [`check_recovery_invariants`] run whenever the experiment does. A
//!   wall-clock claim is judged by `benchmark/`'s paired parent/change
//!   compare, not here.
//!
//! # Examples
//!
//! ```
//! use toleo_bench::report::Report;
//! use toleo_bench::repro::{compare_reports, DeltaStatus};
//!
//! let mut expected = Report::new("fig0", "demo", 1000);
//! expected.metric("x", 1.25);
//! let mut measured = Report::new("fig0", "demo", 1000);
//! measured.metric("x", 1.25);
//! assert_eq!(compare_reports(&expected, &measured, false).status, DeltaStatus::Match);
//!
//! measured.metrics[0].1 = 9.0; // doctor the measurement
//! let delta = compare_reports(&expected, &measured, false);
//! assert_eq!(delta.status, DeltaStatus::Drift);
//! assert!(delta.details[0].contains("metric x"));
//! ```

use crate::report::{sig9, Report};

/// Verdict of one experiment's delta check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// Same scale, every metric and cell identical.
    Match,
    /// Different scale (smoke run); metric keys and table shapes agree.
    StructuralMatch,
    /// Values or shapes diverge from the committed reference.
    Drift,
    /// No committed reference for this experiment.
    MissingExpected,
    /// Timing experiment: reported, exempt from reference comparison.
    TimingSkipped,
}

impl DeltaStatus {
    /// Whether this status should fail the reproduce run.
    pub fn is_failure(self) -> bool {
        matches!(self, DeltaStatus::Drift | DeltaStatus::MissingExpected)
    }

    /// Short label for the delta report.
    pub fn label(self) -> &'static str {
        match self {
            DeltaStatus::Match => "match",
            DeltaStatus::StructuralMatch => "structural match (scaled-down run)",
            DeltaStatus::Drift => "DRIFT",
            DeltaStatus::MissingExpected => "MISSING EXPECTED",
            DeltaStatus::TimingSkipped => "timing (reported, not compared)",
        }
    }
}

/// One experiment's delta verdict with human-readable divergence details.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// Experiment name.
    pub name: String,
    /// The verdict.
    pub status: DeltaStatus,
    /// First divergences found (capped so a wholesale drift stays
    /// readable).
    pub details: Vec<String>,
}

const MAX_DETAILS: usize = 8;

fn push_detail(details: &mut Vec<String>, msg: String) {
    if details.len() < MAX_DETAILS {
        details.push(msg);
    } else if details.len() == MAX_DETAILS {
        details.push("… further divergences elided".to_string());
    }
}

/// Compares a measured report against its committed reference.
///
/// `timing` marks wall-clock experiments, which return
/// [`DeltaStatus::TimingSkipped`] unconditionally.
pub fn compare_reports(expected: &Report, measured: &Report, timing: bool) -> DeltaOutcome {
    let mut details = Vec::new();
    if timing {
        return DeltaOutcome {
            name: measured.name.clone(),
            status: DeltaStatus::TimingSkipped,
            details,
        };
    }
    let exact = expected.mem_ops == measured.mem_ops;

    // Metric key sets must agree at any scale.
    let expected_keys: Vec<&str> = expected.metrics.iter().map(|(k, _)| k.as_str()).collect();
    let measured_keys: Vec<&str> = measured.metrics.iter().map(|(k, _)| k.as_str()).collect();
    for k in &expected_keys {
        if !measured_keys.contains(k) {
            push_detail(&mut details, format!("metric {k} missing from this run"));
        }
    }
    for k in &measured_keys {
        if !expected_keys.contains(k) {
            push_detail(
                &mut details,
                format!("metric {k} absent from the reference"),
            );
        }
    }

    // Table shapes must agree at any scale.
    if expected.tables.len() != measured.tables.len() {
        push_detail(
            &mut details,
            format!(
                "table count {} vs reference {}",
                measured.tables.len(),
                expected.tables.len()
            ),
        );
    }
    for (e, m) in expected.tables.iter().zip(&measured.tables) {
        if e.title != m.title {
            push_detail(
                &mut details,
                format!("table title {:?} vs reference {:?}", m.title, e.title),
            );
        }
        if e.columns != m.columns {
            push_detail(
                &mut details,
                format!("table {:?}: column headers diverge", e.title),
            );
        }
    }

    if exact {
        // Same scale: values must be bit-identical after sig9 rounding.
        for (k, ev) in &expected.metrics {
            if let Some(mv) = measured.get_metric(k) {
                if sig9(*ev).to_bits() != sig9(mv).to_bits() {
                    push_detail(
                        &mut details,
                        format!("metric {k}: {} vs reference {}", sig9(mv), sig9(*ev)),
                    );
                }
            }
        }
        for (e, m) in expected.tables.iter().zip(&measured.tables) {
            if e.rows.len() != m.rows.len() {
                push_detail(
                    &mut details,
                    format!(
                        "table {:?}: {} rows vs reference {}",
                        e.title,
                        m.rows.len(),
                        e.rows.len()
                    ),
                );
                continue;
            }
            for (i, (er, mr)) in e.rows.iter().zip(&m.rows).enumerate() {
                for (ec, mc) in er.iter().zip(mr) {
                    let nums_match = match (ec.num, mc.num) {
                        (Some(a), Some(b)) => sig9(a).to_bits() == sig9(b).to_bits(),
                        (None, None) => true,
                        _ => false,
                    };
                    if ec.text != mc.text || !nums_match {
                        push_detail(
                            &mut details,
                            format!(
                                "table {:?} row {i}: cell {:?} vs reference {:?}",
                                e.title, mc.text, ec.text
                            ),
                        );
                    }
                }
            }
        }
    }

    let status = if !details.is_empty() {
        DeltaStatus::Drift
    } else if exact {
        DeltaStatus::Match
    } else {
        DeltaStatus::StructuralMatch
    };
    DeltaOutcome {
        name: measured.name.clone(),
        status,
        details,
    }
}

/// One correctness invariant from the availability experiment: an exact
/// required value, independent of any baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantRow {
    /// Metric name.
    pub name: &'static str,
    /// The value the invariant requires.
    pub required: f64,
    /// The measured value.
    pub actual: f64,
    /// Whether the invariant holds.
    pub pass: bool,
}

/// Checks the availability report's correctness invariants: no false
/// kills, bit-identical observations at every fault rate, exactly one
/// quarantined shard, and no world-kill.
///
/// # Errors
///
/// The report is missing one of the invariant metrics.
pub fn check_availability_invariants(availability: &Report) -> Result<Vec<InvariantRow>, String> {
    const INVARIANTS: [(&str, f64); 4] = [
        ("false_kills.total", 0.0),
        ("observations_match.all", 1.0),
        ("quarantine.quarantined_shards", 1.0),
        ("quarantine.world_killed", 0.0),
    ];
    INVARIANTS
        .iter()
        .map(|&(name, required)| {
            let actual = availability
                .get_metric(name)
                .ok_or_else(|| format!("availability report has no metric {name}"))?;
            Ok(InvariantRow {
                name,
                required,
                actual,
                pass: actual == required,
            })
        })
        .collect()
}

/// Checks the recovery experiment's correctness invariants: the adversary
/// campaign never false-kills or world-kills, observations on
/// never-attacked addresses stay bit-identical across every
/// quarantine → recover → re-serve cycle, lost blocks surface only as
/// typed errors, every step is detected within the kill-poll bound and
/// ends re-admitted, and healthy shards keep at least 0.9× the
/// fault-free goodput while a recovery runs.
///
/// # Errors
///
/// The report is missing one of the invariant metrics.
pub fn check_recovery_invariants(recovery: &Report) -> Result<Vec<InvariantRow>, String> {
    /// Exact invariants: `actual == required`.
    const EXACT: [(&str, f64); 6] = [
        ("false_kills.total", 0.0),
        ("world_killed", 0.0),
        ("observations.mismatches", 0.0),
        ("pages_lost.unaccounted", 0.0),
        ("detection.within_poll_bound", 1.0),
        ("recovery.readmitted_all", 1.0),
    ];
    /// Floor invariants: `actual >= required`.
    const FLOORS: [(&str, f64); 2] = [
        ("recoveries.completed", 2.0),
        ("goodput.during_recovery_vs_fault_free", 0.9),
    ];
    let row = |name: &'static str, required: f64, exact: bool| {
        let actual = recovery
            .get_metric(name)
            .ok_or_else(|| format!("recovery report has no metric {name}"))?;
        Ok(InvariantRow {
            name,
            required,
            actual,
            pass: if exact {
                actual == required
            } else {
                actual >= required
            },
        })
    };
    EXACT
        .iter()
        .map(|&(name, required)| row(name, required, true))
        .chain(
            FLOORS
                .iter()
                .map(|&(name, required)| row(name, required, false)),
        )
        .collect()
}

/// The experiments whose reference tables `reproduce --render` inlines
/// into `EXPERIMENTS.md` (the headline paper-vs-measured results; the
/// rest live under `expected/` and `results/`).
pub const HEADLINE_EXPERIMENTS: [&str; 8] = [
    "table2",
    "table4",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "sec62",
    "calibrate",
];

/// Marker opening a generated block in `EXPERIMENTS.md`.
pub fn begin_marker(tag: &str) -> String {
    format!("<!-- BEGIN GENERATED: {tag} (reproduce --render) -->")
}

/// Marker closing a generated block in `EXPERIMENTS.md`.
pub fn end_marker(tag: &str) -> String {
    format!("<!-- END GENERATED: {tag} -->")
}

/// Wraps `body` in its markers, exactly as it appears in the document.
pub fn generated_block(tag: &str, body: &str) -> String {
    format!(
        "{}\n\n{}\n{}",
        begin_marker(tag),
        body.trim_end(),
        end_marker(tag)
    )
}

/// Replaces the generated block `tag` inside `doc` with a freshly
/// rendered `body`, keeping everything outside the markers untouched.
///
/// # Errors
///
/// The document lacks the begin/end markers for `tag`.
pub fn splice_generated(doc: &str, tag: &str, body: &str) -> Result<String, String> {
    let begin = begin_marker(tag);
    let end = end_marker(tag);
    let start = doc
        .find(&begin)
        .ok_or_else(|| format!("document has no {begin:?} marker"))?;
    let stop = doc
        .find(&end)
        .ok_or_else(|| format!("document has no {end:?} marker"))?;
    if stop < start {
        return Err(format!("{tag}: end marker precedes begin marker"));
    }
    let mut out = String::with_capacity(doc.len());
    out.push_str(&doc[..start]);
    out.push_str(&generated_block(tag, body));
    out.push_str(&doc[stop + end.len()..]);
    Ok(out)
}

/// Renders the headline experiments' committed reference reports as the
/// `figures` block body. Reads `expected/<name>.json`, so the output is
/// deterministic — a test pins `EXPERIMENTS.md` to it.
///
/// # Errors
///
/// A missing or malformed reference file.
pub fn render_headline(expected_dir: &std::path::Path) -> Result<String, String> {
    let mut out = String::new();
    for name in HEADLINE_EXPERIMENTS {
        let path = expected_dir.join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = toleo_json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let report = Report::from_json(&doc).map_err(|e| format!("{name}: {e}"))?;
        out.push_str(&report.render_markdown());
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Cell, Table};

    fn demo(mem_ops: u64, x: f64) -> Report {
        let mut r = Report::new("demo", "demo report", mem_ops);
        r.metric("x", x);
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec![Cell::text("r0"), Cell::num(x, 2)]);
        r.tables.push(t);
        r
    }

    #[test]
    fn same_scale_same_values_match() {
        let d = compare_reports(&demo(1000, 1.5), &demo(1000, 1.5), false);
        assert_eq!(d.status, DeltaStatus::Match);
        assert!(d.details.is_empty());
    }

    #[test]
    fn same_scale_value_drift_is_reported() {
        let d = compare_reports(&demo(1000, 1.5), &demo(1000, 1.6), false);
        assert_eq!(d.status, DeltaStatus::Drift);
        assert!(
            d.details.iter().any(|s| s.contains("metric x")),
            "{:?}",
            d.details
        );
        assert!(
            d.details.iter().any(|s| s.contains("row 0")),
            "{:?}",
            d.details
        );
    }

    #[test]
    fn scaled_run_checks_shape_only() {
        // Different mem_ops, different values: structural match.
        let d = compare_reports(&demo(200_000, 1.5), &demo(2_000, 9.9), false);
        assert_eq!(d.status, DeltaStatus::StructuralMatch);
        // …but a missing metric still drifts.
        let mut small = demo(2_000, 9.9);
        small.metrics.clear();
        small.metric("y", 1.0);
        let d = compare_reports(&demo(200_000, 1.5), &small, false);
        assert_eq!(d.status, DeltaStatus::Drift);
        assert!(d.details.iter().any(|s| s.contains("metric x missing")));
        assert!(d.details.iter().any(|s| s.contains("metric y absent")));
        // …and so does a renamed table or changed columns.
        let mut retitled = demo(2_000, 9.9);
        retitled.tables[0].title = "other".to_string();
        assert_eq!(
            compare_reports(&demo(200_000, 1.5), &retitled, false).status,
            DeltaStatus::Drift
        );
    }

    #[test]
    fn timing_reports_are_skipped() {
        let d = compare_reports(&demo(1000, 1.0), &demo(1000, 2.0), true);
        assert_eq!(d.status, DeltaStatus::TimingSkipped);
        assert!(!d.status.is_failure());
        assert!(DeltaStatus::Drift.is_failure());
        assert!(DeltaStatus::MissingExpected.is_failure());
        assert!(!DeltaStatus::StructuralMatch.is_failure());
    }

    #[test]
    fn detail_flood_is_capped() {
        let mut big_e = Report::new("demo", "d", 10);
        let mut big_m = Report::new("demo", "d", 10);
        for i in 0..40 {
            big_e.metric(format!("m{i}"), 1.0);
            big_m.metric(format!("m{i}"), 2.0);
        }
        let d = compare_reports(&big_e, &big_m, false);
        assert_eq!(d.status, DeltaStatus::Drift);
        assert_eq!(d.details.len(), MAX_DETAILS + 1);
        assert!(d.details.last().unwrap().contains("elided"));
    }

    #[test]
    fn splice_replaces_only_the_tagged_block() {
        let doc = format!(
            "intro\n\n{}\n\ntail\n\n{}\n",
            generated_block("figures", "OLD FIGURES"),
            generated_block("trajectory", "OLD TRAJECTORY"),
        );
        let spliced = splice_generated(&doc, "figures", "NEW FIGURES").unwrap();
        assert!(spliced.contains("NEW FIGURES"));
        assert!(!spliced.contains("OLD FIGURES"));
        assert!(spliced.contains("OLD TRAJECTORY"), "other block untouched");
        assert!(spliced.starts_with("intro\n"));
        assert!(spliced.contains("\ntail\n"));
        // Splicing the same body is idempotent.
        assert_eq!(
            splice_generated(&spliced, "figures", "NEW FIGURES").unwrap(),
            spliced
        );
        assert!(splice_generated("no markers here", "figures", "x")
            .unwrap_err()
            .contains("marker"));
    }

    #[test]
    fn availability_invariants_hold_and_fail() {
        let mut ok = Report::new("availability", "d", 10);
        ok.metric("false_kills.total", 0.0);
        ok.metric("observations_match.all", 1.0);
        ok.metric("quarantine.quarantined_shards", 1.0);
        ok.metric("quarantine.world_killed", 0.0);
        let rows = check_availability_invariants(&ok).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.pass));

        let mut bad = ok.clone();
        bad.metrics[0].1 = 2.0; // two false kills
        let rows = check_availability_invariants(&bad).unwrap();
        assert!(!rows[0].pass);

        let empty = Report::new("availability", "d", 10);
        assert!(check_availability_invariants(&empty)
            .unwrap_err()
            .contains("false_kills.total"));
    }

    #[test]
    fn recovery_invariants_mix_exact_and_floor_checks() {
        let mut ok = Report::new("recovery", "d", 10);
        ok.metric("false_kills.total", 0.0);
        ok.metric("world_killed", 0.0);
        ok.metric("observations.mismatches", 0.0);
        ok.metric("pages_lost.unaccounted", 0.0);
        ok.metric("detection.within_poll_bound", 1.0);
        ok.metric("recovery.readmitted_all", 1.0);
        ok.metric("recoveries.completed", 2.0);
        ok.metric("goodput.during_recovery_vs_fault_free", 0.97);
        let rows = check_recovery_invariants(&ok).unwrap();
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.pass));

        // Floors pass above their requirement but fail below it.
        let mut more = ok.clone();
        more.metrics.retain(|(k, _)| k != "recoveries.completed");
        more.metric("recoveries.completed", 3.0);
        assert!(check_recovery_invariants(&more)
            .unwrap()
            .iter()
            .all(|r| r.pass));
        let mut slow = ok.clone();
        slow.metrics
            .retain(|(k, _)| k != "goodput.during_recovery_vs_fault_free");
        slow.metric("goodput.during_recovery_vs_fault_free", 0.5);
        let rows = check_recovery_invariants(&slow).unwrap();
        let goodput = rows
            .iter()
            .find(|r| r.name == "goodput.during_recovery_vs_fault_free")
            .unwrap();
        assert!(!goodput.pass);

        // Exact invariants fail on ANY deviation, including "too big".
        let mut killed = ok.clone();
        killed.metrics.retain(|(k, _)| k != "false_kills.total");
        killed.metric("false_kills.total", 1.0);
        assert!(!check_recovery_invariants(&killed).unwrap()[0].pass);

        let empty = Report::new("recovery", "d", 10);
        assert!(check_recovery_invariants(&empty)
            .unwrap_err()
            .contains("false_kills.total"));
    }
}
