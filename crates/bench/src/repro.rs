//! The reproduce harness library: delta comparison of freshly generated
//! experiment [`Report`]s against committed `expected/` references, the
//! availability and recovery correctness invariants, and the
//! `EXPERIMENTS.md` generated-block splicer.
//!
//! Every experiment is deterministic: same trace seeds, same simulator
//! and engine config, explicit fault plans — bit-identical output on any
//! host. When the run used the same `mem_ops` as the reference, every
//! metric and every table cell must match exactly (after
//! [`crate::report::sig9`] rounding). When the scales differ — a smoke
//! run at `--ops 2000` against full-scale references — only the *shape*
//! is checked: metric key set, table titles and column headers.
//!
//! The [`INVARIANTS`] need no reference: [`check_invariants`] holds each
//! to its required value whenever its experiment runs, at any scale.
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
//! assert_eq!(compare_reports(&expected, &measured).status, DeltaStatus::Match);
//!
//! measured.metrics[0].1 = 9.0; // doctor the measurement
//! let delta = compare_reports(&expected, &measured);
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
pub fn compare_reports(expected: &Report, measured: &Report) -> DeltaOutcome {
    let mut details = Vec::new();
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

/// The correctness invariants of the availability and recovery
/// experiments, as `(experiment, metric, required)`: each metric must
/// equal its required value on every run at every scale, independent of
/// any reference.
///
/// Availability: injected transients never kill, observations stay
/// bit-identical at every fault rate, a tamper quarantines exactly one
/// shard and never world-kills. Recovery (folded over both device
/// links): the campaign never false-kills or world-kills, observations
/// on never-attacked addresses stay bit-identical across every
/// quarantine → recover → re-serve cycle, lost blocks surface only as
/// typed errors, every step is detected within the kill-poll bound and
/// ends re-admitted, and every mounted step completes a recovery.
pub const INVARIANTS: [(&str, &str, f64); 11] = [
    ("availability", "false_kills.total", 0.0),
    ("availability", "observations_match.all", 1.0),
    ("availability", "quarantine.quarantined_shards", 1.0),
    ("availability", "quarantine.world_killed", 0.0),
    ("recovery", "false_kills.total", 0.0),
    ("recovery", "world_killed", 0.0),
    ("recovery", "observations.mismatches", 0.0),
    ("recovery", "pages_lost.unaccounted", 0.0),
    ("recovery", "detection.within_poll_bound", 1.0),
    ("recovery", "recovery.readmitted_all", 1.0),
    (
        "recovery",
        "recoveries.completed",
        (crate::perf::RECOVERY_LINKS.len() * crate::perf::RECOVERY_CAMPAIGN_STEPS) as f64,
    ),
];

/// One checked entry of [`INVARIANTS`].
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

/// Checks every entry of [`INVARIANTS`] that names `report`'s
/// experiment (none, for most experiments).
///
/// # Errors
///
/// The report is missing one of its invariant metrics.
pub fn check_invariants(report: &Report) -> Result<Vec<InvariantRow>, String> {
    INVARIANTS
        .iter()
        .filter(|(experiment, _, _)| *experiment == report.name)
        .map(|&(experiment, name, required)| {
            let actual = report
                .get_metric(name)
                .ok_or_else(|| format!("{experiment} report has no metric {name}"))?;
            Ok(InvariantRow {
                name,
                required,
                actual,
                pass: actual == required,
            })
        })
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
        let d = compare_reports(&demo(1000, 1.5), &demo(1000, 1.5));
        assert_eq!(d.status, DeltaStatus::Match);
        assert!(d.details.is_empty());
    }

    #[test]
    fn same_scale_value_drift_is_reported() {
        let d = compare_reports(&demo(1000, 1.5), &demo(1000, 1.6));
        assert_eq!(d.status, DeltaStatus::Drift);
        assert!(d.status.is_failure());
        assert!(DeltaStatus::MissingExpected.is_failure());
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
        let d = compare_reports(&demo(200_000, 1.5), &demo(2_000, 9.9));
        assert_eq!(d.status, DeltaStatus::StructuralMatch);
        assert!(!d.status.is_failure());
        // …but a missing metric still drifts.
        let mut small = demo(2_000, 9.9);
        small.metrics.clear();
        small.metric("y", 1.0);
        let d = compare_reports(&demo(200_000, 1.5), &small);
        assert_eq!(d.status, DeltaStatus::Drift);
        assert!(d.details.iter().any(|s| s.contains("metric x missing")));
        assert!(d.details.iter().any(|s| s.contains("metric y absent")));
        // …and so does a renamed table or changed columns.
        let mut retitled = demo(2_000, 9.9);
        retitled.tables[0].title = "other".to_string();
        assert_eq!(
            compare_reports(&demo(200_000, 1.5), &retitled).status,
            DeltaStatus::Drift
        );
    }

    #[test]
    fn detail_flood_is_capped() {
        let mut big_e = Report::new("demo", "d", 10);
        let mut big_m = Report::new("demo", "d", 10);
        for i in 0..40 {
            big_e.metric(format!("m{i}"), 1.0);
            big_m.metric(format!("m{i}"), 2.0);
        }
        let d = compare_reports(&big_e, &big_m);
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

    /// A report for `experiment` carrying every invariant metric at its
    /// required value.
    fn passing(experiment: &str) -> Report {
        let mut r = Report::new(experiment, "d", 10);
        for (_, name, required) in INVARIANTS.iter().filter(|(e, _, _)| *e == experiment) {
            r.metric(*name, *required);
        }
        r
    }

    #[test]
    fn availability_invariants_hold_and_fail() {
        let ok = passing("availability");
        let rows = check_invariants(&ok).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.pass));

        let mut bad = ok.clone();
        bad.metrics[0].1 = 2.0; // two false kills
        let rows = check_invariants(&bad).unwrap();
        assert!(!rows[0].pass);

        let empty = Report::new("availability", "d", 10);
        assert!(check_invariants(&empty)
            .unwrap_err()
            .contains("false_kills.total"));
    }

    #[test]
    fn recovery_invariants_are_all_equalities() {
        let ok = passing("recovery");
        let rows = check_invariants(&ok).unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| r.pass));

        // Any deviation fails, in either direction: a recovery more or
        // fewer than the mounted steps is as wrong as a false kill.
        for (metric, value) in [
            ("recoveries.completed", 3.0),
            ("recoveries.completed", 5.0),
            ("false_kills.total", 1.0),
            ("detection.within_poll_bound", 0.0),
        ] {
            let mut bad = ok.clone();
            bad.metrics.retain(|(k, _)| k != metric);
            bad.metric(metric, value);
            let rows = check_invariants(&bad).unwrap();
            let row = rows.iter().find(|r| r.name == metric).unwrap();
            assert!(!row.pass, "{metric} = {value} must fail");
            assert_eq!(rows.iter().filter(|r| !r.pass).count(), 1);
        }

        let empty = Report::new("recovery", "d", 10);
        assert!(check_invariants(&empty)
            .unwrap_err()
            .contains("false_kills.total"));
        // An experiment with no invariants has nothing to check.
        assert!(check_invariants(&demo(10, 1.0)).unwrap().is_empty());
    }
}
