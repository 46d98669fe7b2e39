//! Registry-wide schema tests: every experiment's JSON output parses
//! under the workspace JSON reader, declares the current schema version,
//! and round-trips; the generated `figures` block of `EXPERIMENTS.md`
//! matches the committed references byte-for-byte.

use std::path::Path;

use toleo_bench::experiments::{self, RunCtx};
use toleo_bench::report::{Report, EXPERIMENT_SCHEMA};
use toleo_bench::repro;
use toleo_json as json;

/// Every registered experiment: JSON parses, schema matches, round-trip
/// is lossless, and the Markdown renderer produces non-trivial output.
#[test]
fn every_experiment_emits_schema_conformant_json() {
    let ctx = RunCtx::with_ops(2_000, 2_000);
    for exp in experiments::registry() {
        let report = (exp.run)(&ctx);
        assert_eq!(report.name, exp.name, "report name mismatch");

        let text = report.to_json();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: JSON invalid: {e}", exp.name));
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(EXPERIMENT_SCHEMA),
            "{}: wrong schema tag",
            exp.name
        );

        let parsed =
            Report::from_json(&doc).unwrap_or_else(|e| panic!("{}: round-trip: {e}", exp.name));
        assert_eq!(parsed.name, report.name);
        assert_eq!(parsed.tables.len(), report.tables.len(), "{}", exp.name);
        assert_eq!(parsed.metrics.len(), report.metrics.len(), "{}", exp.name);
        // Re-serializing the parsed form is byte-stable — what the
        // expected/ comparison relies on.
        assert_eq!(parsed.to_json(), text, "{}: not byte-stable", exp.name);

        assert!(
            !report.render_markdown().trim().is_empty(),
            "{}: empty markdown",
            exp.name
        );
    }
}

/// Every experiment is deterministic at fixed scale: two fresh contexts
/// produce byte-identical JSON.
#[test]
fn functional_experiments_are_deterministic() {
    for exp in experiments::registry() {
        let a = (exp.run)(&RunCtx::with_ops(1_000, 1_000)).to_json();
        let b = (exp.run)(&RunCtx::with_ops(1_000, 1_000)).to_json();
        assert_eq!(a, b, "{}: not deterministic", exp.name);
    }
}

/// The committed `expected/` references parse, declare the schema,
/// re-serialise byte-identically, and cover the whole registry.
#[test]
fn committed_references_cover_the_functional_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let expected = root.join("expected");
    for exp in experiments::registry() {
        let path = expected.join(format!("{}.json", exp.name));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing reference: {e}", path.display()));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", exp.name));
        let report = Report::from_json(&doc).unwrap_or_else(|e| panic!("{}: {e}", exp.name));
        assert_eq!(report.name, exp.name);
        assert_eq!(report.to_json(), text, "{}: not byte-identical", exp.name);
    }
}

/// `EXPERIMENTS.md`'s generated `figures` block equals a fresh rendering
/// from the committed references — the tables in the doc cannot be
/// hand-edited or go stale.
#[test]
fn experiments_md_generated_blocks_are_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");

    let figures = repro::render_headline(&root.join("expected")).expect("headline renders");
    let figures_block = repro::generated_block("figures", &figures);
    assert!(
        doc.contains(&figures_block),
        "EXPERIMENTS.md figures block is stale — run `reproduce --render` and commit"
    );
}
