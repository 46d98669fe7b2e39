//! The workspace-clean gate as a plain test: auditing the real
//! repository root must produce zero findings, exactly as the CI
//! `audit` job requires. This keeps `cargo test` and
//! `cargo run -p toleo-audit -- --check` in lockstep.

use std::path::PathBuf;

use toleo_audit::run_audit;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/audit sits two levels below the repo root")
        .to_path_buf()
}

#[test]
fn workspace_is_audit_clean() {
    let report = run_audit(&repo_root()).expect("workspace audit runs");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay audit-clean; run `cargo run -p toleo-audit -- --check` \
         and fix or annotate each finding:\n{:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "discovery lost the workspace");
}

/// `--fix-inventory` rewrites `AUDIT.json` through `toleo_json::pretty`:
/// printing the parsed file must give the file back byte for byte, or
/// every regeneration would bury its real change in layout noise.
#[test]
fn audit_json_reserialises_byte_identically() {
    let text = std::fs::read_to_string(repo_root().join("AUDIT.json")).expect("AUDIT.json");
    let doc = toleo_json::parse(&text).expect("AUDIT.json parses");
    assert_eq!(toleo_json::pretty(&doc, &[]), text);
}

/// The workspace's whole lock-free surface, pinned: the world-kill flag
/// and the batch helper's mailbox phase (a write-once cell is `std`'s
/// `OnceLock`, not a row, and telemetry is summed under the shard locks
/// when it is read). Another row is one more publication channel beside
/// the shard mutex — it needs a reader that decides on it, and a model
/// that covers it, first (the phase's is the offer, take-back and wait in
/// `toleo-model`'s handshake).
#[test]
fn atomic_protocol_table_is_exactly_two_rows() {
    let text = std::fs::read_to_string(repo_root().join("AUDIT.json")).expect("AUDIT.json");
    let doc = toleo_json::parse(&text).expect("AUDIT.json parses");
    let rows = doc
        .get("atomics")
        .and_then(toleo_json::Value::as_object)
        .expect("atomics table");
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["killed", "phase"]);
}
