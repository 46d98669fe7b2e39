//! End-to-end tests of the `reproduce` binary: the results tree is
//! written, a clean run exits zero, a doctored or missing reference
//! exits nonzero, the retired floor-gate flags and the retired
//! `throughput` experiment are rejected, the availability and recovery
//! invariants gate every run that includes them, and their reports do
//! not depend on the environment.

use std::path::{Path, PathBuf};
use std::process::Command;

fn reproduce() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    // Run from the repo root so the default `expected/` path resolves
    // exactly as documented.
    cmd.current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    cmd
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("toleo-reproduce-tests")
        .join(format!("{test}-{}", std::process::id()));
    // A retry with the same pid must not see a previous run's files.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn clean_run_writes_results_and_exits_zero() {
    let dir = scratch("clean");
    let out = dir.join("results");
    let expected = dir.join("expected");

    // First run bootstraps the references, second run must match them.
    let status = reproduce()
        .args(["--ops", "2000", "--only", "fig10,table2,sec62"])
        .arg("--out")
        .arg(&out)
        .arg("--expected")
        .arg(&expected)
        .arg("--update-expected")
        .status()
        .expect("spawn reproduce");
    assert!(status.success(), "bootstrap run failed");

    let status = reproduce()
        .args(["--ops", "2000", "--only", "fig10,table2,sec62"])
        .arg("--out")
        .arg(&out)
        .arg("--expected")
        .arg(&expected)
        .status()
        .expect("spawn reproduce");
    assert!(status.success(), "verification run failed");

    for stem in ["fig10", "table2", "sec62", "summary", "delta"] {
        for ext in ["json", "md"] {
            let path = out.join(format!("{stem}.{ext}"));
            let wanted = (stem != "summary" && stem != "delta") || ext == "md";
            assert_eq!(path.exists(), wanted, "{}", path.display());
        }
    }
    let delta = std::fs::read_to_string(out.join("delta.md")).expect("delta.md");
    assert_eq!(delta.matches("— match").count(), 3, "{delta}");
}

#[test]
fn doctored_reference_fails_the_run() {
    // A modeled-cycles metric and a robustness counter: either drifting
    // from its reference must fail the run.
    for (experiment, metric) in [
        ("fig10", "overall.flat_fraction"),
        ("recovery", "blocks_lost.total"),
    ] {
        let dir = scratch(&format!("doctored-ref-{experiment}"));
        let out = dir.join("results");
        let expected = dir.join("expected");

        let status = reproduce()
            .args(["--ops", "2000", "--only", experiment])
            .arg("--out")
            .arg(&out)
            .arg("--expected")
            .arg(&expected)
            .arg("--update-expected")
            .status()
            .expect("spawn reproduce");
        assert!(status.success(), "{experiment}");

        // Doctor the committed reference: nudge one metric.
        let ref_path = expected.join(format!("{experiment}.json"));
        let text = std::fs::read_to_string(&ref_path).expect("reference");
        let needle = format!("\"{metric}\": ");
        let at = text.find(&needle).expect("metric present") + needle.len();
        let doctored = format!(
            "{}0.123456{}",
            &text[..at],
            &text[text[at..].find(',').map(|i| at + i).unwrap()..]
        );
        std::fs::write(&ref_path, doctored).expect("write doctored reference");

        let status = reproduce()
            .args(["--ops", "2000", "--only", experiment])
            .arg("--out")
            .arg(&out)
            .arg("--expected")
            .arg(&expected)
            .status()
            .expect("spawn reproduce");
        assert!(
            !status.success(),
            "{experiment}: a doctored reference must fail the reproduction"
        );
        let delta = std::fs::read_to_string(out.join("delta.md")).expect("delta.md");
        assert!(delta.contains("DRIFT"), "{delta}");
        assert!(delta.contains(metric), "{delta}");
    }
}

#[test]
fn missing_reference_fails_the_run() {
    let dir = scratch("missing-ref");
    let status = reproduce()
        .args(["--ops", "2000", "--only", "fig10"])
        .arg("--out")
        .arg(dir.join("results"))
        .arg("--expected")
        .arg(dir.join("empty-expected"))
        .status()
        .expect("spawn reproduce");
    assert!(!status.success(), "a missing reference must fail the run");
}

#[test]
fn retired_gate_flags_are_rejected() {
    // The absolute-floor gate is gone; a stale CI or doc invocation must
    // fail loudly instead of running ungated.
    for stale in [["--compare", "x.json"], ["--tolerance", "0.85"]] {
        let output = reproduce().args(stale).output().expect("spawn reproduce");
        assert_eq!(output.status.code(), Some(2), "{stale:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(stderr.contains("usage: reproduce"), "{stale:?}: {stderr}");
    }
}

/// No flag needed: the correctness invariants gate every run that
/// includes `experiment`, and `delta.md` carries them in its one
/// `## Invariants` table.
fn assert_invariants_gated(experiment: &str, invariants: usize) {
    let dir = scratch(&format!("{experiment}-invariants"));
    let out = dir.join("results");
    let status = reproduce()
        .args(["--ops", "2000", "--only", experiment])
        .arg("--out")
        .arg(&out)
        .status()
        .expect("spawn reproduce");
    assert!(status.success());
    let delta = std::fs::read_to_string(out.join("delta.md")).expect("delta.md");
    assert_eq!(delta.matches("## Invariants").count(), 1, "{delta}");
    assert_eq!(delta.matches("| pass |").count(), invariants, "{delta}");
}

#[test]
fn availability_invariants_are_always_gated() {
    // Zero false kills, matching observations, single-shard quarantine,
    // no world-kill.
    assert_invariants_gated("availability", 4);
}

#[test]
fn recovery_invariants_are_always_gated() {
    // Zero false kills, no world-kill, no mismatches, no unaccounted
    // PageLost, detection within the poll bound, every step re-admitted,
    // recoveries completed == steps mounted.
    assert_invariants_gated("recovery", 7);
}

/// The robustness reports are a function of the tree and the flags: an
/// armed `TOLEO_FAULT_PLAN` in the environment must not leak into them.
#[test]
fn robustness_reports_ignore_the_environment() {
    let dir = scratch("env-independence");
    let run = |out: &Path, plan: Option<&str>| {
        let mut cmd = reproduce();
        cmd.env_remove("TOLEO_FAULT_PLAN");
        if let Some(plan) = plan {
            cmd.env("TOLEO_FAULT_PLAN", plan);
        }
        let status = cmd
            .args(["--ops", "2000", "--only", "availability,recovery"])
            .arg("--out")
            .arg(out)
            .status()
            .expect("spawn reproduce");
        assert!(status.success(), "plan {plan:?}");
    };
    let (unset, armed) = (dir.join("unset"), dir.join("armed"));
    run(&unset, None);
    run(&armed, Some("seed=7,rate=1e-3"));
    for name in ["availability.json", "recovery.json"] {
        let a = std::fs::read(unset.join(name)).expect("unset result");
        let b = std::fs::read(armed.join(name)).expect("armed result");
        assert_eq!(a, b, "{name} depends on TOLEO_FAULT_PLAN");
    }
}

#[test]
fn list_names_every_registered_experiment() {
    let output = reproduce().arg("--list").output().expect("spawn reproduce");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert_eq!(stdout.lines().count(), 17, "{stdout}");
    for name in [
        "table1",
        "table4",
        "fig6",
        "fig12",
        "sec62",
        "ablations",
        "calibrate",
        "sim-summary",
        "availability",
        "recovery",
    ] {
        assert!(stdout.contains(name), "--list lacks {name}:\n{stdout}");
    }
    assert!(!stdout.contains("throughput"), "{stdout}");
    assert!(!stdout.contains("[timing]"), "{stdout}");
}

#[test]
fn retired_throughput_experiment_points_at_the_benchmark() {
    // A stale `--only throughput` must not run the rest silently, and
    // must say where wall-clock numbers come from now.
    let output = reproduce()
        .args(["--only", "fig10,throughput"])
        .output()
        .expect("spawn reproduce");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("benchmark/"), "{stderr}");
}
