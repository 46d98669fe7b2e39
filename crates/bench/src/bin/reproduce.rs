//! One-command artifact reproduction: run every registered experiment,
//! write the `results/` tree, and gate the run against the committed
//! references.
//!
//! ```sh
//! cargo run --release -p toleo-bench --bin reproduce
//! ```
//!
//! produces `results/<name>.{json,md}` for all 17 experiments plus
//! `summary.md` and `delta.md`, compares every experiment against its
//! `expected/<name>.json` reference (exact at matching scale, structural
//! otherwise), and checks the availability and recovery correctness
//! invariants whenever those experiments run. Any drift, missing
//! reference or failed invariant exits nonzero. The output is a function
//! of the tree and the flags alone — no clock, no environment variable:
//! a speed claim is judged by `benchmark/`'s paired parent/change
//! compare.
//!
//! Flags:
//!
//! - `--only a,b,c`   run a subset of experiments
//! - `--ops N`        scale override (modeled traces AND engine replay)
//! - `--out DIR`      results tree root (default `results`)
//! - `--expected DIR` reference tree root (default `expected`)
//! - `--update-expected`  rewrite the references from this run
//! - `--render`       re-splice the `figures` block of EXPERIMENTS.md
//! - `--list`         print the registry and exit

// audit: allow-file(panic, reproduce harness: a reproduction run must abort loudly on bad arguments or unwritable output, never emit a partial results tree silently)

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use toleo_bench::experiments::{self, Experiment, RunCtx};
use toleo_bench::report::Report;
use toleo_bench::repro::{self, check_invariants, compare_reports, DeltaOutcome, DeltaStatus};

struct Args {
    out: PathBuf,
    expected: PathBuf,
    only: Option<Vec<String>>,
    ops: Option<u64>,
    update_expected: bool,
    render: bool,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--only a,b,c] [--ops N] [--out DIR] [--expected DIR] \
         [--update-expected] [--render] [--list]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("results"),
        expected: PathBuf::from("expected"),
        only: None,
        ops: None,
        update_expected: false,
        render: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")),
            "--expected" => args.expected = PathBuf::from(value("--expected")),
            "--only" => {
                args.only = Some(
                    value("--only")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--ops" => {
                args.ops = Some(
                    value("--ops")
                        .parse()
                        .unwrap_or_else(|e| panic!("--ops: {e}")),
                )
            }
            "--update-expected" => args.update_expected = true,
            "--render" => args.render = true,
            "--list" => args.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

fn select(only: &Option<Vec<String>>) -> Vec<&'static Experiment> {
    let registry = experiments::registry();
    match only {
        None => registry.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                experiments::find(n).unwrap_or_else(|| {
                    if n == "throughput" {
                        eprintln!(
                            "reproduce: the `throughput` experiment is retired; wall-clock \
                             numbers come from `benchmark/` (README, \"Where a wall-clock \
                             number comes from\")"
                        );
                        std::process::exit(2);
                    }
                    let known: Vec<_> = registry.iter().map(|e| e.name).collect();
                    panic!("unknown experiment {n:?}; known: {known:?}")
                })
            })
            .collect(),
    }
}

fn write(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("mkdir {}: {e}", parent.display()));
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn load_expected(dir: &Path, name: &str) -> Option<Result<Report, String>> {
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).ok()?;
    Some(
        toleo_json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|doc| Report::from_json(&doc).map_err(|e| format!("{name}: {e}"))),
    )
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        for e in experiments::registry() {
            println!("{:<12} {:<28} {}", e.name, e.paper_ref, e.about);
        }
        return ExitCode::SUCCESS;
    }

    let ctx = match args.ops {
        Some(ops) => RunCtx::with_ops(ops as usize, ops),
        None => RunCtx::default(),
    };
    let selected = select(&args.only);
    let mut failures: Vec<String> = Vec::new();
    let mut deltas: Vec<DeltaOutcome> = Vec::new();
    let mut invariant_lines: Vec<String> = Vec::new();

    // 1. Run everything, write the per-experiment results, diff vs the
    //    committed references, check the experiment's invariants.
    for exp in &selected {
        eprintln!("reproduce: running {} ({})", exp.name, exp.paper_ref);
        let report = (exp.run)(&ctx);
        let json = report.to_json();
        write(&args.out.join(format!("{}.json", exp.name)), &json);
        write(
            &args.out.join(format!("{}.md", exp.name)),
            &report.render_markdown(),
        );
        if args.update_expected {
            write(&args.expected.join(format!("{}.json", exp.name)), &json);
        }
        let delta = match load_expected(&args.expected, exp.name) {
            None => DeltaOutcome {
                name: exp.name.to_string(),
                status: DeltaStatus::MissingExpected,
                details: vec![format!(
                    "no {}/{}.json — generate with --update-expected",
                    args.expected.display(),
                    exp.name
                )],
            },
            Some(Err(e)) => DeltaOutcome {
                name: exp.name.to_string(),
                status: DeltaStatus::Drift,
                details: vec![format!("reference unreadable: {e}")],
            },
            Some(Ok(expected)) => compare_reports(&expected, &report),
        };
        if delta.status.is_failure() {
            failures.push(format!("{}: {}", delta.name, delta.status.label()));
        }
        deltas.push(delta);
        match check_invariants(&report) {
            Ok(rows) => {
                for r in &rows {
                    invariant_lines.push(format!(
                        "| {} | `{}` | {} | {} | {} |",
                        exp.name,
                        r.name,
                        r.required,
                        r.actual,
                        if r.pass { "pass" } else { "**FAIL**" }
                    ));
                    if !r.pass {
                        failures.push(format!(
                            "{} invariant {} = {} (required {})",
                            exp.name, r.name, r.actual, r.required
                        ));
                    }
                }
            }
            Err(e) => failures.push(format!("invariants unreadable: {e}")),
        }
    }

    // 2. Summary and delta report.
    let mut summary = String::from("# Reproduction summary\n\n");
    summary.push_str(&format!(
        "- experiments run: {} of {}\n- scale: mem_ops={}, perf_ops={}\n\n",
        selected.len(),
        experiments::registry().len(),
        ctx.gen.mem_ops,
        ctx.perf_ops
    ));
    summary.push_str("| experiment | paper ref | status |\n|---|---|---|\n");
    for (exp, delta) in selected.iter().zip(&deltas) {
        summary.push_str(&format!(
            "| [`{}`]({}.md) | {} | {} |\n",
            exp.name,
            exp.name,
            exp.paper_ref,
            delta.status.label()
        ));
    }
    write(&args.out.join("summary.md"), &summary);

    let mut delta_md = String::from("# Delta report\n\n");
    delta_md.push_str(
        "Every experiment against its `expected/` reference; the availability \
         and recovery correctness invariants below.\n\n",
    );
    for d in &deltas {
        delta_md.push_str(&format!("## {} — {}\n\n", d.name, d.status.label()));
        for line in &d.details {
            delta_md.push_str(&format!("- {line}\n"));
        }
        if !d.details.is_empty() {
            delta_md.push('\n');
        }
    }
    if !invariant_lines.is_empty() {
        delta_md.push_str(
            "## Invariants\n\n| experiment | invariant | required | actual | verdict |\n\
             |---|---|---|---|---|\n",
        );
        for l in &invariant_lines {
            delta_md.push_str(l);
            delta_md.push('\n');
        }
        delta_md.push('\n');
    }
    write(&args.out.join("delta.md"), &delta_md);

    // 3. --render: re-splice the generated `figures` block of
    //    EXPERIMENTS.md from the committed references.
    if args.render {
        let doc_path = Path::new("EXPERIMENTS.md");
        let doc = std::fs::read_to_string(doc_path)
            .unwrap_or_else(|e| panic!("{}: {e}", doc_path.display()));
        let figures = repro::render_headline(&args.expected)
            .unwrap_or_else(|e| panic!("rendering headline figures: {e}"));
        let doc = repro::splice_generated(&doc, "figures", &figures)
            .unwrap_or_else(|e| panic!("splicing EXPERIMENTS.md: {e}"));
        write(doc_path, &doc);
        eprintln!("reproduce: EXPERIMENTS.md regenerated");
    }

    // 4. Verdict.
    if failures.is_empty() {
        println!(
            "reproduce: OK — {} experiments, results in {}/",
            selected.len(),
            args.out.display()
        );
        ExitCode::SUCCESS
    } else {
        println!("reproduce: FAILED ({} problems)", failures.len());
        for f in &failures {
            println!("  - {f}");
        }
        println!("see {}/delta.md", args.out.display());
        ExitCode::FAILURE
    }
}
