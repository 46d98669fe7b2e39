//! `toleo-audit` CLI.
//!
//! ```text
//! toleo-audit [--check] [--fix-inventory] [--root PATH]
//! ```
//!
//! * default / `--check` — run every rule, print findings and the
//!   allowance inventory, exit 1 on any finding (CI mode).
//! * `--fix-inventory` — rewrite only the `unsafe` and `allow` members
//!   of `AUDIT.json` from the tree (every other byte printed back as
//!   read), then re-run the audit so remaining findings are still
//!   visible.
//! * `--root PATH` — workspace root (default: current directory).

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    fix_inventory: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        fix_inventory: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {} // the default behavior, kept as an explicit CI flag
            "--fix-inventory" => opts.fix_inventory = true,
            "--root" => {
                opts.root = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--root needs a path".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "toleo-audit [--check] [--fix-inventory] [--root PATH]\n\
                     Enforces the workspace security/concurrency invariants: no-panic \
                     policy, unsafe inventory, atomic-protocol table, lock discipline, \
                     kill-poll probe coverage, secret hygiene.\n\
                     See README.md \"Static analysis\" for rules and annotation syntax."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("toleo-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.fix_inventory {
        if let Err(e) = toleo_audit::fix_inventory(&opts.root) {
            eprintln!("toleo-audit: {e}");
            return ExitCode::from(2);
        }
        println!("AUDIT.json inventories regenerated (protocol tables untouched, schema v2).");
    }
    let report = match toleo_audit::run_audit(&opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("toleo-audit: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        if f.line == 0 {
            println!("{}: [{}] {}", f.file, f.rule, f.message);
        } else {
            println!(
                "{}:{}:{}: [{}] {}",
                f.file, f.line, f.col, f.rule, f.message
            );
        }
    }
    if !report.findings.is_empty() {
        println!();
    }
    println!(
        "toleo-audit: {} files scanned, {} finding{}.",
        report.files_scanned,
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
    );
    if !report.allowances.is_empty() {
        println!(
            "allowance inventory ({} entr{} — this list only shrinks):",
            report.allowances.len(),
            if report.allowances.len() == 1 {
                "y"
            } else {
                "ies"
            },
        );
        for a in &report.allowances {
            println!(
                "  {}:{} {}({}) — {}",
                a.file,
                a.line,
                if a.file_level { "allow-file" } else { "allow" },
                a.rule,
                a.reason
            );
        }
    }
    if !report.unsafe_inventory.is_empty() {
        println!("unsafe inventory:");
        for (file, count) in &report.unsafe_inventory {
            println!("  {file}: {count}");
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
