//! The `tnpu-lint` binary.
//!
//! ```text
//! tnpu-lint [--root DIR] [--deny-all] [--list-rules]
//!           [--format text|sarif] [--deny-unused-allows]
//! ```
//!
//! Walks the workspace (default: the current directory), prints one
//! `file:line: rule: message` diagnostic per violation to stdout (or a
//! SARIF 2.1.0 log with `--format sarif`), and a summary to stderr. Exit
//! codes: `0` clean (or advisory mode), `1` violations under `--deny-all`
//! (or stale allows under `--deny-unused-allows`), `2` usage or I/O
//! error, including a missing root or a walk that finds no `.rs` file.

use std::path::PathBuf;
use std::process::ExitCode;
use tnpu_lint::rules::RULES;
use tnpu_lint::{lint_root, sarif};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut deny_unused_allows = false;
    let mut list_rules = false;
    let mut format_sarif = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format_sarif = false,
                Some("sarif") => format_sarif = true,
                Some(other) => {
                    return usage_error(&format!("--format must be text or sarif, not `{other}`"))
                }
                None => return usage_error("--format needs text or sarif"),
            },
            "--deny-all" => deny_all = true,
            "--deny-unused-allows" => deny_unused_allows = true,
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!(
                    "tnpu-lint [--root DIR] [--deny-all] [--list-rules]\n\
                     \x20         [--format text|sarif] [--deny-unused-allows]\n\
                     Workspace linter for determinism, unit-safety, security, and\n\
                     robustness invariants. See LINTS.md for the rule catalogue."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    if list_rules {
        for rule in RULES {
            println!("{:<26} [{}] {}", rule.id, rule.family.label(), rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let report = match lint_root(&root) {
        Ok(r) => r,
        Err(e) => return tool_error(&format!("walking {}: {e}", root.display())),
    };

    let mut shown = report.diagnostics;
    if deny_unused_allows {
        shown.extend(report.unused_allows.iter().cloned());
        shown.sort();
    }

    if format_sarif {
        print!("{}", sarif::render(&shown, deny_all));
    } else {
        for d in &shown {
            println!("{d}");
        }
    }

    if shown.is_empty() {
        eprintln!("tnpu-lint: clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        let files: std::collections::BTreeSet<&str> =
            shown.iter().map(|d| d.path.as_str()).collect();
        eprintln!(
            "tnpu-lint: {} violation(s) in {} file(s)",
            shown.len(),
            files.len()
        );
        let stale_allows =
            deny_unused_allows && shown.iter().any(|d| d.rule == tnpu_lint::UNUSED_ALLOW_RULE);
        if deny_all || stale_allows {
            ExitCode::FAILURE
        } else {
            eprintln!("tnpu-lint: advisory mode (pass --deny-all to fail the build)");
            ExitCode::SUCCESS
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("tnpu-lint: {message} (try --help)");
    ExitCode::from(2)
}

fn tool_error(message: &str) -> ExitCode {
    eprintln!("tnpu-lint: {message}");
    ExitCode::from(2)
}
