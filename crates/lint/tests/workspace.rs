//! The linter's acceptance gates: the real workspace lints clean (including
//! the semantic rules and with no stale allow comments), and the binary's
//! exit codes match its contract (`0` clean / advisory, `1` under
//! `--deny-all` with violations, `2` tool errors).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use tnpu_lint::callgraph::API_TYPES;
use tnpu_lint::lexer::{lex, TokKind};
use tnpu_lint::rules::{RULES, SEM_RULES};
use tnpu_lint::{lint_root, ROOTS};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_root(&workspace_root()).expect("walk succeeds");
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must lint clean; violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_allows.is_empty(),
        "every allow comment must still suppress something; stale:\n{}",
        report
            .unused_allows
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Struct names declared in the non-test code under `dir` (test, bench,
/// example and fixture directories and `#[cfg(test)]` regions excluded).
fn declared_structs(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(
                name,
                "tests" | "benches" | "examples" | "fixtures" | "target"
            ) {
                declared_structs(&path, out);
            }
        } else if name.ends_with(".rs") {
            let lexed = lex(&std::fs::read_to_string(&path).expect("readable source"));
            for pair in lexed.tokens.windows(2) {
                if pair[0].is_ident("struct")
                    && pair[1].kind == TokKind::Ident
                    && !lexed.in_test_region(pair[0].line)
                {
                    out.insert(pair[1].text.clone());
                }
            }
        }
    }
}

#[test]
fn every_compiled_in_scope_path_exists() {
    // Scopes are literal path prefixes: one that names no path matches
    // nothing, so a typo would silently narrow an include or void an
    // exclude, and nothing else would report it.
    let root = workspace_root();
    let scopes = RULES
        .iter()
        .map(|r| (r.id, r.include, r.exclude))
        .chain(SEM_RULES.iter().map(|r| (r.id, r.include, r.exclude)));
    for (id, include, exclude) in scopes {
        for path in include.iter().chain(exclude) {
            assert!(
                root.join(path).exists(),
                "{id}: scope path `{path}` does not exist"
            );
        }
    }
    for dir in ROOTS {
        assert!(root.join(dir).is_dir(), "root `{dir}` is not a directory");
    }
}

#[test]
fn panic_path_roots_name_declared_structs() {
    // A root that names no type audits nothing, and nothing else would
    // report it.
    let root = workspace_root();
    let mut declared = BTreeSet::new();
    declared_structs(&root.join("crates"), &mut declared);
    declared_structs(&root.join("src"), &mut declared);
    for ty in API_TYPES {
        assert!(
            declared.contains(*ty),
            "panic-path root `{ty}` names no struct declared in non-test code"
        );
    }
}

#[test]
fn deny_all_exits_zero_on_the_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", workspace_root().to_str().expect("utf-8 path")])
        .args(["--deny-all", "--deny-unused-allows"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "expected clean workspace, stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn deny_all_exits_nonzero_on_the_bad_workspace() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .arg("--deny-all")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "--deny-all must fail the build");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for expected in ["hash-collections", "wallclock", "forbid-unsafe"] {
        assert!(
            stdout.contains(expected),
            "diagnostics must include {expected}, got:\n{stdout}"
        );
    }
    assert!(
        stdout.contains("crates/sim/src/lib.rs:"),
        "diagnostics are file:line-prefixed, got:\n{stdout}"
    );
}

#[test]
fn advisory_mode_reports_but_exits_zero() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "advisory mode never fails the build");
    assert!(
        !String::from_utf8_lossy(&out.stdout).is_empty(),
        "violations are still reported"
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULES {
        assert!(
            stdout.contains(rule.id),
            "--list-rules must mention {}",
            rule.id
        );
    }
    for rule in SEM_RULES {
        assert!(
            stdout.contains(rule.id),
            "--list-rules must mention semantic rule {}",
            rule.id
        );
    }
}

#[test]
fn unknown_arguments_are_a_usage_error() {
    for args in [
        &["--config", "lint.toml"][..],
        &["--bogus"],
        &["--format", "json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    }
}

#[test]
fn sarif_output_has_the_2_1_0_shape() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--format", "sarif", "--deny-all"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "--deny-all still governs exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"version\": \"2.1.0\"",
        "\"name\": \"tnpu-lint\"",
        "\"results\": [",
        "\"uriBaseId\": \"%SRCROOT%\"",
        "\"level\": \"error\"",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

/// Run the binary as the CI gate does, over `root`.
fn deny_all_over(root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", root.to_str().expect("utf-8 path")])
        .args(["--deny-all", "--deny-unused-allows"])
        .output()
        .expect("binary runs")
}

#[test]
fn missing_root_is_a_tool_error() {
    let missing = std::env::temp_dir().join(format!("tnpu-lint-missing-{}", std::process::id()));
    let out = deny_all_over(&missing);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a run over nothing must not pass"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not a directory"),
        "the error names the problem"
    );
}

#[test]
fn a_walk_that_finds_no_source_is_a_tool_error() {
    let empty = std::env::temp_dir().join(format!("tnpu-lint-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("writable temp dir");
    let out = deny_all_over(&empty);
    std::fs::remove_dir_all(&empty).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "a run over nothing must not pass"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no `.rs` file"),
        "the error names the problem"
    );
}
