//! The linter's acceptance gates: the real workspace lints clean (including
//! the parse-based rules and with no stale allow comments), the binary's
//! exit codes match its contract (`0` clean / advisory, `1` under
//! `--deny-all` with violations, `2` tool errors), and the root
//! `clippy.toml` still bans what the retired rules used to catch.

use std::path::{Path, PathBuf};
use std::process::Command;
use tnpu_lint::lexer::{lex, TokKind};
use tnpu_lint::rules::RULES;
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

#[test]
fn every_compiled_in_scope_path_exists() {
    // Scopes are literal path prefixes: one that names no path matches
    // nothing, so a typo would silently narrow an include or void an
    // exclude, and nothing else would report it.
    let root = workspace_root();
    for rule in RULES {
        for path in rule.include.iter().chain(rule.exclude) {
            assert!(
                root.join(path).exists(),
                "{}: scope path `{path}` does not exist",
                rule.id
            );
        }
    }
    for dir in ROOTS {
        assert!(root.join(dir).is_dir(), "root `{dir}` is not a directory");
    }
}

/// The `pub fn` names of the non-test `impl RawDram` blocks in `src`.
fn raw_dram_pub_fns(src: &str) -> Vec<String> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut names = Vec::new();
    let mut i = 0;
    while i + 2 < toks.len() {
        let header = toks[i].is_ident("impl")
            && toks[i + 1].is_ident("RawDram")
            && toks[i + 2].is_punct("{");
        if !header || lexed.in_test_region(toks[i].line) {
            i += 1;
            continue;
        }
        // Walk the impl body; its methods sit at brace depth 1.
        let mut depth = 0;
        i += 2;
        while let Some(t) = toks.get(i) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth == 1
                && t.is_ident("pub")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
            {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                    names.push(name.text.clone());
                }
            }
            i += 1;
        }
    }
    names
}

/// The text of the `key = [ .. ]` array in a TOML file: from the key to
/// the first line that is just `]`.
fn toml_array<'a>(toml: &'a str, key: &str) -> &'a str {
    let start = toml
        .find(&format!("\n{key} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{key}` array"));
    let rest = &toml[start..];
    &rest[..rest.find("\n]").expect("the array is closed")]
}

#[test]
fn clippy_toml_bans_every_raw_dram_method_and_hash_collection() {
    // The root clippy.toml replaced the `engine-bypass` and
    // `hash-collections` rules. A `RawDram` method it does not name could
    // be called from outside the functional memories unnoticed, so the
    // list must follow `functional/dram.rs`. (`RawDram` implements no
    // trait method clippy could not name by this path: it has no
    // `Default` impl.)
    let root = workspace_root();
    let dram = std::fs::read_to_string(root.join("crates/memprot/src/functional/dram.rs"))
        .expect("readable source");
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    // Clippy only warns about a listed path that names nothing, so the
    // list must match the methods exactly.
    let prefix = "\"tnpu_memprot::functional::dram::RawDram::";
    let mut listed: Vec<&str> = toml_array(&toml, "disallowed-methods")
        .split(prefix)
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("quoted path")])
        .collect();
    listed.sort_unstable();
    let mut pub_fns = raw_dram_pub_fns(&dram);
    pub_fns.sort();
    assert!(pub_fns.len() >= 5, "RawDram's methods: {pub_fns:?}");
    assert_eq!(
        listed, pub_fns,
        "clippy.toml's disallowed-methods must name exactly the `pub fn`s of RawDram"
    );
    let types = toml_array(&toml, "disallowed-types");
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            types.contains(&format!("\"{ty}\"")),
            "clippy.toml's disallowed-types must name {ty}"
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
    for expected in ["rng-seed-literal", "wallclock"] {
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
