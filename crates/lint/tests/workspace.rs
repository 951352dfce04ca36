//! The linter's acceptance gates: the real workspace lints clean (including
//! the semantic rules and with no stale allow comments), and the binary's
//! exit codes match its contract (`0` clean / advisory, `1` under
//! `--deny-all` with violations, `2` tool errors).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use tnpu_lint::callgraph::API_TYPES;
use tnpu_lint::config::Config;
use tnpu_lint::lexer::{lex, TokKind};
use tnpu_lint::{lint_root, validate_config, DriverOptions};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Mirror the binary's config loading: `lint.toml` at the root if present,
/// compiled-in defaults otherwise.
fn workspace_config(root: &Path) -> Config {
    let path = root.join("lint.toml");
    if path.is_file() {
        let src = std::fs::read_to_string(&path).expect("readable lint.toml");
        Config::parse(&src).expect("valid lint.toml")
    } else {
        Config::default()
    }
}

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root();
    let config = workspace_config(&root);
    validate_config(&config).expect("config names only known rules and sane patterns");
    let report = lint_root(&root, &config, &DriverOptions::default()).expect("walk succeeds");
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
        .args(["--deny-all", "--deny-unused-allows", "--no-cache"])
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
        .args(["--deny-all", "--no-cache"])
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
        .arg("--no-cache")
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
    for rule in tnpu_lint::rules::RULES {
        assert!(
            stdout.contains(rule.id),
            "--list-rules must mention {}",
            rule.id
        );
    }
    for rule in tnpu_lint::rules::SEM_RULES {
        assert!(
            stdout.contains(rule.id),
            "--list-rules must mention semantic rule {}",
            rule.id
        );
    }
}

#[test]
fn unknown_rule_in_config_is_a_tool_error() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let config = bad_root.join("bad-config.toml");
    std::fs::write(&config, "[rules.not-a-rule]\nenabled = false\n").expect("writable");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--config", config.to_str().expect("utf-8 path")])
        .arg("--no-cache")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&config).ok();
    assert_eq!(out.status.code(), Some(2), "config errors exit 2");
}

#[test]
fn malformed_scope_pattern_in_config_is_a_tool_error() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let config = bad_root.join("bad-pattern-config.toml");
    std::fs::write(
        &config,
        "[rules.wallclock]\ninclude = [\"crates/sim/**\"]\n",
    )
    .expect("writable");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--config", config.to_str().expect("utf-8 path")])
        .arg("--no-cache")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&config).ok();
    assert_eq!(out.status.code(), Some(2), "glob patterns exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("glob"),
        "the error explains the problem"
    );
}

#[test]
fn sarif_output_has_the_2_1_0_shape() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let out = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--format", "sarif", "--deny-all", "--no-cache"])
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

#[test]
fn baseline_ratchets_known_findings_away() {
    let bad_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws-bad");
    let baseline = std::env::temp_dir().join(format!("tnpu-lint-baseline-{}", std::process::id()));
    let write = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--write-baseline", baseline.to_str().expect("utf-8 path")])
        .arg("--no-cache")
        .output()
        .expect("binary runs");
    assert!(write.status.success(), "--write-baseline exits 0");
    let replay = Command::new(env!("CARGO_BIN_EXE_tnpu-lint"))
        .args(["--root", bad_root.to_str().expect("utf-8 path")])
        .args(["--baseline", baseline.to_str().expect("utf-8 path")])
        .args(["--deny-all", "--no-cache"])
        .output()
        .expect("binary runs");
    std::fs::remove_file(&baseline).ok();
    assert!(
        replay.status.success(),
        "all findings baselined, so --deny-all passes; stdout:\n{}",
        String::from_utf8_lossy(&replay.stdout)
    );
    assert!(
        String::from_utf8_lossy(&replay.stdout).is_empty(),
        "baselined findings are not printed"
    );
}

#[test]
fn warm_cached_run_is_byte_identical_to_cold() {
    // Run against the real workspace with a private cache dir: cold, then
    // warm; stdout must match byte for byte and the warm run must reuse
    // every record.
    let root = workspace_root();
    let cache_root =
        std::env::temp_dir().join(format!("tnpu-lint-warm-test-{}", std::process::id()));
    // The binary derives the cache dir from --root, so instead drive the
    // library here with an explicit cache dir.
    let config = workspace_config(&root);
    let opts = DriverOptions {
        threads: 0,
        cache_dir: Some(cache_root.clone()),
    };
    let cold = lint_root(&root, &config, &opts).expect("cold run");
    assert_eq!(cold.stats.cached, 0, "private cache dir starts empty");
    let warm = lint_root(&root, &config, &opts).expect("warm run");
    assert_eq!(warm.stats.cached, warm.stats.files, "warm run is all hits");
    assert_eq!(cold.diagnostics, warm.diagnostics);
    assert_eq!(cold.unused_allows, warm.unused_allows);
    std::fs::remove_dir_all(&cache_root).ok();
}
