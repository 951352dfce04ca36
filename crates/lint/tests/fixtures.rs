//! Fixture-based self-tests: every rule must flag its known-bad snippet and
//! pass its known-good counterpart (which exercises the
//! `// tnpu-lint: allow(...)` escape hatch and `#[cfg(test)]` exemptions).

use std::fs;
use std::path::PathBuf;
use tnpu_lint::{lint_file, Diagnostic};

/// `(rule id, pretend workspace path the fixture is linted as)`.
///
/// The pretend path places each fixture inside the rule's default scope;
/// `unchecked-arith` is file-scoped, so its fixture borrows a real
/// accounting path.
const FIXTURES: &[(&str, &str)] = &[
    ("wallclock", "crates/core/src/fixture.rs"),
    ("rng-seed-literal", "crates/npu/src/fixture.rs"),
    ("unchecked-arith", "crates/sim/src/stats.rs"),
    ("version-table-scope", "crates/bench/src/fixture.rs"),
];

/// `(rule id, pretend workspace path the fixture is linted as)` for the
/// parse-based rules. Each fixture is a one-file workspace:
/// `error-variant-consumption` finds both its constructions and its
/// matches in the same file.
const SEM_FIXTURES: &[(&str, &str)] = &[
    ("panic-path", "crates/core/src/fixture.rs"),
    ("error-variant-consumption", "crates/core/src/fixture.rs"),
];

fn fixture(rule: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/rules")
        .join(rule)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `rule` diagnostics of fixture `name` linted as `path`.
fn hits(rule: &str, path: &str, name: &str) -> Vec<Diagnostic> {
    lint_file(path, &fixture(rule, name))
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

#[test]
fn every_rule_has_fixture_coverage() {
    let covered: std::collections::BTreeSet<&str> = FIXTURES
        .iter()
        .chain(SEM_FIXTURES)
        .map(|(rule, _)| *rule)
        .collect();
    let all: std::collections::BTreeSet<&str> =
        tnpu_lint::rules::RULES.iter().map(|r| r.id).collect();
    assert_eq!(covered, all, "each rule needs a bad/good fixture pair");
}

#[test]
fn bad_sem_fixtures_are_flagged() {
    for (rule, path) in SEM_FIXTURES {
        assert!(
            !hits(rule, path, "bad.rs").is_empty(),
            "{rule}: bad.rs (as {path}) must produce at least one {rule} diagnostic"
        );
    }
}

#[test]
fn good_sem_fixtures_pass() {
    for (rule, path) in SEM_FIXTURES {
        let hits = hits(rule, path, "good.rs");
        assert!(
            hits.is_empty(),
            "{rule}: good.rs (as {path}) must be clean, got: {hits:?}"
        );
    }
}

#[test]
fn bad_fixtures_are_flagged() {
    for (rule, path) in FIXTURES {
        assert!(
            !hits(rule, path, "bad.rs").is_empty(),
            "{rule}: bad.rs (as {path}) must produce at least one {rule} diagnostic"
        );
    }
}

#[test]
fn good_fixtures_pass() {
    for (rule, path) in FIXTURES {
        let hits = hits(rule, path, "good.rs");
        assert!(
            hits.is_empty(),
            "{rule}: good.rs (as {path}) must be clean, got: {hits:?}"
        );
    }
}

#[test]
fn bad_fixtures_escape_when_out_of_scope() {
    // The same bad snippets are fine where the rule does not apply: scope
    // is part of each rule's contract, not an accident of the walker.
    let src = fixture("rng-seed-literal", "bad.rs");
    assert!(
        lint_file("tools/src/fixture.rs", &src).is_empty(),
        "rng-seed-literal is scoped to result-feeding crates"
    );
    let src = fixture("wallclock", "bad.rs");
    assert!(
        lint_file("crates/bench/src/fixture.rs", &src)
            .iter()
            .all(|d| d.rule != "wallclock"),
        "wallclock is scoped to simulation crates; bench times jobs legally"
    );
}
