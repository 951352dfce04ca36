//! Fixture-based self-tests: every rule must flag its known-bad snippet and
//! pass its known-good counterpart (which exercises the
//! `// tnpu-lint: allow(...)` escape hatch and `#[cfg(test)]` exemptions).

use std::fs;
use std::path::PathBuf;
use tnpu_lint::{lint_file, lint_sources, Diagnostic};

/// `(rule id, pretend workspace path the fixture is linted as)`.
///
/// The pretend path places each fixture inside the rule's default scope;
/// `unchecked-arith` is file-scoped, so its fixture borrows a real
/// accounting path.
const FIXTURES: &[(&str, &str)] = &[
    ("hash-collections", "crates/sim/src/fixture.rs"),
    ("wallclock", "crates/core/src/fixture.rs"),
    ("rng-seed-literal", "crates/npu/src/fixture.rs"),
    ("narrowing-cast", "crates/npu/src/fixture.rs"),
    ("unchecked-arith", "crates/sim/src/stats.rs"),
    ("float-accumulation", "crates/bench/src/fixture.rs"),
    ("dram-bypass", "crates/npu/src/fixture.rs"),
    ("version-table-scope", "crates/bench/src/fixture.rs"),
    ("forbid-unsafe", "crates/demo/src/lib.rs"),
];

/// `(rule id, pretend workspace path the fixture is linted as)` for the
/// semantic families. Each fixture is linted inside a three-file
/// mini-workspace: the raw-DRAM sink and a protection engine (the
/// `engine-bypass` support files) plus the fixture itself, so call chains
/// have a real sink and barrier to reach.
const SEM_FIXTURES: &[(&str, &str)] = &[
    ("engine-bypass", "crates/sim/src/fixture.rs"),
    ("panic-path", "crates/core/src/fixture.rs"),
    ("error-variant-consumption", "crates/core/src/fixture.rs"),
];

fn sem_lint(rule: &str, path: &str, src: &str) -> Vec<Diagnostic> {
    let dram = fixture("engine-bypass", "dram.rs");
    let engine = fixture("engine-bypass", "engine.rs");
    let sources = [
        ("crates/memprot/src/functional/dram.rs", dram.as_str()),
        ("crates/memprot/src/functional/mod.rs", engine.as_str()),
        (path, src),
    ];
    lint_sources(&sources)
        .into_iter()
        .filter(|d| d.rule == rule)
        .collect()
}

fn fixture(rule: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/rules")
        .join(rule)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_rule_has_fixture_coverage() {
    let covered: std::collections::BTreeSet<&str> = FIXTURES
        .iter()
        .chain(SEM_FIXTURES)
        .map(|(rule, _)| *rule)
        .collect();
    let all: std::collections::BTreeSet<&str> = tnpu_lint::rules::RULES
        .iter()
        .map(|r| r.id)
        .chain(tnpu_lint::rules::SEM_RULES.iter().map(|r| r.id))
        .collect();
    assert_eq!(covered, all, "each rule needs a bad/good fixture pair");
}

#[test]
fn bad_sem_fixtures_are_flagged() {
    for (rule, path) in SEM_FIXTURES {
        let src = fixture(rule, "bad.rs");
        let hits = sem_lint(rule, path, &src);
        assert!(
            !hits.is_empty(),
            "{rule}: bad.rs (as {path}) must produce at least one {rule} diagnostic"
        );
    }
}

#[test]
fn good_sem_fixtures_pass() {
    for (rule, path) in SEM_FIXTURES {
        let src = fixture(rule, "good.rs");
        let hits = sem_lint(rule, path, &src);
        assert!(
            hits.is_empty(),
            "{rule}: good.rs (as {path}) must be clean, got: {hits:?}"
        );
    }
}

#[test]
fn bypass_fixture_defeats_the_lexical_rule_but_not_the_semantic_one() {
    // The acceptance case: the entry function launders the access through
    // two helpers, so no `RawDram` token appears in it — the lexical rule
    // can only point at the token lines, while the reachability rule
    // reports the crossing at the entry's call site with a witness chain.
    let src = fixture("engine-bypass", "bad.rs");
    let hits = sem_lint("engine-bypass", "crates/sim/src/fixture.rs", &src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].message.contains("helper_two") && hits[0].message.contains("RawDram"),
        "witness chain names the laundering helpers: {}",
        hits[0].message
    );
}

#[test]
fn dram_bypass_catches_what_engine_bypass_does_not() {
    // The overlap audit behind keeping both rules: a function handed a
    // `&mut RawDram` that flips a bit through `block_mut` calls no function
    // that reaches the sink, so the reachability rule is silent, while the
    // lexical rule flags both `RawDram` mentions.
    let src = fixture("dram-bypass", "bad.rs");
    let dram = sem_lint("dram-bypass", "crates/npu/src/fixture.rs", &src);
    let engine = sem_lint("engine-bypass", "crates/npu/src/fixture.rs", &src);
    assert_eq!(dram.len(), 2, "{dram:?}");
    assert!(engine.is_empty(), "{engine:?}");
}

#[test]
fn bad_fixtures_are_flagged() {
    for (rule, path) in FIXTURES {
        let src = fixture(rule, "bad.rs");
        let hits: Vec<_> = lint_file(path, &src)
            .into_iter()
            .filter(|d| d.rule == *rule)
            .collect();
        assert!(
            !hits.is_empty(),
            "{rule}: bad.rs (as {path}) must produce at least one {rule} diagnostic"
        );
    }
}

#[test]
fn good_fixtures_pass() {
    for (rule, path) in FIXTURES {
        let src = fixture(rule, "good.rs");
        let hits: Vec<_> = lint_file(path, &src)
            .into_iter()
            .filter(|d| d.rule == *rule)
            .collect();
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
    let src = fixture("hash-collections", "bad.rs");
    assert!(
        lint_file("tools/src/fixture.rs", &src).is_empty(),
        "hash-collections is scoped to result-feeding crates"
    );
    let src = fixture("wallclock", "bad.rs");
    assert!(
        lint_file("crates/bench/src/fixture.rs", &src)
            .iter()
            .all(|d| d.rule != "wallclock"),
        "wallclock is scoped to simulation crates; bench times jobs legally"
    );
}
