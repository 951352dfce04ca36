//! The domain rules and their checks.
//!
//! Four families, mirroring the invariants the workspace depends on:
//!
//! * **determinism** — the PR 2 guarantee that a sweep is byte-identical at
//!   any thread count holds only if nothing clock-dependent or
//!   environment-dependent reaches a result;
//! * **unit-safety** — cycle and byte accounting must not silently wrap;
//! * **security** — version state owned by the version manager. The rest
//!   of the paper's threat model is the compiler's: the raw DRAM store is
//!   private to `tnpu-memprot`, and the root `clippy.toml` bans every
//!   `RawDram` method outside the functional memories;
//! * **robustness** — panics and error variants in the session core.
//!
//! Rules that clippy states with type information live in `clippy.toml`
//! and the crate roots instead (`LINTS.md` maps each retired rule to its
//! replacement). What is left here needs a path scope or workspace-wide
//! evidence that clippy has no setting for.
//!
//! Four rules are token-pattern scans over one [`LexedFile`]; the
//! parse-based two read the item-level
//! [`ParsedFile`](crate::parser::ParsedFile)s instead. Each rule's path
//! scope is compiled in [`RULES`] (`tests/workspace.rs` checks that every scope
//! path exists), and `// tnpu-lint: allow(rule-id)` on (or directly above)
//! a line waives that line with an in-code justification.

use crate::lexer::{LexedFile, TokKind};
use crate::parser::PathRef;
use crate::AnalyzedFile;
use std::collections::BTreeSet;

/// One diagnostic produced by a rule, before path/allow filtering.
#[derive(Debug)]
pub struct Finding {
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable message (what, why, and how to fix or allow).
    pub message: String,
}

/// Rule family, for `--list-rules` and docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Byte-identical-sweep hazards.
    Determinism,
    /// Overflow hazards in accounting.
    UnitSafety,
    /// Threat-model invariants.
    Security,
    /// Panic/error-handling hazards in the session core.
    Robustness,
}

impl Family {
    /// Lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Family::Determinism => "determinism",
            Family::UnitSafety => "unit-safety",
            Family::Security => "security",
            Family::Robustness => "robustness",
        }
    }
}

/// How a rule finds its raw findings.
#[derive(Clone, Copy)]
pub enum Check {
    /// A token-pattern scan of one lexed file.
    Tokens(fn(&LexedFile) -> Vec<Finding>),
    /// Run by [`parsed_findings`] over every parsed file.
    Parsed,
}

/// A lint rule: scope defaults plus its check. Every rule skips
/// `#[cfg(test)]` regions and `tests/`, `benches/`, `examples/` and
/// `fixtures/` directories. The scope controls where *findings* are
/// reported; `error-variant-consumption` gathers its evidence
/// (constructions and matches) from the whole workspace.
pub struct Rule {
    /// Kebab-case id used in diagnostics and allow comments.
    pub id: &'static str,
    /// Rule family.
    pub family: Family,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Workspace-relative path prefixes (or exact files) the rule applies
    /// to. Empty = everywhere.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
    /// The check itself; its raw findings are filtered by path scope and
    /// allow comments afterwards.
    pub check: Check,
}

/// Crates whose computation feeds printed results: the `rng-seed-literal`
/// scope.
const RESULT_CRATES: &[&str] = &[
    "crates/sim",
    "crates/memprot",
    "crates/npu",
    "crates/core",
    "crates/tee",
    "crates/bench",
    "crates/models",
    "crates/crypto",
    "crates/lint",
];

/// Crates simulating hardware: wall clocks and host environment must not
/// influence anything here.
const SIMULATION_CRATES: &[&str] = &["crates/sim", "crates/memprot", "crates/npu", "crates/core"];

/// The modules where bare `+`/`*` are banned in favour of named
/// saturating or checked operations: the three cycle/byte accounting
/// files, and four more where silent wrap-around is a correctness bug.
/// `DmaPattern::bytes` once wrapped silently on oversized descriptors, so
/// the DMA descriptor math is guarded, and so is the metadata-span
/// grouping the run-batched engine paths charge costs through
/// (`memprot/span.rs`). The fault injector's period/seed arithmetic
/// (`memprot/faults.rs`) and the recovery layer's cycle accounting
/// (`core/recovery.rs`) feed deterministic matrices.
const ACCOUNTING_FILES: &[&str] = &[
    "crates/sim/src/cycles.rs",
    "crates/sim/src/stats.rs",
    "crates/npu/src/report.rs",
    "crates/npu/src/dma.rs",
    "crates/memprot/src/span.rs",
    "crates/memprot/src/faults.rs",
    "crates/core/src/recovery.rs",
];

/// All rules, in the order `--list-rules` lists them.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wallclock",
        family: Family::Determinism,
        summary: "Instant/SystemTime/std::env inside simulation paths",
        include: SIMULATION_CRATES,
        exclude: &[],
        check: Check::Tokens(check_wallclock),
    },
    Rule {
        id: "rng-seed-literal",
        family: Family::Determinism,
        summary: "RNG constructed from a hard-coded literal seed instead of the RunSpec derivation",
        include: RESULT_CRATES,
        exclude: &["crates/sim/src/rng.rs"],
        check: Check::Tokens(check_rng_seed_literal),
    },
    Rule {
        id: "unchecked-arith",
        family: Family::UnitSafety,
        summary: "bare +/* in accounting modules (overflow wraps in release builds)",
        include: ACCOUNTING_FILES,
        exclude: &[],
        check: Check::Tokens(check_unchecked_arith),
    },
    Rule {
        id: "version-table-scope",
        family: Family::Security,
        summary: "VersionTable handled outside the version-manager crate",
        include: &[],
        exclude: &["crates/core"],
        check: Check::Tokens(check_version_table_scope),
    },
    Rule {
        id: "panic-path",
        family: Family::Robustness,
        summary: "unwrap/expect/panic!/indexing in the non-test session core",
        include: &["crates/core", "crates/tee"],
        // The attack harness and the serving driver are experiment code,
        // not the security core: their panics are the assertion mechanism
        // (an attack cell that reaches an impossible state must abort the
        // experiment loudly, and the serving simulator's scheduler
        // invariants are checked the same way).
        exclude: &["crates/core/src/attacks.rs", "crates/core/src/serving.rs"],
        check: Check::Parsed,
    },
    Rule {
        id: "error-variant-consumption",
        family: Family::Robustness,
        summary: "error-enum variant not both constructed and matched/handled \
                  in non-test code",
        include: &[],
        exclude: &[],
        check: Check::Parsed,
    },
];

/// The error enums `error-variant-consumption` audits: the typed-error
/// surfaces recovery and serving dispatch on. A variant of these that is
/// constructed but never matched is dead recovery logic (the PR 6
/// `Exhausted` bug class); one matched but never constructed is a stale
/// handler.
pub const AUDITED_ERROR_ENUMS: &[&str] =
    &["VersionError", "IntegrityError", "SessionError", "RunError"];

/// Look up a rule by id.
#[must_use]
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn check_wallclock(lexed: &LexedFile) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(Finding {
                line: t.line,
                message: format!(
                    "{} reads the wall clock inside a simulation path; simulated time \
                     must come from the cycle model, and timing reports must stay on stderr",
                    t.text
                ),
            });
        } else if t.is_ident("env")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct("::") || n.is_punct("!"))
        {
            out.push(Finding {
                line: t.line,
                message: "host environment read inside a simulation path; thread count and \
                          host state must never influence simulated behaviour"
                    .to_owned(),
            });
        }
    }
    out
}

fn check_rng_seed_literal(lexed: &LexedFile) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(4) {
        if toks[i].is_ident("SplitMix64")
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("new")
            && toks[i + 3].is_punct("(")
            && toks[i + 4].kind == TokKind::Int
        {
            out.push(Finding {
                line: toks[i].line,
                message: "RNG seeded from a hard-coded literal; derive the seed from what is \
                          simulated via RunSpec::seed / SplitMix64::seed_from_labels so reruns \
                          and thread counts cannot shift the stream"
                    .to_owned(),
            });
        }
    }
    out
}

fn check_unchecked_arith(lexed: &LexedFile) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let compound = t.is_punct("+=") || t.is_punct("*=");
        // A bare `+`/`*` is binary (not deref/reference/unary) when it
        // follows a value-producing token.
        let binary = (t.is_punct("+") || t.is_punct("*"))
            && i > 0
            && (matches!(
                toks[i - 1].kind,
                TokKind::Ident | TokKind::Int | TokKind::Float
            ) || toks[i - 1].is_punct(")")
                || toks[i - 1].is_punct("]"));
        if compound || binary {
            out.push(Finding {
                line: t.line,
                message: format!(
                    "bare `{}` in an accounting module wraps on overflow in release builds; \
                     use saturating_add/saturating_mul (or checked_* when the caller can react)",
                    t.text
                ),
            });
        }
    }
    out
}

fn check_version_table_scope(lexed: &LexedFile) -> Vec<Finding> {
    lexed
        .tokens
        .iter()
        .filter(|t| t.is_ident("VersionTable"))
        .map(|t| Finding {
            line: t.line,
            message: "VersionTable state is owned by the version manager in crates/core; \
                      mutating (or constructing) one elsewhere can fork version history and \
                      reopen the replay window the table exists to close"
                .to_owned(),
        })
        .collect()
}

/// One parse-based finding, before scope/allow filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemFinding {
    /// Index into the linted files.
    pub file: usize,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Message.
    pub message: String,
}

/// Run the parse-based rules over every file.
#[must_use]
pub fn parsed_findings(files: &[AnalyzedFile]) -> Vec<SemFinding> {
    let mut out = panic_path(files);
    out.extend(variant_consumption(files));
    out
}

/// `panic-path`: every panic-capable site, wherever it sits; the rule's
/// scope and the allow comments decide which ones are reported.
fn panic_path(files: &[AnalyzedFile]) -> Vec<SemFinding> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for p in &file.parsed.panics {
            out.push(SemFinding {
                file: fi,
                line: p.line,
                rule: "panic-path",
                message: format!(
                    "{} in the session core can abort a caller on malformed input; return \
                     a typed error instead, or justify the invariant with an allow comment",
                    p.kind.label()
                ),
            });
        }
    }
    out
}

/// `error-variant-consumption`: every audited variant must be constructed
/// and matched in non-test code.
fn variant_consumption(files: &[AnalyzedFile]) -> Vec<SemFinding> {
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut consumed: BTreeSet<(String, String)> = BTreeSet::new();
    for file in files {
        let evidence = |r: &PathRef| {
            if crate::in_test_dir(&file.path) || file.side.in_test_region(r.line) {
                None
            } else {
                file.parsed.resolve_variant_ref(r)
            }
        };
        constructed.extend(file.parsed.expr_refs.iter().filter_map(evidence));
        for r in &file.parsed.pattern_refs {
            // An enum's own impl blocks (Display, From) match every variant
            // by construction; handling means a consumer outside the enum.
            match evidence(r) {
                Some(key) if r.container.as_deref() != Some(key.0.as_str()) => {
                    consumed.insert(key);
                }
                _ => {}
            }
        }
    }

    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if crate::in_test_dir(&file.path) {
            continue;
        }
        for def in &file.parsed.enums {
            if !AUDITED_ERROR_ENUMS.contains(&def.name.as_str()) {
                continue;
            }
            for (variant, line) in &def.variants {
                let key = (def.name.clone(), variant.clone());
                let message = if !constructed.contains(&key) {
                    format!(
                        "variant `{}::{variant}` is never constructed in non-test code; \
                         remove it or wire it into the error path",
                        def.name
                    )
                } else if !consumed.contains(&key) {
                    format!(
                        "variant `{}::{variant}` is constructed but never matched/handled \
                         in non-test code outside its own impls; add a consumer (match arm, \
                         `if let`, or `matches!`) or remove the construction",
                        def.name
                    )
                } else {
                    continue;
                };
                out.push(SemFinding {
                    file: fi,
                    line: *line,
                    rule: "error-variant-consumption",
                    message,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: &str, src: &str) -> Vec<Finding> {
        match rule_by_id(rule).expect("known rule").check {
            Check::Tokens(check) => check(&lex(src)),
            Check::Parsed => panic!("{rule} reads parsed files"),
        }
    }

    /// Parse-based findings of `rule` over in-memory `(path, source)` files.
    fn findings_for(rule: &str, sources: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let files: Vec<_> = sources
            .iter()
            .map(|(path, src)| crate::analyze_source(path, src))
            .collect();
        parsed_findings(&files)
            .into_iter()
            .filter(|f| f.rule == rule)
            .map(|f| (sources[f.file].0.to_owned(), f.line, f.message))
            .collect()
    }

    #[test]
    fn wallclock_hits_clocks_and_env() {
        assert_eq!(run("wallclock", "let t = Instant::now();").len(), 1);
        assert_eq!(run("wallclock", "std::env::var(\"X\")").len(), 1);
        assert_eq!(run("wallclock", "env!(\"PATH\")").len(), 1);
        assert!(run("wallclock", "let env = 3; env.max(1);").is_empty());
        assert!(run("wallclock", "Duration::from_secs(1)").is_empty());
    }

    #[test]
    fn rng_literal_seeds_only() {
        assert_eq!(run("rng-seed-literal", "SplitMix64::new(42)").len(), 1);
        assert!(run("rng-seed-literal", "SplitMix64::new(seed ^ 3)").is_empty());
        assert!(run("rng-seed-literal", "SplitMix64::seed_from_labels(&[a])").is_empty());
    }

    #[test]
    fn unchecked_arith_distinguishes_binary_from_deref() {
        assert_eq!(run("unchecked-arith", "a + b").len(), 1);
        assert_eq!(run("unchecked-arith", "a += b;").len(), 1);
        assert_eq!(run("unchecked-arith", "f(x) * 2").len(), 1);
        assert!(run("unchecked-arith", "let v = *slot;").is_empty());
        assert!(run("unchecked-arith", "a.saturating_add(b)").is_empty());
        assert!(run("unchecked-arith", "a - b").is_empty());
    }

    #[test]
    fn version_table_scope_hits_ident() {
        assert_eq!(run("version-table-scope", "VersionTable::new()").len(), 1);
        assert!(run("version-table-scope", "table.version(t, 0)").is_empty());
    }

    #[test]
    fn every_panic_site_is_flagged_reachable_or_not() {
        // A private helper no public method calls, a free fn nothing calls
        // and a `pub` method's own panic are all reported: the rule reads
        // no call graph.
        let found = findings_for(
            "panic-path",
            &[(
                "crates/core/src/session.rs",
                "pub struct Session;\nimpl Session {\n  fn private_helper(&self) { never_called(); }\n  pub fn attest(&self) { self.state.unwrap(); }\n}\nfn never_called() { panic!(\"x\"); }\nfn orphan(data: &[u8]) -> u8 { data[0] }\n",
            )],
        );
        let lines: Vec<u32> = found.iter().map(|(_, line, _)| *line).collect();
        assert_eq!(lines, vec![4, 6, 7], "{found:?}");
        assert!(found[0].2.contains("unwrap"), "{}", found[0].2);
        assert!(found[1].2.contains("panic!"), "{}", found[1].2);
        assert!(found[2].2.contains("indexing"), "{}", found[2].2);
    }

    #[test]
    fn constructed_but_unmatched_variant_is_flagged() {
        let found = findings_for(
            "error-variant-consumption",
            &[
                (
                    "crates/core/src/version.rs",
                    "pub enum VersionError {\n  Exhausted(u32),\n  Stale(u64),\n}\nimpl std::fmt::Display for VersionError {\n  fn fmt(&self, f: &mut F) -> R { match self { VersionError::Exhausted(t) => w(f), VersionError::Stale(s) => w(f) } }\n}\npub fn bump() -> Result<(), VersionError> { Err(VersionError::Exhausted(3)) }\npub fn stale() -> VersionError { VersionError::Stale(0) }\n",
                ),
                (
                    "crates/sim/src/recover.rs",
                    "pub fn recover(e: VersionError) {\n  if let VersionError::Stale(s) = e { retry(s); }\n}\n",
                ),
            ],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        let (path, line, msg) = &found[0];
        assert_eq!(path, "crates/core/src/version.rs");
        assert_eq!(*line, 2);
        assert!(
            msg.contains("Exhausted") && msg.contains("never matched"),
            "Display impl must not count as handling: {msg}"
        );
    }

    #[test]
    fn never_constructed_variant_is_flagged() {
        let found = findings_for(
            "error-variant-consumption",
            &[(
                "crates/core/src/run.rs",
                "pub enum RunError { Finished, Poisoned }\npub fn f() -> RunError { RunError::Poisoned }\npub fn g(e: &RunError) -> bool { matches!(e, RunError::Poisoned | RunError::Finished) }\n",
            )],
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].2.contains("Finished") && found[0].2.contains("never constructed"));
    }

    #[test]
    fn fully_consumed_enums_are_quiet() {
        let found = findings_for(
            "error-variant-consumption",
            &[(
                "crates/core/src/run.rs",
                "pub enum RunError { Finished, Poisoned }\npub fn f(stop: bool) -> RunError { if stop { RunError::Finished } else { RunError::Poisoned } }\npub fn g(e: &RunError) -> u32 { match e { RunError::Finished => 0, RunError::Poisoned => 1 } }\n",
            )],
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn test_code_evidence_does_not_count() {
        let found = findings_for(
            "error-variant-consumption",
            &[(
                "crates/core/src/run.rs",
                "pub enum RunError { Finished }\npub fn f() -> RunError { RunError::Finished }\n#[cfg(test)]\nmod tests {\n  fn t(e: RunError) { match e { RunError::Finished => {} } }\n}\n",
            )],
        );
        assert_eq!(
            found.len(),
            1,
            "cfg(test) match is not a consumer: {found:?}"
        );
    }
}
