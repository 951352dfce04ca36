//! The domain rules and their token-pattern checks.
//!
//! Three families, mirroring the invariants the workspace depends on:
//!
//! * **determinism** — the PR 2 guarantee that a sweep is byte-identical at
//!   any thread count holds only if nothing order-dependent, clock-dependent,
//!   or environment-dependent reaches a result;
//! * **unit-safety** — cycle and byte accounting must not silently truncate
//!   or wrap;
//! * **security** — the paper's threat model (no DRAM path around the
//!   protection engine, version state owned by the version manager) is a
//!   hardware property in MGX/GuardNN. Here the compiler enforces the
//!   first half (the raw DRAM store is private to `tnpu-memprot`, so only
//!   the `FunctionalMemory` trait reaches it) and tooling the rest.
//!
//! Every rule is a token-pattern scan over [`LexedFile`] — deliberately
//! simple, so the linter stays dependency-free and auditable. Each rule's
//! path scope is compiled in here (`tests/workspace.rs` checks that every
//! scope path exists), and `// tnpu-lint: allow(rule-id)` on (or directly
//! above) a line waives that line with an in-code justification.

use crate::lexer::{LexedFile, TokKind};

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
    /// Narrowing/overflow hazards in accounting.
    UnitSafety,
    /// Threat-model invariants.
    Security,
    /// Panic/error-handling hazards on the public API surface.
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

/// A lint rule: scope defaults plus a token-pattern check. Every rule,
/// lexical or semantic, skips `#[cfg(test)]` regions and `tests/`,
/// `benches/`, `examples/` and `fixtures/` directories.
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
    /// The check itself. Receives the lexed file; returns raw findings
    /// (filtered by path scope and allow comments afterwards).
    pub check: fn(&LexedFile) -> Vec<Finding>,
}

/// Crates whose computation feeds printed results; the determinism rules
/// default to this scope.
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

/// All rules, in the order diagnostics list them.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hash-collections",
        family: Family::Determinism,
        summary: "HashMap/HashSet in result-feeding crates (iteration order is nondeterministic)",
        include: RESULT_CRATES,
        exclude: &[],
        check: check_hash_collections,
    },
    Rule {
        id: "wallclock",
        family: Family::Determinism,
        summary: "Instant/SystemTime/std::env inside simulation paths",
        include: SIMULATION_CRATES,
        exclude: &[],
        check: check_wallclock,
    },
    Rule {
        id: "rng-seed-literal",
        family: Family::Determinism,
        summary: "RNG constructed from a hard-coded literal seed instead of the RunSpec derivation",
        include: RESULT_CRATES,
        exclude: &["crates/sim/src/rng.rs"],
        check: check_rng_seed_literal,
    },
    Rule {
        id: "narrowing-cast",
        family: Family::UnitSafety,
        summary: "narrowing `as` cast in cycle/byte code (silent truncation)",
        include: &["crates/sim", "crates/npu"],
        exclude: &[],
        check: check_narrowing_cast,
    },
    Rule {
        id: "unchecked-arith",
        family: Family::UnitSafety,
        summary: "bare +/* in accounting modules (overflow wraps in release builds)",
        include: ACCOUNTING_FILES,
        exclude: &[],
        check: check_unchecked_arith,
    },
    Rule {
        id: "float-accumulation",
        family: Family::Determinism,
        summary: "float accumulation over map iteration order",
        include: RESULT_CRATES,
        exclude: &[],
        check: check_float_accumulation,
    },
    Rule {
        id: "version-table-scope",
        family: Family::Security,
        summary: "VersionTable handled outside the version-manager crate",
        include: &[],
        exclude: &["crates/core"],
        check: check_version_table_scope,
    },
];

/// A semantic (call-graph) rule: scoping metadata only — the checks run
/// workspace-wide in [`callgraph`](crate::callgraph), because they need
/// every file's parse, not one file's tokens. The include/exclude scope
/// controls where *findings* are reported; evidence (calls, constructions,
/// matches) is always gathered from the whole workspace.
pub struct SemRule {
    /// Kebab-case id used in diagnostics and allow comments.
    pub id: &'static str,
    /// Rule family.
    pub family: Family,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Path scope findings are reported in. Empty = everywhere.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
}

/// The semantic rule families (see `LINTS.md` for the full semantics).
pub const SEM_RULES: &[SemRule] = &[
    SemRule {
        id: "engine-bypass",
        family: Family::Security,
        summary: "call chain from outside crates/memprot reaches functional::dram \
                  without traversing a protection engine",
        include: &[],
        // Code inside memprot is the protection implementation itself;
        // the rule reports the call sites that cross into it.
        exclude: &["crates/memprot"],
    },
    SemRule {
        id: "panic-path",
        family: Family::Robustness,
        summary: "unwrap/expect/panic!/indexing reachable from the public \
                  Session/SecureNpuSession/serving API surface",
        include: &["crates/core", "crates/tee"],
        // The attack harness and the serving driver are experiment code,
        // not the security core: their panics are the assertion mechanism
        // (an attack cell that reaches an impossible state must abort the
        // experiment loudly, and the serving simulator's scheduler
        // invariants are checked the same way). The exclusion only filters
        // findings located in the two files: their pub fns still act as
        // reachability roots, so every panic they can reach inside
        // context/secure_runner/version/tee stays audited and must carry
        // its own justification.
        exclude: &["crates/core/src/attacks.rs", "crates/core/src/serving.rs"],
    },
    SemRule {
        id: "error-variant-consumption",
        family: Family::Robustness,
        summary: "error-enum variant not both constructed and matched/handled \
                  in non-test code",
        include: &[],
        exclude: &[],
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

/// Look up a semantic rule by id.
#[must_use]
pub fn sem_rule_by_id(id: &str) -> Option<&'static SemRule> {
    SEM_RULES.iter().find(|r| r.id == id)
}

fn check_hash_collections(lexed: &LexedFile) -> Vec<Finding> {
    lexed
        .tokens
        .iter()
        .filter(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        .map(|t| Finding {
            line: t.line,
            message: format!(
                "{} iterates in a nondeterministic order that can leak into results; \
                 use BTreeMap/BTreeSet or sort before iterating",
                t.text
            ),
        })
        .collect()
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

/// Integer types an `as` cast may truncate into. `u64`/`u128`/`i64`/`i128`
/// are deliberately absent: casts *up* to them are the common widening idiom.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32"];

fn check_narrowing_cast(lexed: &LexedFile) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].is_ident("as")
            && toks[i + 1].kind == TokKind::Ident
            && NARROW_TYPES.contains(&toks[i + 1].text.as_str())
        {
            out.push(Finding {
                line: toks[i].line,
                message: format!(
                    "`as {}` silently truncates out-of-range values; use \
                     `{}::try_from(..).expect(..)` (or restructure to avoid the narrowing)",
                    toks[i + 1].text,
                    toks[i + 1].text
                ),
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

fn check_float_accumulation(lexed: &LexedFile) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        let map_iter = (toks[i].is_ident("values") || toks[i].is_ident("keys"))
            && toks[i + 1].is_punct("(")
            && toks[i + 2].is_punct(")");
        if !map_iter {
            continue;
        }
        let reduces = toks[i + 3..]
            .iter()
            .take(10)
            .any(|t| t.is_ident("sum") || t.is_ident("fold") || t.is_ident("product"));
        if reduces {
            out.push(Finding {
                line: toks[i].line,
                message: "accumulation over map iteration order; float reduction order changes \
                          the result — collect and sort (or iterate a BTreeMap) first"
                    .to_owned(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: &str, src: &str) -> Vec<Finding> {
        (rule_by_id(rule).expect("known rule").check)(&lex(src))
    }

    #[test]
    fn hash_collections_hits_types_not_strings() {
        assert_eq!(run("hash-collections", "let m = HashMap::new();").len(), 1);
        assert!(run("hash-collections", "let s = \"HashMap\"; // HashMap").is_empty());
        assert!(run("hash-collections", "let m = BTreeMap::new();").is_empty());
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
    fn narrowing_casts_flag_narrow_targets_only() {
        assert_eq!(run("narrowing-cast", "x as u32").len(), 1);
        assert_eq!(run("narrowing-cast", "x as usize").len(), 1);
        assert!(run("narrowing-cast", "x as u64").is_empty());
        assert!(run("narrowing-cast", "x as f64").is_empty());
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
    fn float_accumulation_needs_map_iter_and_reduce() {
        assert_eq!(
            run("float-accumulation", "m.values().sum::<f64>()").len(),
            1
        );
        assert_eq!(run("float-accumulation", "m.keys().fold(0.0, f)").len(), 1);
        assert!(run("float-accumulation", "m.values().any(|x| x > 0)").is_empty());
        assert!(run("float-accumulation", "values.iter().sum::<f64>()").is_empty());
    }

    #[test]
    fn version_table_scope_hits_ident() {
        assert_eq!(run("version-table-scope", "VersionTable::new()").len(), 1);
        assert!(run("version-table-scope", "table.version(t, 0)").is_empty());
    }
}
