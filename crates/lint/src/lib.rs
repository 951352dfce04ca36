//! `tnpu-lint` — a dependency-free workspace linter for determinism,
//! unit-safety, security-model, and robustness invariants.
//!
//! The paper's core claim (tree-less integrity with software-managed
//! versions) and PR 2's byte-identical-sweep guarantee both rest on
//! invariants `rustc` cannot see. Those clippy can state with type
//! information (no `RawDram` call outside the functional memories, no hash
//! collections, no narrowing casts in cycle/byte code) are set in the root
//! `clippy.toml` and the crate roots; this crate machine-checks the rest:
//! no wall clock inside the simulation, no literal RNG seeds, no bare
//! arithmetic in accounting modules, version state owned by one module, no
//! unjustified panic in the session core, and no dead error variant. See
//! `LINTS.md` at the repository root for the rule catalogue.
//!
//! Pipeline: [`lexer`] tokenises a file (stripping comments and literal
//! contents, recording `// tnpu-lint: allow(...)` comments and
//! `#[cfg(test)]` regions), [`parser`] collects panic sites, enum variants
//! and pattern/expression paths from the tokens, and [`rules`] runs the
//! token-pattern checks per file and the parse-based checks over every
//! file. [`lint_root`] reads and analyzes every file in one sequential
//! pass, then scopes each finding by path (each rule's scope is compiled
//! into [`rules`]) and filters through allow comments and test-region
//! exemptions — tracking which allow comments actually fired, so stale
//! justifications can be denied (`--deny-unused-allows`).

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;

use parser::ParsedFile;
use rules::RULES;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Explanation and suggested fix.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Pseudo-rule id for `--deny-unused-allows` findings.
pub const UNUSED_ALLOW_RULE: &str = "unused-allow";

/// Directories walked for `.rs` files, relative to the workspace root.
pub const ROOTS: &[&str] = &["crates"];

/// Path prefixes skipped entirely. The lint fixtures are deliberately bad
/// code; `target` and `vendor` never hold first-party sources.
const SKIP: &[&str] = &["crates/lint/tests/fixtures", "target", "vendor"];

/// Everything the analysis extracts from one file, independent of
/// its path scope: scope filtering, allow filtering, and the parse-based
/// rules all run downstream of this.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// Item-level parse (panic sites, enums, uses, path refs).
    pub parsed: ParsedFile,
    /// Lexer side tables (allow comments, comment/attr lines, test
    /// regions); `tokens` is empty, as nothing downstream reads it.
    pub side: lexer::LexedFile,
    /// Raw findings of every token-pattern rule, pre scope/allow filtering:
    /// `(rule id, line, message)`.
    pub lexical: Vec<(&'static str, u32, String)>,
}

/// Analyze one file's source: lex, parse, and run every lexical rule.
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> AnalyzedFile {
    let mut lexed = lexer::lex(src);
    let parsed = parser::parse(&lexed);
    let mut lexical = Vec::new();
    for rule in RULES {
        if let rules::Check::Tokens(check) = rule.check {
            for finding in check(&lexed) {
                lexical.push((rule.id, finding.line, finding.message));
            }
        }
    }
    lexed.tokens = Vec::new();
    AnalyzedFile {
        path: path.to_owned(),
        parsed,
        side: lexed,
        lexical,
    }
}

/// Whether `path` (workspace-relative, `/`-separated) is under `prefix`,
/// matching whole components (`crates/sim` covers `crates/sim/src/x.rs`
/// but not `crates/simulator/x.rs`).
fn path_under(path: &str, prefix: &str) -> bool {
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Whether a rule with this scope applies to `path`. Shared by lexical
/// and parse-based rules; test directories are exempt from every rule.
fn scope_applies(include: &[&str], exclude: &[&str], path: &str) -> bool {
    if !include.is_empty() && !include.iter().any(|p| path_under(path, p)) {
        return false;
    }
    if exclude.iter().any(|p| path_under(path, p)) {
        return false;
    }
    !in_test_dir(path)
}

/// Whether `path` lives in a directory conventionally holding test,
/// benchmark, example, or fixture code.
pub(crate) fn in_test_dir(path: &str) -> bool {
    path.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
}

/// A full lint run's output.
#[derive(Debug)]
pub struct Report {
    /// Violations, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Allow comments that never suppressed anything ([`UNUSED_ALLOW_RULE`]
    /// pseudo-diagnostics), sorted.
    pub unused_allows: Vec<Diagnostic>,
}

/// Run the parse-based rules, then apply scoping, test-region, and allow
/// filtering to every raw finding; track which allow comments fired.
#[must_use]
pub fn report(files: &[AnalyzedFile]) -> Report {
    // (file index, line, rule id, message) before filtering.
    let mut raw: Vec<(usize, u32, &'static str, String)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (rule, line, message) in &file.lexical {
            raw.push((fi, *line, rule, message.clone()));
        }
    }
    for finding in rules::parsed_findings(files) {
        raw.push((finding.file, finding.line, finding.rule, finding.message));
    }

    let mut diagnostics = Vec::new();
    // (file index, allow-comment line, rule id) triples that suppressed at
    // least one finding.
    let mut used_allows: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    for (fi, line, rule, message) in raw {
        let file = &files[fi];
        let scope = rules::rule_by_id(rule).expect("every rule is registered");
        if !scope_applies(scope.include, scope.exclude, &file.path)
            || file.side.in_test_region(line)
        {
            continue;
        }
        if let Some(allow_line) = file.side.allow_line_for(rule, line) {
            used_allows.insert((fi, allow_line, rule.to_owned()));
            continue;
        }
        diagnostics.push(Diagnostic {
            path: file.path.clone(),
            line,
            rule,
            message,
        });
    }
    diagnostics.sort();
    diagnostics.dedup();

    // Allow comments that never fired. Test dirs and `#[cfg(test)]`
    // regions are exempt: test sources legitimately embed allow comments
    // as *data* for the linter's own fixtures.
    let mut unused_allows = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if in_test_dir(&file.path) {
            continue;
        }
        for (line, rule_ids) in &file.side.allows {
            if file.side.in_test_region(*line) {
                continue;
            }
            for rule_id in rule_ids {
                if !used_allows.contains(&(fi, *line, rule_id.clone())) {
                    unused_allows.push(Diagnostic {
                        path: file.path.clone(),
                        line: *line,
                        rule: UNUSED_ALLOW_RULE,
                        message: format!(
                            "`allow({rule_id})` never suppressed a finding; the \
                             justification is stale — remove the comment (or fix the \
                             rule id)"
                        ),
                    });
                }
            }
        }
    }
    unused_allows.sort();

    Report {
        diagnostics,
        unused_allows,
    }
}

/// Lint one file's source as if it lived at workspace-relative `path`, as
/// a one-file workspace. This is what the fixture tests drive.
#[must_use]
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    report(&[analyze_source(path, src)]).diagnostics
}

/// Lint every `.rs` file under `root`'s [`ROOTS`]: read and analyze each
/// file in turn, then report workspace-wide. Output is deterministic
/// (sorted).
///
/// A root directory that does not exist is skipped, but a missing `root`
/// or a walk that finds no `.rs` file at all is an error: a run over
/// nothing would otherwise report a clean workspace.
///
/// # Errors
///
/// A missing `root`, an empty walk, and I/O errors from the walk;
/// unreadable files are errors, not skips, so CI cannot silently
/// under-lint.
pub fn lint_root(root: &Path) -> io::Result<Report> {
    if !root.is_dir() {
        return Err(io::Error::new(io::ErrorKind::NotFound, "not a directory"));
    }
    let mut paths = Vec::new();
    for top in ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, root, &mut paths)?;
        }
    }
    if paths.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no `.rs` file under the roots ({})", ROOTS.join(", ")),
        ));
    }
    paths.sort();
    paths.dedup();
    let files: Vec<AnalyzedFile> = paths
        .iter()
        .map(|rel| Ok(analyze_source(rel, &fs::read_to_string(root.join(rel))?)))
        .collect::<io::Result<_>>()?;
    Ok(report(&files))
}

/// Recursively collect workspace-relative `.rs` paths, honouring
/// [`SKIP`] and ignoring hidden and build directories.
fn collect_rs_files(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .expect("walk stays under root")
            .to_string_lossy()
            .replace('\\', "/");
        if SKIP.iter().any(|s| path_under(&rel, s)) {
            continue;
        }
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs_files(&path, root, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_waives_a_line() {
        let bad = "let t = Instant::now();\n";
        assert_eq!(lint_file("crates/sim/src/x.rs", bad).len(), 1);
        let allowed =
            "// tnpu-lint: allow(wallclock) — stderr-only job timing\nlet t = Instant::now();\n";
        assert!(lint_file("crates/sim/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn scope_is_path_sensitive() {
        let src = "let t = Instant::now();";
        assert_eq!(lint_file("crates/sim/src/x.rs", src).len(), 1);
        // bench is outside the wallclock scope: job timing is allowed there.
        assert!(lint_file("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::time::Instant;\n}\n";
        assert!(lint_file("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_dirs_are_exempt_for_exempting_rules() {
        let src = "use std::time::Instant;";
        assert!(lint_file("crates/sim/tests/x.rs", src).is_empty());
        assert!(lint_file("crates/sim/examples/x.rs", src).is_empty());
    }

    #[test]
    fn path_prefix_matches_components() {
        assert!(path_under("crates/sim/src/rng.rs", "crates/sim"));
        assert!(!path_under("crates/simulator/src/x.rs", "crates/sim"));
        assert!(path_under("crates/sim", "crates/sim"));
    }

    #[test]
    fn diagnostics_render_grep_friendly() {
        let d = Diagnostic {
            path: "crates/sim/src/x.rs".to_owned(),
            line: 3,
            rule: "wallclock",
            message: "m".to_owned(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/x.rs:3: wallclock: m");
    }

    #[test]
    fn unused_allows_are_reported_and_used_ones_are_not() {
        let src = "// tnpu-lint: allow(wallclock) — used below\n\
                   let t = Instant::now();\n\
                   // tnpu-lint: allow(rng-seed-literal) — nothing here seeds an RNG\n\
                   let x = 1;\n";
        let files = vec![analyze_source("crates/sim/src/x.rs", src)];
        let rep = report(&files);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.unused_allows.len(), 1, "{:?}", rep.unused_allows);
        assert_eq!(rep.unused_allows[0].line, 3);
        assert!(rep.unused_allows[0].message.contains("rng-seed-literal"));
    }
}
