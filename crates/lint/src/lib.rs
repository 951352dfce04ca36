#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! `tnpu-lint` — a dependency-free workspace linter for determinism,
//! unit-safety, security-model, and robustness invariants.
//!
//! The paper's core claim (tree-less integrity with software-managed
//! versions) and PR 2's byte-identical-sweep guarantee both rest on
//! invariants `rustc` cannot see: no hash-order iteration into results, no
//! wall clock inside the simulation, no DRAM path around the protection
//! engine, version state owned by one module. This crate machine-checks
//! them. See `LINTS.md` at the repository root for the rule catalogue.
//!
//! Pipeline: [`lexer`] tokenises a file (stripping comments and literal
//! contents, recording `// tnpu-lint: allow(...)` comments and
//! `#[cfg(test)]` regions), [`parser`] builds item-level structure on top
//! of the tokens, [`rules`] pattern-match the token stream per file, and
//! [`symbols`]/[`callgraph`] assemble a workspace-wide call graph for the
//! semantic rule families (engine-bypass reachability, panic-path audit,
//! error-variant consumption). [`lint_root`] reads and analyzes every
//! file in one sequential pass, then scopes each finding by path (each
//! rule's scope is compiled into [`rules`]) and filters through
//! allow comments and test-region exemptions — tracking which allow
//! comments actually fired, so stale justifications can be denied
//! (`--deny-unused-allows`).

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod symbols;

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
pub const ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes skipped entirely. The lint fixtures are deliberately bad
/// code; `target` and `vendor` never hold first-party sources.
const SKIP: &[&str] = &["crates/lint/tests/fixtures", "target", "vendor"];

/// Everything the analysis extracts from one file, independent of
/// its path scope: scope filtering, allow filtering, and the semantic rules
/// all run downstream of this.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// Item-level parse (functions, calls, enums, uses, path refs).
    pub parsed: ParsedFile,
    /// Lexer side tables (allow comments, comment/attr lines, test
    /// regions); `tokens` is empty, as nothing downstream reads it.
    pub side: lexer::LexedFile,
    /// Raw lexical findings for *every* rule, pre scope/allow filtering:
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
        for finding in (rule.check)(&lexed, path) {
            lexical.push((rule.id, finding.line, finding.message));
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
/// and semantic rules.
fn scope_applies(include: &[&str], exclude: &[&str], exempt_tests: bool, path: &str) -> bool {
    if !include.is_empty() && !include.iter().any(|p| path_under(path, p)) {
        return false;
    }
    if exclude.iter().any(|p| path_under(path, p)) {
        return false;
    }
    !(exempt_tests && in_test_dir(path))
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

/// Apply scoping, test-region, and allow filtering to raw findings and run
/// the semantic rules; track which allow comments fired.
#[must_use]
pub fn report(files: &[AnalyzedFile]) -> Report {
    let mut diagnostics = Vec::new();
    // (file index, allow-comment line, rule id) triples that suppressed at
    // least one finding.
    let mut used_allows: BTreeSet<(usize, u32, String)> = BTreeSet::new();

    // Lexical findings.
    for (fi, file) in files.iter().enumerate() {
        for (rule_id, line, message) in &file.lexical {
            let rule = rules::rule_by_id(rule_id).expect("lexical rules are registered");
            if !scope_applies(rule.include, rule.exclude, rule.exempt_tests, &file.path) {
                continue;
            }
            if rule.exempt_tests && file.side.in_test_region(*line) {
                continue;
            }
            if let Some(allow_line) = file.side.allow_line_for(rule.id, *line) {
                used_allows.insert((fi, allow_line, rule.id.to_owned()));
                continue;
            }
            diagnostics.push(Diagnostic {
                path: file.path.clone(),
                line: *line,
                rule: rule.id,
                message: message.clone(),
            });
        }
    }

    // Semantic findings (workspace-wide analysis).
    let entries: Vec<symbols::FileEntry> = files
        .iter()
        .map(|f| symbols::FileEntry {
            path: f.path.clone(),
            parsed: f.parsed.clone(),
            test_regions: f.side.test_regions.clone(),
        })
        .collect();
    let ws = symbols::Workspace::build(entries);
    for finding in callgraph::analyze(&ws) {
        let file = &files[finding.file];
        let rule = rules::sem_rule_by_id(finding.rule).expect("semantic rules are registered");
        if !scope_applies(rule.include, rule.exclude, rule.exempt_tests, &file.path) {
            continue;
        }
        if rule.exempt_tests && file.side.in_test_region(finding.line) {
            continue;
        }
        if let Some(allow_line) = file.side.allow_line_for(rule.id, finding.line) {
            used_allows.insert((finding.file, allow_line, rule.id.to_owned()));
            continue;
        }
        diagnostics.push(Diagnostic {
            path: file.path.clone(),
            line: finding.line,
            rule: rule.id,
            message: finding.message,
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

/// Lint a set of in-memory sources as one workspace (lexical + semantic
/// rules). This is what the fixture tests drive.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let files: Vec<AnalyzedFile> = sources
        .iter()
        .map(|(path, src)| analyze_source(path, src))
        .collect();
    report(&files).diagnostics
}

/// Lint one file's source as if it lived at workspace-relative `path`.
///
/// Semantic rules see a one-file workspace: cross-file reachability cannot
/// fire, which is exactly right for single-file lexical fixtures.
#[must_use]
pub fn lint_file(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path, src)])
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
        let bad = "use std::collections::HashMap;\n";
        assert_eq!(lint_file("crates/sim/src/x.rs", bad).len(), 1);
        let allowed =
            "// tnpu-lint: allow(hash-collections) — keys never iterated\nuse std::collections::HashMap;\n";
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
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        assert!(lint_file("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_dirs_are_exempt_for_exempting_rules() {
        let src = "use std::collections::HashMap;";
        assert!(lint_file("crates/sim/tests/x.rs", src).is_empty());
        assert!(lint_file("examples/x.rs", src).is_empty());
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
        let src = "// tnpu-lint: allow(hash-collections) — used below\n\
                   use std::collections::HashMap;\n\
                   // tnpu-lint: allow(wallclock) — nothing here reads a clock\n\
                   let x = 1;\n";
        let files = vec![analyze_source("crates/sim/src/x.rs", src)];
        let rep = report(&files);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.unused_allows.len(), 1, "{:?}", rep.unused_allows);
        assert_eq!(rep.unused_allows[0].line, 3);
        assert!(rep.unused_allows[0].message.contains("wallclock"));
    }
}
