//! A minimal hand-rolled Rust lexer.
//!
//! `tnpu-lint` cannot use `syn` or `proc-macro2` — the build container has
//! no registry access, and the linter must be buildable before anything
//! else in the workspace. All its rules are token-pattern rules, so a small
//! lexer is enough: it splits source into identifiers, literals, and
//! punctuation, strips comments and string/char literal *contents* (so
//! `HashMap` inside a doc comment or a message string never trips a rule),
//! and records two pieces of side information the rule engine needs:
//!
//! * `// tnpu-lint: allow(rule-a, rule-b)` escape-hatch comments, mapped to
//!   the lines they cover (the comment's own line and the next line);
//! * `#[cfg(test)]`-gated regions, which every rule exempts.

use std::collections::{BTreeMap, BTreeSet};

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`HashMap`, `as`, `fn`, ...).
    Ident,
    /// Integer literal (`42`, `0x9E37`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e9`).
    Float,
    /// String / raw-string / byte-string literal (content dropped).
    Str,
    /// Char literal (content dropped).
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-char operators the rules care about (`::`, `+=`,
    /// `*=`, `->`, `=>`, `..`) are fused into one token.
    Punct,
}

/// One token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (empty for string/char literals).
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A lexed source file: tokens plus the side tables rules consult.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Token stream, comments and literal contents stripped.
    pub tokens: Vec<Tok>,
    /// `line -> rule ids` allowed starting at that line.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Lines holding `//` comments — allow comments extend through their
    /// contiguous comment block (multi-line justifications).
    pub comment_lines: BTreeSet<u32>,
    /// Lines spanned by outer attributes (`#[derive(..)]`, `#[must_use]`,
    /// ...) — an allow comment written above an attributed item must still
    /// reach the item line below the attributes.
    pub attr_lines: BTreeSet<u32>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
}

impl LexedFile {
    /// The line of the escape-hatch comment that allows `rule` on `line`,
    /// if any, so the engine can record which allows were actually used
    /// (`--deny-unused-allows`). An allow comment covers its own line, the
    /// rest of its contiguous `//` comment block, any attribute lines
    /// directly below the block, and the first line after those (the code
    /// line the justification is written for).
    #[must_use]
    pub fn allow_line_for(&self, rule: &str, line: u32) -> Option<u32> {
        self.allows
            .iter()
            .find(|(l, rules)| {
                if !rules.contains(rule) || **l > line {
                    return false;
                }
                let mut end = **l;
                while self.comment_lines.contains(&(end + 1)) {
                    end += 1;
                }
                // Attributes between the justification and its target
                // (`#[derive(..)]`, `#[must_use]`) don't break coverage.
                let mut target = end + 1;
                while self.attr_lines.contains(&target) {
                    target += 1;
                }
                **l <= line && line <= target
            })
            .map(|(l, _)| *l)
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_region(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Lex `src` into tokens plus allow/test side tables.
#[must_use]
pub fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comment_lines.insert(line);
                // Doc comments (`///`, `//!`) are documentation, not
                // directives: text *about* the allow syntax must not
                // create an allow.
                let text = &src[start..i];
                if !text.starts_with("///") && !text.starts_with("//!") {
                    scan_allow_comment(text, line, &mut out.allows);
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Char literal vs lifetime.
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: skip to closing quote.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                    out.tokens.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                } else {
                    // Lifetime: 'ident (no closing quote).
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_owned(),
                        line,
                    });
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                // Raw-string / byte-string prefixes lex as literals, not
                // identifiers: r"..", r#".."#, b"..", br#".."#, c"..".
                if let Some(next) = raw_literal_end(b, i, &mut line) {
                    i = next;
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line,
                    });
                    continue;
                }
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut float = false;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    if b[i] == b'e' || b[i] == b'E' {
                        // Exponent only counts in decimal literals.
                        if !src[start..i].starts_with("0x")
                            && b.get(i + 1)
                                .is_some_and(|n| n.is_ascii_digit() || *n == b'-' || *n == b'+')
                        {
                            float = true;
                            i += 1; // consume sign/digit below
                        }
                    }
                    i += 1;
                }
                // Fractional part: `1.5` but not `1..4` or `1.method()`.
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    float = true;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                }
                out.tokens.push(Tok {
                    kind: if float { TokKind::Float } else { TokKind::Int },
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            _ => {
                let two = &src[i..(i + 2).min(src.len())];
                const FUSED: &[&str] = &["::", "+=", "-=", "*=", "/=", "->", "=>", ".."];
                if FUSED.contains(&two) {
                    out.tokens.push(Tok {
                        kind: TokKind::Punct,
                        text: two.to_owned(),
                        line,
                    });
                    i += 2;
                } else {
                    out.tokens.push(Tok {
                        kind: TokKind::Punct,
                        text: src[i..=i].to_owned(),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }

    find_test_regions(&out.tokens, &mut out.test_regions);
    find_attr_lines(&out.tokens, &mut out.attr_lines);
    out
}

/// Record every line spanned by an attribute (`#[...]` / `#![...]`), so
/// allow comments can reach past attributes to the item they annotate.
fn find_attr_lines(tokens: &[Tok], attr_lines: &mut BTreeSet<u32>) {
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end_line = tokens.get(j).map_or(start_line, |t| t.line);
        for line in start_line..=end_line {
            attr_lines.insert(line);
        }
        i = j + 1;
    }
}

/// Skip a `"..."` string starting at `b[i] == b'"'`; returns the index past
/// the closing quote and advances `line` over embedded newlines.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If `b[i..]` starts a raw/byte string literal (`r"`, `r#"`, `br"`, `b"`,
/// `c"`, ...), skip it and return the index past its end.
fn raw_literal_end(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    // Optional b/c prefix, optional r, then hashes+quote or quote.
    if b[j] == b'b' || b[j] == b'c' {
        j += 1;
    }
    let raw = b.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&b'"') {
        return None;
    }
    if !raw {
        // Plain (byte) string: reuse escape-aware skipping.
        return Some(skip_string(b, j, line));
    }
    // Raw string: ends at `"` followed by `hashes` hashes; no escapes.
    j += 1;
    while j < b.len() {
        if b[j] == b'\n' {
            *line += 1;
        }
        if b[j] == b'"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(j)
}

/// Parse a `// tnpu-lint: allow(rule-a, rule-b)` comment into the allow map.
fn scan_allow_comment(comment: &str, line: u32, allows: &mut BTreeMap<u32, BTreeSet<String>>) {
    let Some(rest) = comment.split("tnpu-lint:").nth(1) else {
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return;
    };
    let Some(end) = rest.find(')') else {
        return;
    };
    let rules = rest[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned);
    allows.entry(line).or_default().extend(rules);
}

/// Record the line spans of `#[cfg(test)]`-gated items (the conventional
/// `#[cfg(test)] mod tests { ... }` shape: the next braced block after the
/// attribute, skipping any further attributes).
fn find_test_regions(tokens: &[Tok], regions: &mut Vec<(u32, u32)>) {
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let hit = tokens[i].is_punct("#")
            && tokens[i + 1].is_punct("[")
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct("(")
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(")")
            && tokens[i + 6].is_punct("]");
        if !hit {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the gated item's opening brace; bail at `;` (e.g. a gated
        // `use` item) so we never swallow unrelated code.
        let mut j = i + 7;
        while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(";") {
            if j < tokens.len() {
                regions.push((start_line, tokens[j].line));
            }
            i = j;
            continue;
        }
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct("{") {
                depth += 1;
            } else if tokens[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end_line = tokens.get(j).map_or(u32::MAX, |t| t.line);
        regions.push((start_line, end_line));
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = lex("// HashMap in a comment\nlet x = \"HashMap\"; /* HashMap */ let y = 1;");
        assert!(!f.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(f.tokens.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = lex("let s = r#\"HashMap \" inner\"#; let t = b\"HashMap\"; done");
        assert!(!f.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(f.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert_eq!(
            f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn lines_are_tracked_across_literals() {
        let f = lex("let a = \"x\ny\";\nlet b = 1;");
        let b = f.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn allow_comments_cover_their_line_and_the_next() {
        let f = lex("// tnpu-lint: allow(rule-x, rule-y) — justification\nlet x = 1;\nlet y = 2;");
        assert!(f.allow_line_for("rule-x", 1).is_some());
        assert!(f.allow_line_for("rule-y", 2).is_some());
        assert!(f.allow_line_for("rule-x", 3).is_none());
        assert!(f.allow_line_for("rule-z", 2).is_none());
    }

    #[test]
    fn allow_comments_extend_through_their_comment_block() {
        let f = lex(
            "// tnpu-lint: allow(rule-x) — a justification long enough\n// to continue on a second comment line.\nlet x = 1;\nlet y = 2;",
        );
        assert!(f.allow_line_for("rule-x", 2).is_some());
        assert!(f.allow_line_for("rule-x", 3).is_some());
        assert!(f.allow_line_for("rule-x", 4).is_none());
    }

    #[test]
    fn allow_comments_reach_past_attributes() {
        let f = lex(
            "// tnpu-lint: allow(rule-x) — the derive forces the name\n#[derive(Debug, Clone)]\n#[must_use]\nstruct S { m: HashMap }\nlet after = 1;",
        );
        assert!(
            f.allow_line_for("rule-x", 4).is_some(),
            "allow must reach past attributes"
        );
        assert!(
            f.allow_line_for("rule-x", 5).is_none(),
            "coverage stops at the item line"
        );
    }

    #[test]
    fn allow_on_the_last_line_of_a_file_still_registers() {
        // No trailing newline, comment is the final line: the allow must
        // still parse and cover its own line (a trailing same-line allow).
        let f = lex("let m = 1; // tnpu-lint: allow(rule-x) — trailing");
        assert!(f.allow_line_for("rule-x", 1).is_some());
        let f = lex("let m = 1;\n// tnpu-lint: allow(rule-x) — dangling at EOF");
        assert!(f.allow_line_for("rule-x", 2).is_some());
    }

    #[test]
    fn blank_line_between_allow_and_target_breaks_coverage() {
        // Documented limitation: a blank line detaches the justification
        // from its target. --deny-unused-allows makes this rot loudly.
        let f = lex("// tnpu-lint: allow(rule-x) — detached\n\nlet m = 1;");
        assert!(f.allow_line_for("rule-x", 3).is_none());
    }

    #[test]
    fn allow_line_for_reports_the_firing_comment() {
        let f = lex("// tnpu-lint: allow(rule-x) — why\nlet m = 1;\nlet n = 2;");
        assert_eq!(f.allow_line_for("rule-x", 2), Some(1));
        assert_eq!(f.allow_line_for("rule-x", 3), None);
    }

    #[test]
    fn cfg_test_regions_are_found() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let f = lex(src);
        assert!(f.in_test_region(3));
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(1));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn fused_punctuation() {
        let f = lex("a += b; c::d; e *= f;");
        assert!(f.tokens.iter().any(|t| t.is_punct("+=")));
        assert!(f.tokens.iter().any(|t| t.is_punct("::")));
        assert!(f.tokens.iter().any(|t| t.is_punct("*=")));
    }

    #[test]
    fn numeric_literals() {
        let f = lex("let a = 0x9E37_79B9; let b = 1.5; let c = 42u64; a.min(3)");
        let kinds: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![TokKind::Int, TokKind::Float, TokKind::Int, TokKind::Int]
        );
    }
}
