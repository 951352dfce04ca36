//! A hand-rolled item-level parser over the [`lexer`](crate::lexer) token
//! stream.
//!
//! Same offline constraint as the lexer: no `syn`, no `proc-macro2` — the
//! build container has no registry access, and the linter must build before
//! anything else. The parser therefore recognises exactly the structure the
//! parse-based rules need, and nothing more:
//!
//! * **items** — `mod` nesting, `fn` bodies (free, inherent, trait impl,
//!   trait default), the `Self` type of `impl`/`trait` blocks, `enum`
//!   declarations with their variants, and `use` declarations including
//!   group imports, glob imports, and `as` renames;
//! * **panic sites** — `.unwrap()`, `.expect(..)`, the `panic!` macro
//!   family, and slice-index expressions (`buf[i]` can panic);
//! * **pattern contexts** — `match` arms, `if let`/`while let`, plain `let`
//!   destructuring, `for` patterns, and `matches!`, so an `Enum::Variant`
//!   path can be classified as *consumed* (named in a pattern) versus
//!   *constructed* (named in an expression, called or not).
//!
//! The walker is deliberately tolerant: anything it does not understand is
//! skipped token-by-token, so a parse never fails — it just yields fewer
//! facts. The rules are designed so that missing facts make them
//! *quieter*, never wrong about code that parses cleanly.

use crate::lexer::{LexedFile, Tok, TokKind};

/// Everything the parse-based rules need from one source file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ParsedFile {
    /// Enum declarations with their variants.
    pub enums: Vec<EnumItem>,
    /// Flattened `use` declarations: one entry per imported leaf (globs
    /// bind no name and are not recorded).
    pub uses: Vec<UseItem>,
    /// Multi-segment paths named in *pattern* position (match arms,
    /// `if let`, `matches!`, `let` destructuring) — consumption evidence.
    pub pattern_refs: Vec<PathRef>,
    /// Multi-segment paths named in *expression* position (unit variants,
    /// struct-literal and tuple-variant constructions, calls, associated
    /// consts) — construction evidence.
    pub expr_refs: Vec<PathRef>,
    /// Panic-capable sites in function bodies, in source order.
    pub panics: Vec<PanicSite>,
}

impl ParsedFile {
    /// Resolve a variant reference (`VErr::Exhausted`, `Self::Poisoned`)
    /// to `(enum name, variant name)`: the second-to-last segment, with
    /// `Self` or a `use` rename replaced by the name it stands for.
    #[must_use]
    pub fn resolve_variant_ref(&self, r: &PathRef) -> Option<(String, String)> {
        let [.., head, variant] = r.path.as_slice() else {
            return None;
        };
        let enum_name = if head == "Self" {
            r.container.clone()?
        } else {
            self.imported_name(&r.module, head)
                .unwrap_or(head)
                .to_owned()
        };
        Some((enum_name, variant.clone()))
    }

    /// The item name a `use` binds to `alias` where inline module `module`
    /// can see it; the innermost declaring module wins. A top-of-file
    /// `use` is visible throughout the file — an over-approximation of
    /// Rust's per-module scoping that errs towards resolving more.
    fn imported_name(&self, module: &[String], alias: &str) -> Option<&str> {
        self.uses
            .iter()
            .filter(|u| u.alias == alias && module.starts_with(&u.module))
            .max_by_key(|u| u.module.len())
            .and_then(|u| u.path.last())
            .map(String::as_str)
    }
}

/// What kind of panic a [`PanicSite`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Macro(String),
    /// Slice/array index expression (`buf[i]` panics out of range).
    Index,
}

impl PanicKind {
    /// Short diagnostic label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PanicKind::Unwrap => "`.unwrap()`".to_owned(),
            PanicKind::Expect => "`.expect(..)`".to_owned(),
            PanicKind::Macro(name) => format!("`{name}!`"),
            PanicKind::Index => "slice indexing".to_owned(),
        }
    }
}

/// One panic-capable expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-indexed line.
    pub line: u32,
    /// What can panic here.
    pub kind: PanicKind,
}

/// One enum declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// `(variant name, line)` pairs in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One imported leaf of a `use` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseItem {
    /// Inline-module path of the `use` within the file.
    pub module: Vec<String>,
    /// Full imported path (`["tnpu_core", "version", "VersionError"]`).
    pub path: Vec<String>,
    /// Name the import binds locally (last segment, or the `as` rename).
    pub alias: String,
}

/// A multi-segment path reference with enough context to resolve it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    /// 1-indexed line.
    pub line: u32,
    /// Segments as written (`["VersionError", "Exhausted"]`).
    pub path: Vec<String>,
    /// Inline-module path of the reference within the file.
    pub module: Vec<String>,
    /// `Self` type of the enclosing impl/trait block, if any — used both
    /// to resolve `Self::Variant` and to exclude an enum's own impl blocks
    /// from consumption evidence.
    pub container: Option<String>,
}

/// Parse a lexed file into items and pattern/expression/panic facts.
#[must_use]
pub fn parse(lexed: &LexedFile) -> ParsedFile {
    let mut p = Parser {
        toks: &lexed.tokens,
        i: 0,
        out: ParsedFile::default(),
    };
    let mut module = Vec::new();
    p.items(&mut module, None);
    p.out
}

/// Identifiers that can never start an expression path.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "true", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// The panic-macro family `panic-path` audits. `assert!`/`assert_eq!` are
/// deliberately absent: the workspace uses them as *loud invariant checks*
/// the security argument depends on (e.g. `clamp_block` aliasing guards).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Where a function body sits: what every [`PathRef`] in it records.
#[derive(Debug, Clone)]
struct Scope {
    /// Inline-module path within the file.
    module: Vec<String>,
    /// `Self` type of the enclosing impl/trait block.
    container: Option<String>,
}

impl Scope {
    fn path_ref(&self, line: u32, path: Vec<String>) -> PathRef {
        PathRef {
            line,
            path,
            module: self.module.clone(),
            container: self.container.clone(),
        }
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    i: usize,
    out: ParsedFile,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.i)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.i + off)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.i);
        self.i += 1;
        t
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(s))
    }

    /// Skip one `#[...]` / `#![...]` attribute if the cursor is on `#`.
    fn skip_attr(&mut self) -> bool {
        if !self.at_punct("#") {
            return false;
        }
        let mut j = self.i + 1;
        if self.toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if !self.toks.get(j).is_some_and(|t| t.is_punct("[")) {
            self.i += 1; // stray `#`, tolerate
            return true;
        }
        let mut depth = 0i32;
        while let Some(t) = self.toks.get(j) {
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        self.i = (j + 1).min(self.toks.len());
        true
    }

    /// Skip a balanced `<...>` generic group; cursor is on `<`.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                // Const-generic expressions / fn pointers inside bounds.
                self.skip_balanced();
                continue;
            }
            self.i += 1;
        }
    }

    /// Skip a balanced `(..)`, `[..]`, or `{..}` group; cursor is on the
    /// opener.
    fn skip_balanced(&mut self) {
        let (open, close) = match self.peek() {
            Some(t) if t.is_punct("(") => ("(", ")"),
            Some(t) if t.is_punct("[") => ("[", "]"),
            Some(t) if t.is_punct("{") => ("{", "}"),
            _ => {
                self.i += 1;
                return;
            }
        };
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip tokens until a `;` at delimiter depth 0 (consumed).
    fn skip_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(";") {
                self.i += 1;
                return;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                self.skip_balanced();
            } else {
                self.i += 1;
            }
        }
    }

    /// Skip a header (generics, supertraits, where-clause) up to its `{`
    /// body, which is consumed; returns `false` at a `;` (consumed) or EOF.
    fn skip_to_body(&mut self) -> bool {
        while let Some(t) = self.peek() {
            if t.is_punct("{") {
                self.i += 1;
                return true;
            }
            if t.is_punct(";") {
                self.i += 1;
                return false;
            }
            if t.is_punct("<") {
                self.skip_angles();
            } else if t.is_punct("(") || t.is_punct("[") {
                self.skip_balanced(); // parameters, fn-pointer / array types
            } else {
                self.i += 1;
            }
        }
        false
    }

    /// Parse items until EOF or a `}` closing the enclosing block (the `}`
    /// is consumed). `container` is the `Self` type of an enclosing
    /// impl/trait body.
    fn items(&mut self, module: &mut Vec<String>, container: Option<&str>) {
        loop {
            while self.skip_attr() {}
            let Some(t) = self.peek() else { return };
            if t.is_punct("}") {
                self.i += 1;
                return;
            }
            // Visibility + qualifiers.
            loop {
                if self.at_ident("pub") {
                    self.i += 1;
                    if self.at_punct("(") {
                        self.skip_balanced(); // pub(crate) / pub(super)
                    }
                } else if self.at_ident("const")
                    && self.peek_at(1).is_some_and(|t| t.is_ident("fn"))
                    || self.at_ident("async")
                    || self.at_ident("unsafe")
                    || self.at_ident("default")
                {
                    self.i += 1;
                } else if self.at_ident("extern") {
                    self.i += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Str) {
                        self.i += 1;
                    }
                } else {
                    break;
                }
            }
            let Some(t) = self.peek() else { return };
            if t.kind != TokKind::Ident {
                self.i += 1; // unrecognised — advance one token (tolerant)
                continue;
            }
            match t.text.as_str() {
                "mod" => {
                    self.i += 1;
                    let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                    if self.at_punct("{") {
                        self.i += 1;
                        module.push(name);
                        self.items(module, container);
                        module.pop();
                    } else {
                        self.skip_to_semi();
                    }
                }
                "use" => {
                    self.i += 1;
                    let mut prefix = Vec::new();
                    self.use_tree(&mut prefix, module);
                    self.skip_to_semi();
                }
                "fn" => {
                    let scope = Scope {
                        module: module.clone(),
                        container: container.map(str::to_owned),
                    };
                    self.parse_fn(&scope);
                }
                "enum" => self.parse_enum(),
                "impl" => self.parse_impl(module),
                "trait" => {
                    self.i += 1;
                    let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                    if self.skip_to_body() {
                        self.items(module, Some(&name));
                    }
                }
                "struct" | "union" => {
                    self.i += 1;
                    while let Some(t) = self.peek() {
                        if t.is_punct(";") {
                            self.i += 1;
                            break;
                        }
                        if t.is_punct("{") {
                            self.skip_balanced();
                            break;
                        }
                        if t.is_punct("<") {
                            self.skip_angles();
                        } else if t.is_punct("(") {
                            self.skip_balanced(); // tuple struct; `;` follows
                        } else {
                            self.i += 1;
                        }
                    }
                }
                "static" | "const" | "type" => self.skip_to_semi(),
                "macro_rules" => {
                    self.i += 1; // name + `!` + body
                    while let Some(t) = self.peek() {
                        if t.is_punct("{") {
                            self.skip_balanced();
                            break;
                        }
                        if t.is_punct(";") {
                            self.i += 1;
                            break;
                        }
                        self.i += 1;
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// Parse one `use` tree; cursor is after `use` (or inside a group).
    fn use_tree(&mut self, prefix: &mut Vec<String>, module: &[String]) {
        loop {
            let Some(t) = self.peek() else { return };
            if t.is_punct("*") {
                self.i += 1; // a glob binds no name of its own
                return;
            }
            if t.is_punct("{") {
                self.i += 1;
                loop {
                    let Some(t) = self.peek() else { return };
                    if t.is_punct("}") {
                        self.i += 1;
                        return;
                    }
                    if t.is_punct(",") {
                        self.i += 1;
                        continue;
                    }
                    let mut sub = prefix.clone();
                    self.use_tree(&mut sub, module);
                }
            }
            if t.kind != TokKind::Ident {
                return;
            }
            if t.text == "self" && !prefix.is_empty() {
                // `use x::y::{self, ..}` — binds the prefix's last segment.
                self.i += 1;
                self.out.uses.push(UseItem {
                    module: module.to_vec(),
                    path: prefix.clone(),
                    alias: prefix.last().cloned().unwrap_or_default(),
                });
                return;
            }
            let seg = t.text.clone();
            self.i += 1;
            if self.at_punct("::") {
                prefix.push(seg);
                self.i += 1;
                continue;
            }
            // Leaf: optional `as` rename.
            let alias = if self.at_ident("as") {
                self.i += 1;
                self.bump().map(|t| t.text.clone()).unwrap_or_default()
            } else {
                seg.clone()
            };
            prefix.push(seg);
            self.out.uses.push(UseItem {
                module: module.to_vec(),
                path: prefix.clone(),
                alias,
            });
            return;
        }
    }

    /// Parse an enum declaration; cursor is on `enum`.
    fn parse_enum(&mut self) {
        self.i += 1;
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        let mut item = EnumItem {
            name,
            variants: Vec::new(),
        };
        if !self.skip_to_body() {
            self.out.enums.push(item);
            return;
        }
        loop {
            while self.skip_attr() {}
            let Some(t) = self.peek() else { break };
            if t.is_punct("}") {
                self.i += 1;
                break;
            }
            if t.is_punct(",") {
                self.i += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                item.variants.push((t.text.clone(), t.line));
                self.i += 1;
                // Payload / discriminant.
                match self.peek() {
                    Some(t) if t.is_punct("(") || t.is_punct("{") => self.skip_balanced(),
                    Some(t) if t.is_punct("=") => {
                        while let Some(t) = self.peek() {
                            if t.is_punct(",") || t.is_punct("}") {
                                break;
                            }
                            self.i += 1;
                        }
                    }
                    _ => {}
                }
            } else {
                self.i += 1;
            }
        }
        self.out.enums.push(item);
    }

    /// Parse an impl block; cursor is on `impl`.
    fn parse_impl(&mut self, module: &mut Vec<String>) {
        self.i += 1;
        if self.at_punct("<") {
            self.skip_angles();
        }
        // First path: either the Self type (inherent) or the trait.
        let mut self_type = self.impl_path();
        if self.at_ident("for") {
            self.i += 1;
            self_type = self.impl_path();
        }
        if self.skip_to_body() {
            self.items(module, Some(&self_type));
        }
    }

    /// Read a type/trait path in an impl header, returning its last
    /// meaningful segment (`tnpu_memprot::ProtectionEngine` → that name;
    /// `SecureRunner<M>` → `SecureRunner`; `&mut X` → `X`).
    fn impl_path(&mut self) -> String {
        let mut last = String::new();
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Ident {
                if t.text == "for" || t.text == "where" {
                    break;
                }
                last = t.text.clone();
                self.i += 1;
                if self.at_punct("<") {
                    self.skip_angles();
                }
                if self.at_punct("::") {
                    self.i += 1;
                    continue;
                }
                break;
            } else if t.is_punct("&") || t.is_punct("<") && last.is_empty() {
                // `impl<T> Trait for &T` / `impl <T as X>::Out` — tolerate.
                self.i += 1;
            } else {
                break;
            }
        }
        last
    }

    /// Parse a fn item; cursor is on `fn`. A signature without a body
    /// (trait declarations) yields nothing.
    fn parse_fn(&mut self, scope: &Scope) {
        self.i += 2; // `fn` and the name
        if self.skip_to_body() {
            self.expr_until_close(scope, "}");
        }
    }

    // ------------------------------------------------------------------
    // Expression scanning
    // ------------------------------------------------------------------

    /// Scan expression content until the delimiter closing the group the
    /// cursor is inside (the closer is consumed).
    fn expr_until_close(&mut self, s: &Scope, close: &str) {
        loop {
            let Some(t) = self.peek() else { return };
            if t.is_punct(close) {
                self.i += 1;
                return;
            }
            self.expr_step(s);
        }
    }

    /// Process one expression construct at the cursor: a path, a panic
    /// site, a nested delimiter group, `match`, `let`-pattern, or a single
    /// uninteresting token.
    fn expr_step(&mut self, s: &Scope) {
        let Some(t) = self.peek() else { return };
        if self.skip_attr() {
            return;
        }
        match t.kind {
            TokKind::Punct if t.text == "(" || t.text == "{" => {
                self.i += 1;
                let close = if t.text == "(" { ")" } else { "}" };
                self.expr_until_close(s, close);
            }
            TokKind::Punct if t.text == "[" => {
                // Index heuristic: `expr[..]` panics; `[1, 2]` / `&[u8]`
                // / `vec![..]` do not (the previous token tells them
                // apart).
                if self.prev_is_indexable() {
                    self.out.panics.push(PanicSite {
                        line: t.line,
                        kind: PanicKind::Index,
                    });
                }
                self.i += 1;
                self.expr_until_close(s, "]");
            }
            TokKind::Punct if t.text == "." => {
                self.i += 1;
                let Some(n) = self.peek() else { return };
                if n.kind != TokKind::Ident {
                    return; // tuple field `.0`
                }
                self.i += 1;
                if self.at_punct("::") && self.peek_at(1).is_some_and(|t| t.is_punct("<")) {
                    self.i += 1;
                    self.skip_angles(); // turbofish `.collect::<Vec<_>>()`
                }
                let kind = match n.text.as_str() {
                    "unwrap" => PanicKind::Unwrap,
                    "expect" => PanicKind::Expect,
                    _ => return,
                };
                if self.at_punct("(") {
                    self.out.panics.push(PanicSite { line: n.line, kind });
                }
                // The `(..)` argument group is scanned by the main loop.
            }
            TokKind::Ident => {
                let text = t.text.as_str();
                match text {
                    "match" => {
                        self.i += 1;
                        self.scan_match(s);
                    }
                    "if" | "while" => {
                        self.i += 1;
                        if self.at_ident("let") {
                            self.i += 1;
                            self.scan_pattern_until(s, &["="]);
                        }
                    }
                    "for" => {
                        self.i += 1;
                        self.scan_pattern_until(s, &["in"]);
                    }
                    "let" => {
                        self.i += 1;
                        let stop = self.scan_pattern_until(s, &["=", ";", ":"]);
                        if stop.as_deref() == Some(":") {
                            // Type ascription: skip to `=` or `;`.
                            while let Some(t) = self.peek() {
                                if t.is_punct("=") || t.is_punct(";") {
                                    break;
                                }
                                if t.is_punct("<") {
                                    self.skip_angles();
                                } else if t.is_punct("(") || t.is_punct("[") {
                                    self.skip_balanced();
                                } else {
                                    self.i += 1;
                                }
                            }
                        }
                    }
                    "fn" => {
                        // Nested item fn: no `Self` of its own.
                        let nested = Scope {
                            module: s.module.clone(),
                            container: None,
                        };
                        self.parse_fn(&nested);
                    }
                    _ if KEYWORDS.contains(&text) => {
                        self.i += 1;
                    }
                    "matches" if self.peek_at(1).is_some_and(|t| t.is_punct("!")) => {
                        self.i += 2;
                        self.scan_matches_macro(s);
                    }
                    _ if PANIC_MACROS.contains(&text)
                        && self.peek_at(1).is_some_and(|t| t.is_punct("!")) =>
                    {
                        self.out.panics.push(PanicSite {
                            line: t.line,
                            kind: PanicKind::Macro(text.to_owned()),
                        });
                        self.i += 2;
                    }
                    _ if self.peek_at(1).is_some_and(|t| t.is_punct("!")) => {
                        // Other macro invocation: skip the name and bang;
                        // the argument tokens scan as plain expression
                        // content.
                        self.i += 2;
                    }
                    _ => self.scan_path_expr(s),
                }
            }
            _ => {
                self.i += 1;
            }
        }
    }

    /// Whether the token before the cursor can be an index receiver.
    fn prev_is_indexable(&self) -> bool {
        let Some(p) = self.i.checked_sub(1).and_then(|j| self.toks.get(j)) else {
            return false;
        };
        match p.kind {
            TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
            TokKind::Punct => p.text == ")" || p.text == "]",
            _ => false,
        }
    }

    /// Collect an expression path starting at a non-keyword ident and
    /// record it if it has several segments.
    fn scan_path_expr(&mut self, s: &Scope) {
        let line = self.peek().map_or(0, |t| t.line);
        let mut path = Vec::new();
        while let Some(t) = self.peek() {
            if t.kind != TokKind::Ident {
                break;
            }
            path.push(t.text.clone());
            self.i += 1;
            if self.at_punct("::") {
                if self.peek_at(1).is_some_and(|t| t.is_punct("<")) {
                    self.i += 1;
                    self.skip_angles(); // turbofish
                    break;
                }
                if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.i += 1;
                    continue;
                }
            }
            break;
        }
        if path.is_empty() {
            self.i += 1;
        } else if path.len() >= 2 {
            // Any argument group is scanned by the main loop.
            self.out.expr_refs.push(s.path_ref(line, path));
        }
    }

    /// Scan a `match`: head expression, then the arm list.
    fn scan_match(&mut self, s: &Scope) {
        // Head: expression until a `{` at this level (delimiters recurse,
        // so the body brace is the first `{` the loop sees directly).
        loop {
            let Some(t) = self.peek() else { return };
            if t.is_punct("{") {
                self.i += 1;
                break;
            }
            self.expr_step(s);
        }
        // Arms.
        loop {
            while self.skip_attr() {}
            let Some(t) = self.peek() else { return };
            if t.is_punct("}") {
                self.i += 1;
                return;
            }
            if t.is_punct(",") {
                self.i += 1;
                continue;
            }
            // Pattern up to `=>` (or an `if` guard, whose condition is
            // expression content).
            let stop = self.scan_pattern_until(s, &["=>", "if"]);
            if stop.as_deref() == Some("if") {
                loop {
                    let Some(t) = self.peek() else { return };
                    if t.is_punct("=>") {
                        self.i += 1;
                        break;
                    }
                    self.expr_step(s);
                }
            }
            // Arm body: a block, or an expression up to `,` / the closing
            // `}` of the match.
            if self.at_punct("{") {
                self.i += 1;
                self.expr_until_close(s, "}");
            } else {
                loop {
                    let Some(t) = self.peek() else { return };
                    if t.is_punct(",") {
                        self.i += 1;
                        break;
                    }
                    if t.is_punct("}") {
                        break; // match's own closer; outer loop consumes
                    }
                    self.expr_step(s);
                }
            }
        }
    }

    /// Scan `matches!(expr, pattern)`: first argument as expression, the
    /// rest as pattern.
    fn scan_matches_macro(&mut self, s: &Scope) {
        let close = match self.peek().map(|t| t.text.as_str()) {
            Some("(") => ")",
            Some("[") => "]",
            Some("{") => "}",
            _ => return,
        };
        self.i += 1;
        // Scrutinee expression until the first `,` at this level.
        loop {
            let Some(t) = self.peek() else { return };
            if t.is_punct(",") {
                self.i += 1;
                break;
            }
            if t.is_punct(close) {
                self.i += 1;
                return; // malformed; tolerate
            }
            self.expr_step(s);
        }
        let stop = self.scan_pattern_until(s, &[close, "if"]);
        if stop.as_deref() == Some("if") {
            // Guard expression until the closer.
            self.expr_until_close(s, close);
        }
    }

    /// Scan pattern tokens, recording multi-segment paths as pattern
    /// references, until one of `stops` appears at delimiter depth 0
    /// (idents like `in`/`if` match identifier stops; punct stops match
    /// punctuation). The stop token is consumed; returns which stop fired.
    fn scan_pattern_until(&mut self, s: &Scope, stops: &[&str]) -> Option<String> {
        let mut depth = 0i32;
        loop {
            let t = self.peek()?;
            if depth == 0 && stops.contains(&t.text.as_str()) {
                let hit = t.text.clone();
                self.i += 1;
                return Some(hit);
            }
            match t.kind {
                TokKind::Punct if matches!(t.text.as_str(), "(" | "[" | "{") => {
                    depth += 1;
                    self.i += 1;
                }
                TokKind::Punct if matches!(t.text.as_str(), ")" | "]" | "}") => {
                    if depth == 0 {
                        return None; // end of enclosing group; not consumed
                    }
                    depth -= 1;
                    self.i += 1;
                }
                TokKind::Punct if t.text == ";" && depth == 0 => {
                    return None; // malformed pattern; tolerate
                }
                TokKind::Ident if !KEYWORDS.contains(&t.text.as_str()) => {
                    let line = t.line;
                    let mut path = vec![t.text.clone()];
                    self.i += 1;
                    while self.at_punct("::")
                        && self.peek_at(1).is_some_and(|t| t.kind == TokKind::Ident)
                    {
                        self.i += 1;
                        path.push(self.bump().map(|t| t.text.clone()).unwrap_or_default());
                    }
                    if path.len() >= 2 {
                        self.out.pattern_refs.push(s.path_ref(line, path));
                    }
                }
                _ => {
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    fn joined(refs: &[PathRef]) -> Vec<String> {
        refs.iter().map(|r| r.path.join("::")).collect()
    }

    #[test]
    fn fns_modules_and_calls() {
        let p = parse_src(
            "mod outer {\n  pub mod inner {\n    pub fn helper(x: u64) -> E { E::Made(x) }\n  }\n}\nfn top() { outer::inner::helper(3); }\n",
        );
        let refs: Vec<_> = p
            .expr_refs
            .iter()
            .map(|r| (r.path.join("::"), r.module.clone(), r.line))
            .collect();
        assert_eq!(
            refs,
            vec![
                (
                    "E::Made".to_owned(),
                    vec!["outer".to_owned(), "inner".to_owned()],
                    3
                ),
                ("outer::inner::helper".to_owned(), vec![], 6),
            ]
        );
    }

    #[test]
    fn impl_blocks_and_method_calls() {
        let p = parse_src(
            "struct Runner;\nimpl Runner {\n  pub fn go(&mut self) { self.step(); RawDram::new(); }\n}\nimpl Drop for Runner {\n  fn drop(&mut self) { Self::release(self); }\n}\n",
        );
        // A method call names no path: only the two path calls are refs,
        // each carrying its impl block's `Self` type, trait impl or not.
        let refs: Vec<_> = p
            .expr_refs
            .iter()
            .map(|r| (r.path.join("::"), r.container.as_deref(), r.line))
            .collect();
        assert_eq!(
            refs,
            vec![
                ("RawDram::new".to_owned(), Some("Runner"), 3),
                ("Self::release".to_owned(), Some("Runner"), 6),
            ]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let p = parse_src(
            "impl<M: FunctionalMemory> SecureRunner<M> {\n  fn tick(&self) { Self::Idle; }\n}\nimpl tnpu_memprot::ProtectionEngine for TreelessEngine {\n  fn scheme(&self) { Self::Treeless; }\n}\n",
        );
        let containers: Vec<_> = p.expr_refs.iter().map(|r| r.container.as_deref()).collect();
        assert_eq!(
            containers,
            vec![Some("SecureRunner"), Some("TreelessEngine")]
        );
    }

    #[test]
    fn trait_decl_default_methods_belong_to_the_trait() {
        let p = parse_src(
            "pub trait ProtectionEngine: Send {\n  fn read_block(&mut self, a: u64);\n  fn read_run(&mut self, r: Run) -> u64 { Self::BLOCK * r.len() }\n}\nfn after() { Kind::Free; }\n",
        );
        let refs: Vec<_> = p
            .expr_refs
            .iter()
            .map(|r| (r.path.join("::"), r.container.as_deref()))
            .collect();
        assert_eq!(
            refs,
            vec![
                ("Self::BLOCK".to_owned(), Some("ProtectionEngine")),
                ("Kind::Free".to_owned(), None),
            ],
            "a bodiless signature does not swallow the default method or the trait's end"
        );
    }

    #[test]
    fn use_trees_with_groups_globs_and_renames() {
        let p = parse_src(
            "use tnpu_memprot::functional::dram as raw;\nuse tnpu_core::{VersionTable, version::VersionError as VErr};\nuse tnpu_sim::*;\nmod m { use super::helper; }\n",
        );
        let find = |alias: &str| {
            p.uses
                .iter()
                .find(|u| u.alias == alias)
                .unwrap_or_else(|| panic!("no alias {alias}: {:?}", p.uses))
        };
        assert_eq!(find("raw").path, vec!["tnpu_memprot", "functional", "dram"]);
        assert_eq!(
            find("VErr").path,
            vec!["tnpu_core", "version", "VersionError"]
        );
        assert_eq!(find("VersionTable").path, vec!["tnpu_core", "VersionTable"]);
        assert_eq!(find("helper").module, vec!["m"]);
        assert_eq!(p.uses.len(), 4, "a glob binds no name: {:?}", p.uses);
    }

    #[test]
    fn enums_and_variants() {
        let p = parse_src(
            "pub enum VersionError {\n  UnknownTensor(TensorId),\n  NoSuchTile { tensor: TensorId, tile: u32 },\n  Exhausted(TensorId),\n}\nenum Simple { A, B = 3, C }\n",
        );
        let ve = &p.enums[0];
        assert_eq!(ve.name, "VersionError");
        let names: Vec<_> = ve.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["UnknownTensor", "NoSuchTile", "Exhausted"]);
        let simple = &p.enums[1];
        let names: Vec<_> = simple.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn panic_sites_unwrap_expect_macros_and_indexing() {
        let p = parse_src(
            "fn f(v: &[u8], m: &M) -> u8 {\n  let a = m.get(0).unwrap();\n  let b = m.get(1).expect(\"msg\");\n  if v.is_empty() { panic!(\"empty\"); }\n  let c = v[2];\n  let d = [1u8, 2];\n  let e = &v[..1];\n  a + b + c + d[0] + e[0]\n}\n",
        );
        let kinds: Vec<_> = p.panics.iter().map(|s| (s.line, s.kind.clone())).collect();
        assert_eq!(
            kinds,
            vec![
                (2, PanicKind::Unwrap),
                (3, PanicKind::Expect),
                (4, PanicKind::Macro("panic".to_owned())),
                (5, PanicKind::Index),
                (7, PanicKind::Index),
                (8, PanicKind::Index),
                (8, PanicKind::Index),
            ]
        );
    }

    #[test]
    fn array_literals_types_and_macros_are_not_indexing() {
        let p = parse_src(
            "fn f() {\n  let a: [u8; 4] = [0; 4];\n  let v = vec![1, 2];\n  let s: &[u8] = &a;\n  let m = Measurement { bytes: [0u8; 32] };\n  g(s, v, m);\n}\n",
        );
        assert!(
            p.panics.is_empty(),
            "no index panics expected: {:?}",
            p.panics
        );
    }

    #[test]
    fn match_arms_are_pattern_context() {
        let p = parse_src(
            "fn f(e: VersionError) -> u32 {\n  match e {\n    VersionError::Exhausted(t) => Verdict::Handled(t),\n    VersionError::NoSuchTile { tensor, .. } if tensor.0 > Limits::TILE => 1,\n    _ => Verdict::Fallback,\n  }\n}\n",
        );
        assert_eq!(
            joined(&p.pattern_refs),
            vec!["VersionError::Exhausted", "VersionError::NoSuchTile"]
        );
        // Arm bodies and guards are expression context.
        assert_eq!(
            joined(&p.expr_refs),
            vec!["Verdict::Handled", "Limits::TILE", "Verdict::Fallback"]
        );
    }

    #[test]
    fn if_let_while_let_matches_and_let_destructuring() {
        let p = parse_src(
            "fn f(r: Res) {\n  if let Err(RunError::Poisoned) = Check::run(r) { Recover::now(); }\n  while let Some(x) = iter.next() { use_it(x); }\n  let hit = matches!(Classify::of(r), RunError::Finished | RunError::Cpu(_));\n  let Wrapper(inner) = r;\n}\n",
        );
        assert_eq!(
            joined(&p.pattern_refs),
            vec!["RunError::Poisoned", "RunError::Finished", "RunError::Cpu"]
        );
        assert_eq!(
            joined(&p.expr_refs),
            vec!["Check::run", "Recover::now", "Classify::of"]
        );
    }

    #[test]
    fn unit_variant_construction_is_an_expr_ref() {
        let p = parse_src(
            "fn f() -> RunError {\n  log(RunError::Poisoned);\n  VersionError::Exhausted(t);\n  Err(SessionError::DeadContext(id))?;\n  RunError::Finished\n}\n",
        );
        // Unit, tuple and nested constructions alike.
        assert_eq!(
            joined(&p.expr_refs),
            vec![
                "RunError::Poisoned",
                "VersionError::Exhausted",
                "SessionError::DeadContext",
                "RunError::Finished"
            ]
        );
    }

    #[test]
    fn self_paths_carry_their_container() {
        let p = parse_src("impl RunError {\n  fn poisoned() -> Self { Self::Poisoned }\n}\n");
        let r = &p.expr_refs[0];
        assert_eq!(r.path, vec!["Self", "Poisoned"]);
        assert_eq!(r.container.as_deref(), Some("RunError"));
    }

    #[test]
    fn turbofish_calls_and_nested_fns() {
        let p = parse_src(
            "impl S {\n  fn f() {\n    let v = Vec::<u8>::new();\n    let n = usize::try_from(x).expect(\"fits\");\n    fn nested() { Inner::call(); }\n  }\n}\n",
        );
        let refs: Vec<_> = p
            .expr_refs
            .iter()
            .map(|r| (r.path.join("::"), r.container.as_deref()))
            .collect();
        assert_eq!(
            refs,
            vec![
                ("usize::try_from".to_owned(), Some("S")),
                ("Inner::call".to_owned(), None),
            ],
            "a nested fn has no `Self` of its own"
        );
        assert_eq!(p.panics.len(), 1, "the expect: {:?}", p.panics);
    }

    #[test]
    fn match_head_calls_are_recorded() {
        let p = parse_src(
            "fn f(t: T) -> u32 {\n  match Table::version(t) {\n    Ok(v) => v,\n    Err(e) => match Nested::of(e) { _ => 0 },\n  }\n}\n",
        );
        assert_eq!(joined(&p.expr_refs), vec!["Table::version", "Nested::of"]);
    }

    #[test]
    fn variant_refs_resolve_through_renames_and_self() {
        let p = parse_src(
            "use tnpu_core::version::VersionError as VErr;\nmod m {\n  use crate::run::RunError as R;\n  fn inside() { R::Finished; }\n}\nimpl SessionError {\n  fn f(e: VErr) { match e { VErr::Exhausted => {} } }\n  fn g() -> Self { Self::Dead }\n}\nfn h() { R::Finished; }\n",
        );
        let resolved: Vec<_> = p
            .pattern_refs
            .iter()
            .chain(&p.expr_refs)
            .map(|r| p.resolve_variant_ref(r))
            .collect();
        let pair = |e: &str, v: &str| Some((e.to_owned(), v.to_owned()));
        assert_eq!(
            resolved,
            vec![
                pair("VersionError", "Exhausted"),
                pair("RunError", "Finished"),
                pair("SessionError", "Dead"),
                // `R` is imported only inside `mod m`.
                pair("R", "Finished"),
            ]
        );
    }
}
