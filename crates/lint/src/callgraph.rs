//! Call-graph construction and the three semantic rule families.
//!
//! Built on [`Workspace`]: every function is a node, every call site an
//! edge. Two edge classes matter (see `symbols.rs`): *confident* edges
//! (path-qualified calls that named their target) and *name-matched* edges
//! (`.m()` method calls resolved to every method named `m`). The rules use
//! them asymmetrically:
//!
//! * **engine-bypass** — reverse reachability from the raw-DRAM sinks.
//!   Entry into the sink set requires a *confident* edge: the protection
//!   engines' own `read_block`/`write_block` methods share their names with
//!   `RawDram`'s, so a name-matched `.read_block()` edge must never count
//!   as touching raw DRAM (it would taint every engine caller). Once a
//!   function is tainted, taint propagates through either edge class, but
//!   never *through* a protection-engine method (engines are sanctioned to
//!   reach DRAM). A finding is reported at the call site where a function
//!   outside `crates/memprot` first crosses into the tainted set.
//! * **panic-path** — forward reachability from the public API roots
//!   (`pub` methods of the [`API_TYPES`] — the functional `Session` and
//!   the context-lifecycle `SecureNpuSession` — and `pub` fns in `serving`
//!   modules) over both edge classes (an over-approximation that errs
//!   towards auditing more), flagging every panic-capable site in reached
//!   non-test code.
//! * **error-variant-consumption** — no reachability at all: workspace-wide
//!   evidence that each audited error variant is both constructed
//!   (expression position) and matched (pattern position, outside the
//!   enum's own impl blocks — `Display`/`From` impls don't count as
//!   handling).

use crate::parser::PathRef;
use crate::rules::AUDITED_ERROR_ENUMS;
use crate::symbols::{FnId, Workspace};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One semantic finding, before scope/allow filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemFinding {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-indexed line.
    pub line: u32,
    /// Rule id.
    pub rule: &'static str,
    /// Message (deterministic: analysis order is sorted and single-pass).
    pub message: String,
}

/// Run all semantic rules over the workspace.
#[must_use]
pub fn analyze(ws: &Workspace) -> Vec<SemFinding> {
    let graph = Graph::build(ws);
    let mut out = engine_bypass(ws, &graph);
    out.extend(panic_path(ws, &graph));
    out.extend(variant_consumption(ws));
    out
}

/// Resolved call edges, computed once per analysis.
struct Graph {
    /// Per caller: `(callee, call-site line, confident)`.
    edges: Vec<Vec<(FnId, u32, bool)>>,
}

impl Graph {
    fn build(ws: &Workspace) -> Self {
        let edges = ws
            .fns
            .iter()
            .map(|f| {
                let mut out = Vec::new();
                for call in &f.item.calls {
                    let (ids, confident) = ws.resolve_call(f, call);
                    for id in ids {
                        out.push((id, call.line, confident));
                    }
                }
                out
            })
            .collect();
        Graph { edges }
    }
}

/// The traits whose implementors are sanctioned to touch raw DRAM.
const ENGINE_TRAITS: &[&str] = &["ProtectionEngine", "FunctionalMemory"];

/// `engine-bypass`: reverse reachability from `functional::dram`.
fn engine_bypass(ws: &Workspace, graph: &Graph) -> Vec<SemFinding> {
    // Types sanctioned to reach raw DRAM: implementors of the protection
    // traits, plus the traits themselves (default method bodies).
    let mut engine_types: BTreeSet<&str> = ENGINE_TRAITS.iter().copied().collect();
    for (ty, traits) in &ws.trait_impls {
        if ENGINE_TRAITS.iter().any(|t| traits.contains(*t)) {
            engine_types.insert(ty);
        }
    }
    let in_memprot = |file: usize| ws.files[file].path.starts_with("crates/memprot");
    let is_sink = |id: FnId| {
        let f = &ws.fns[id];
        in_memprot(f.file)
            && f.fq_module
                .ends_with(&["functional".to_owned(), "dram".to_owned()])
    };
    let is_barrier = |id: FnId| {
        ws.fns[id]
            .item
            .container
            .as_ref()
            .is_some_and(|c| engine_types.contains(c.type_name.as_str()))
    };

    // Fixpoint taint: `next_hop[f]` records the tainting edge.
    let n = ws.fns.len();
    let mut next_hop: Vec<Option<(FnId, u32)>> = vec![None; n];
    loop {
        let mut changed = false;
        for caller in 0..n {
            if next_hop[caller].is_some() || is_barrier(caller) || is_sink(caller) {
                continue;
            }
            for &(callee, line, confident) in &graph.edges[caller] {
                let taints = if is_sink(callee) {
                    // Entry into the sink set needs a confident edge: the
                    // engines' methods share names with RawDram's.
                    confident
                } else {
                    next_hop[callee].is_some() && !is_barrier(callee)
                };
                if taints {
                    next_hop[caller] = Some((callee, line));
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Report the crossing points: a tainted fn outside memprot whose
    // tainting callee is the sink itself or lives inside memprot.
    let mut out = Vec::new();
    for caller in 0..n {
        let Some((callee, line)) = next_hop[caller] else {
            continue;
        };
        let f = &ws.fns[caller];
        if in_memprot(f.file) || crate::in_test_dir(&ws.files[f.file].path) {
            continue;
        }
        if ws.files[f.file].in_test_region(f.item.line) {
            continue;
        }
        if !is_sink(callee) && !in_memprot(ws.fns[callee].file) {
            continue; // an outer hop; the crossing fn itself is reported
        }
        // Witness chain down to the sink.
        let mut chain = vec![f.display()];
        let mut cur = callee;
        loop {
            chain.push(ws.fns[cur].display());
            match next_hop[cur] {
                Some((next, _)) if !is_sink(cur) => cur = next,
                _ => break,
            }
        }
        out.push(SemFinding {
            file: f.file,
            line,
            rule: "engine-bypass",
            message: format!(
                "call chain reaches raw DRAM without traversing a protection engine: \
                 `{}`; route the access through a ProtectionEngine/FunctionalMemory \
                 method, or keep physical-attack modelling inside #[cfg(test)]",
                chain.join("` -> `")
            ),
        });
    }
    out
}

/// Types whose `pub` methods form the session-facing API surface: the
/// functional session (`SecureRunner` and `SteppedSession` are aliases of
/// it, so their methods are declared on `Session`) and the secure-context
/// lifecycle. Every entry must name a struct the workspace declares — a
/// root that matches nothing silently audits nothing.
pub const API_TYPES: &[&str] = &["Session", "SecureNpuSession"];

/// `panic-path`: forward reachability from the public API surface.
fn panic_path(ws: &Workspace, graph: &Graph) -> Vec<SemFinding> {
    let mut roots: Vec<FnId> = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !f.item.is_pub
            || crate::in_test_dir(&ws.files[f.file].path)
            || ws.files[f.file].in_test_region(f.item.line)
        {
            continue;
        }
        let api_type = f
            .item
            .container
            .as_ref()
            .is_some_and(|c| API_TYPES.contains(&c.type_name.as_str()));
        let serving = f.fq_module.iter().any(|m| m == "serving");
        if api_type || serving {
            roots.push(id);
        }
    }
    roots.sort_unstable();

    // BFS with predecessor links for witness chains.
    let mut pred: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &r in &roots {
        if let Entry::Vacant(slot) = pred.entry(r) {
            slot.insert(None);
            queue.push_back(r);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &(callee, _, _) in &graph.edges[cur] {
            if let Entry::Vacant(slot) = pred.entry(callee) {
                slot.insert(Some(cur));
                queue.push_back(callee);
            }
        }
    }

    let mut out = Vec::new();
    for &id in pred.keys() {
        let f = &ws.fns[id];
        if crate::in_test_dir(&ws.files[f.file].path) {
            continue;
        }
        if f.item.panics.is_empty() {
            continue;
        }
        // Witness chain from the root down to this fn.
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(ws.fns[c].display());
            cur = pred.get(&c).copied().flatten();
        }
        chain.reverse();
        let shown = if chain.len() > 4 {
            format!(
                "`{}` -> `{}` -> ... -> `{}`",
                chain[0],
                chain[1],
                chain[chain.len() - 1]
            )
        } else {
            format!("`{}`", chain.join("` -> `"))
        };
        for p in &f.item.panics {
            if ws.files[f.file].in_test_region(p.line) {
                continue;
            }
            out.push(SemFinding {
                file: f.file,
                line: p.line,
                rule: "panic-path",
                message: format!(
                    "{} is reachable from the public API ({shown}); return a typed \
                     error instead, or justify the invariant with an allow comment",
                    p.kind.label()
                ),
            });
        }
    }
    out
}

/// `error-variant-consumption`: every audited variant must be constructed
/// and matched in non-test code.
fn variant_consumption(ws: &Workspace) -> Vec<SemFinding> {
    let mut constructed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut consumed: BTreeSet<(String, String)> = BTreeSet::new();

    let record = |file: usize, r: &PathRef, set: &mut BTreeSet<(String, String)>| {
        if crate::in_test_dir(&ws.files[file].path) || ws.files[file].in_test_region(r.line) {
            return;
        }
        if let Some((enum_name, variant)) = ws.resolve_variant_ref(file, r) {
            set.insert((enum_name, variant));
        }
    };

    for (fi, entry) in ws.files.iter().enumerate() {
        for r in &entry.parsed.expr_refs {
            record(fi, r, &mut constructed);
        }
        for r in &entry.parsed.pattern_refs {
            // An enum's own impl blocks (Display, From) match every
            // variant by construction; handling means a consumer outside
            // the enum itself.
            if r.container.is_some()
                && ws
                    .resolve_variant_ref(fi, r)
                    .is_some_and(|(e, _)| r.container.as_deref() == Some(e.as_str()))
            {
                continue;
            }
            record(fi, r, &mut consumed);
        }
    }
    // Tuple/struct-variant constructions surface as path calls.
    for f in &ws.fns {
        for call in &f.item.calls {
            if call.method || call.path.len() < 2 {
                continue;
            }
            let r = PathRef {
                line: call.line,
                path: call.path.clone(),
                module: f.item.module.clone(),
                container: f.item.container.as_ref().map(|c| c.type_name.clone()),
            };
            record(f.file, &r, &mut constructed);
        }
    }

    let mut out = Vec::new();
    for def in &ws.enums {
        if !AUDITED_ERROR_ENUMS.contains(&def.item.name.as_str()) {
            continue;
        }
        if crate::in_test_dir(&ws.files[def.file].path) {
            continue;
        }
        for (variant, line) in &def.item.variants {
            let key = (def.item.name.clone(), variant.clone());
            if !constructed.contains(&key) {
                out.push(SemFinding {
                    file: def.file,
                    line: *line,
                    rule: "error-variant-consumption",
                    message: format!(
                        "variant `{}::{variant}` is never constructed in non-test code; \
                         remove it or wire it into the error path",
                        def.item.name
                    ),
                });
            } else if !consumed.contains(&key) {
                out.push(SemFinding {
                    file: def.file,
                    line: *line,
                    rule: "error-variant-consumption",
                    message: format!(
                        "variant `{}::{variant}` is constructed but never matched/handled \
                         in non-test code outside its own impls; add a consumer (match arm, \
                         `if let`, or `matches!`) or remove the construction",
                        def.item.name
                    ),
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
    use crate::parser::parse;
    use crate::symbols::FileEntry;

    fn entry(path: &str, src: &str) -> FileEntry {
        let lexed = lex(src);
        FileEntry {
            path: path.to_owned(),
            parsed: parse(&lexed),
            test_regions: lexed.test_regions,
        }
    }

    const DRAM: &str = "pub struct RawDram;\nimpl RawDram {\n  pub fn new() -> Self { RawDram }\n  pub fn write_block(&mut self, a: u64) {}\n  pub fn read_block(&self, a: u64) {}\n}\n";

    const ENGINE: &str = "use crate::functional::dram::RawDram;\npub struct TreelessMemory { d: RawDram }\nimpl FunctionalMemory for TreelessMemory {\n  fn read_block(&mut self, a: u64) { self.d.read_block(a); verify(a); }\n}\nimpl TreelessMemory {\n  pub fn new() -> Self { TreelessMemory { d: RawDram::new() } }\n}\nfn verify(a: u64) {}\n";

    fn memprot_files() -> Vec<FileEntry> {
        vec![
            entry("crates/memprot/src/functional/dram.rs", DRAM),
            entry("crates/memprot/src/functional/mod.rs", ENGINE),
        ]
    }

    fn findings_for(rule: &str, files: Vec<FileEntry>) -> Vec<(String, u32, String)> {
        let ws = Workspace::build(files);
        analyze(&ws)
            .into_iter()
            .filter(|f| f.rule == rule)
            .map(|f| (ws.files[f.file].path.clone(), f.line, f.message))
            .collect()
    }

    #[test]
    fn bypass_through_a_helper_chain_is_caught() {
        // A token scan sees no `RawDram` in bad.rs's entry fn — the access
        // is laundered through two helpers. The reachability rule still
        // catches it.
        let mut files = memprot_files();
        files.push(entry(
            "crates/sim/src/bad.rs",
            "use tnpu_memprot::functional::dram::RawDram;\npub fn attack_entry() { helper_one(); }\nfn helper_one() { helper_two(); }\nfn helper_two() { let mut d = RawDram::new(); d.write_block(0); }\n",
        ));
        let found = findings_for("engine-bypass", files);
        assert_eq!(found.len(), 1, "one crossing point: {found:?}");
        let (path, line, msg) = &found[0];
        assert_eq!(path, "crates/sim/src/bad.rs");
        assert_eq!(*line, 4, "reported at the crossing call site");
        assert!(msg.contains("helper_two"), "witness chain: {msg}");
        assert!(msg.contains("RawDram::new"), "witness chain: {msg}");
    }

    #[test]
    fn engine_users_are_not_tainted_by_method_name_collisions() {
        // `.read_block()` on a TreelessMemory shares its name with
        // RawDram::read_block; the name-matched edge must not taint.
        let mut files = memprot_files();
        files.push(entry(
            "crates/sim/src/good.rs",
            "use tnpu_memprot::functional::TreelessMemory;\npub fn run() { let mut m = TreelessMemory::new(); m.read_block(0); }\n",
        ));
        let found = findings_for("engine-bypass", files);
        assert!(found.is_empty(), "engines are barriers: {found:?}");
    }

    #[test]
    fn memprot_internals_may_touch_dram() {
        let found = findings_for("engine-bypass", memprot_files());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn panic_behind_two_calls_is_reachable() {
        let files = vec![entry(
            "crates/core/src/session.rs",
            "pub struct Session;\nimpl Session {\n  pub fn attest(&self) { step_one(); }\n}\nfn step_one() { step_two(); }\nfn step_two(m: &M) { m.state.unwrap(); }\n",
        )];
        let found = findings_for("panic-path", files);
        assert_eq!(found.len(), 1, "{found:?}");
        let (_, line, msg) = &found[0];
        assert_eq!(*line, 6);
        assert!(msg.contains("Session::attest"), "root in chain: {msg}");
        assert!(msg.contains("unwrap"), "{msg}");
    }

    #[test]
    fn unreachable_and_nonpub_panics_are_quiet() {
        let files = vec![entry(
            "crates/core/src/session.rs",
            "pub struct Session;\nimpl Session {\n  fn private_helper(&self) { never_called_from_api(); }\n  pub fn ok(&self) -> u32 { 1 }\n}\nfn never_called_from_api() { panic!(\"x\"); }\nfn orphan() { data[0]; }\n",
        )];
        let found = findings_for("panic-path", files);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn serving_fns_are_roots() {
        let files = vec![entry(
            "crates/bench/src/serving.rs",
            "pub fn dispatch(q: &Q) { q.slots.unwrap(); }\nfn internal() {}\n",
        )];
        let found = findings_for("panic-path", files);
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn constructed_but_unmatched_variant_is_flagged() {
        let files = vec![
            entry(
                "crates/core/src/version.rs",
                "pub enum VersionError {\n  Exhausted(u32),\n  Stale(u64),\n}\nimpl std::fmt::Display for VersionError {\n  fn fmt(&self, f: &mut F) -> R { match self { VersionError::Exhausted(t) => w(f), VersionError::Stale(s) => w(f) } }\n}\npub fn bump() -> Result<(), VersionError> { Err(VersionError::Exhausted(3)) }\npub fn stale() -> VersionError { VersionError::Stale(0) }\n",
            ),
            entry(
                "crates/sim/src/recover.rs",
                "pub fn recover(e: VersionError) {\n  if let VersionError::Stale(s) = e { retry(s); }\n}\n",
            ),
        ];
        let found = findings_for("error-variant-consumption", files);
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
        let files = vec![entry(
            "crates/core/src/run.rs",
            "pub enum RunError { Finished, Poisoned }\npub fn f() -> RunError { RunError::Poisoned }\npub fn g(e: &RunError) -> bool { matches!(e, RunError::Poisoned | RunError::Finished) }\n",
        )];
        let found = findings_for("error-variant-consumption", files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].2.contains("Finished") && found[0].2.contains("never constructed"));
    }

    #[test]
    fn fully_consumed_enums_are_quiet() {
        let files = vec![entry(
            "crates/core/src/run.rs",
            "pub enum RunError { Finished, Poisoned }\npub fn f(stop: bool) -> RunError { if stop { RunError::Finished } else { RunError::Poisoned } }\npub fn g(e: &RunError) -> u32 { match e { RunError::Finished => 0, RunError::Poisoned => 1 } }\n",
        )];
        let found = findings_for("error-variant-consumption", files);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn test_code_evidence_does_not_count() {
        let files = vec![entry(
            "crates/core/src/run.rs",
            "pub enum RunError { Finished }\npub fn f() -> RunError { RunError::Finished }\n#[cfg(test)]\nmod tests {\n  fn t(e: RunError) { match e { RunError::Finished => {} } }\n}\n",
        )];
        let found = findings_for("error-variant-consumption", files);
        assert_eq!(
            found.len(),
            1,
            "cfg(test) match is not a consumer: {found:?}"
        );
    }
}
