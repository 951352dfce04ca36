//! SARIF 2.1.0 output for CI code-scanning upload.
//!
//! Hand-rolled JSON (the workspace is dependency-free by policy): one run,
//! one tool driver whose `rules` array covers the full catalogue — every
//! rule and the `unused-allow` pseudo-rule — with each result carrying
//! a `ruleIndex` into it. Paths are emitted as workspace-relative URIs with
//! `uriBaseId: "%SRCROOT%"`, which is what GitHub code scanning expects for
//! a checkout-rooted run.

use crate::rules::RULES;
use crate::{Diagnostic, UNUSED_ALLOW_RULE};
use std::fmt::Write as _;

/// Escape a string for a JSON string literal (without the quotes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `(id, family label, summary)` for every rule, in stable catalogue order.
fn catalogue() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str, &'static str)> = Vec::new();
    for r in RULES {
        out.push((r.id, r.family.label(), r.summary));
    }
    out.push((
        UNUSED_ALLOW_RULE,
        "hygiene",
        "an `allow` comment that suppresses nothing is a stale justification",
    ));
    out
}

/// Render diagnostics as a SARIF 2.1.0 log. `deny` controls the result
/// level (`error` under `--deny-all`, else `warning`).
#[must_use]
pub fn render(diagnostics: &[Diagnostic], deny: bool) -> String {
    let rules = catalogue();
    let level = if deny { "error" } else { "warning" };
    let mut o = String::new();
    o.push_str("{\n  \"version\": \"2.1.0\",\n");
    o.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    o.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    o.push_str("          \"name\": \"tnpu-lint\",\n");
    o.push_str("          \"informationUri\": \"https://example.invalid/tnpu-lint\",\n");
    o.push_str("          \"rules\": [\n");
    for (i, (id, family, summary)) in rules.iter().enumerate() {
        let comma = if i + 1 < rules.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"properties\": {{\"family\": \"{}\"}}}}{}",
            esc(id),
            esc(summary),
            esc(family),
            comma
        );
    }
    o.push_str("          ]\n        }\n      },\n");
    o.push_str("      \"columnKind\": \"utf16CodeUnits\",\n");
    o.push_str("      \"results\": [\n");
    for (i, d) in diagnostics.iter().enumerate() {
        let rule_index = rules
            .iter()
            .position(|(id, _, _)| *id == d.rule)
            .expect("every diagnostic's rule is in the catalogue");
        let comma = if i + 1 < diagnostics.len() { "," } else { "" };
        let _ = writeln!(
            o,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}{}",
            esc(d.rule),
            rule_index,
            level,
            esc(&d.message),
            esc(&d.path),
            d.line.max(1),
            comma
        );
    }
    o.push_str("      ]\n    }\n  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                path: "crates/sim/src/x.rs".to_owned(),
                line: 3,
                rule: "wallclock",
                message: "uses \"Instant::now\"\twhich drifts".to_owned(),
            },
            Diagnostic {
                path: "crates/core/src/lib.rs".to_owned(),
                line: 9,
                rule: "panic-path",
                message: "unwrap in the session core".to_owned(),
            },
        ]
    }

    #[test]
    fn renders_required_sarif_shape() {
        let s = render(&sample(), true);
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"tnpu-lint\"",
            "\"ruleId\": \"wallclock\"",
            "\"ruleId\": \"panic-path\"",
            "\"level\": \"error\"",
            "\"uri\": \"crates/sim/src/x.rs\"",
            "\"uriBaseId\": \"%SRCROOT%\"",
            "\"startLine\": 3",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
        assert!(render(&sample(), false).contains("\"level\": \"warning\""));
    }

    #[test]
    fn escapes_json_metacharacters() {
        let s = render(&sample(), true);
        assert!(s.contains("uses \\\"Instant::now\\\"\\twhich drifts"));
    }

    #[test]
    fn rule_index_points_at_the_matching_rules_entry() {
        let s = render(&sample(), true);
        // Parse out the rules array order and each result's ruleIndex.
        let ids: Vec<&str> = s
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"id\": \""))
            .map(|l| {
                let rest = &l[l.find("{\"id\": \"").unwrap() + 8..];
                &rest[..rest.find('"').unwrap()]
            })
            .collect();
        for d in sample() {
            let idx = ids
                .iter()
                .position(|id| *id == d.rule)
                .expect("rule listed");
            assert!(s.contains(&format!(
                "\"ruleId\": \"{}\", \"ruleIndex\": {idx},",
                d.rule
            )));
        }
    }

    #[test]
    fn empty_results_is_valid() {
        let s = render(&[], true);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
