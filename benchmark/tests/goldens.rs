//! The benchmark's goldens and its declaration file stay in step with the
//! library and with each other.

use std::path::Path;
use tnpu_bench::{attacks, faults};
use tnpu_benchmark::report::{END_TO_END, PER_LAYER};
use tnpu_benchmark::run::RUN_SECONDS;
use tnpu_benchmark::stats::Better;
use tnpu_benchmark::workloads::{attack, fault, NAMES};

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `-- model --` table of a matrix render: its header, column line
/// and rows, up to the next table or the summary.
fn table(render: &str, model: &str) -> Vec<String> {
    let header = format!("-- {model} --");
    let mut lines = render.lines().skip_while(|l| *l != header);
    let mut out: Vec<String> = lines.next().into_iter().map(str::to_owned).collect();
    out.extend(
        lines
            .take_while(|l| !l.starts_with("-- ") && !l.starts_with("all "))
            .map(str::to_owned),
    );
    out
}

#[test]
fn attack_golden_matches_the_bench_crates_df_table() {
    let ours = table(attack::GOLDEN, "df");
    let theirs = table(
        &repo_file("../crates/bench/tests/golden/attacks_df_ncf.txt"),
        "df",
    );
    assert_eq!(
        ours.len(),
        2 + 7,
        "header, column line and seven attack rows"
    );
    assert_eq!(ours, theirs, "the two attack goldens drifted apart");
}

/// Compare `actual` with the golden at `rel`, or rewrite it when
/// `TNPU_BLESS=1` (the bench crate's convention).
fn check_golden(rel: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("TNPU_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).expect("bless golden");
        return;
    }
    assert_eq!(
        repo_file(rel),
        actual,
        "{rel} drifted from the library's render"
    );
}

/// Renders the full df matrices (about 45 s in a release build):
/// `cargo test --release -- --ignored`, with `TNPU_BLESS=1` to rewrite.
#[test]
#[ignore = "renders both full df matrices; run with --release -- --ignored"]
fn goldens_are_the_librarys_renders() {
    let (cells, _) = attacks::matrix_with_threads(1, &["df"]);
    check_golden("golden/attacks_df.txt", &attacks::render(&cells));
    let (cells, _) = faults::matrix_with_threads_at(1, &["df"], &[fault::PERIOD], fault::PASSES);
    check_golden("golden/faults_df_p101_x2.txt", &faults::render(&cells));
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let decl = repo_file("../BENCHMARK.json");
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    // f64 Display prints a whole number without a fraction: `22`.
    assert!(decl.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    for name in NAMES {
        assert!(
            decl.contains(&format!("{{\"name\": \"{name}\", \"why\": ")),
            "workload {name}"
        );
    }
    for d in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            d.name,
            d.unit,
            better(d.better),
            d.bound.relative
        );
        assert!(decl.contains(&entry), "missing {entry}");
    }
    for (name, unit, b) in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
            better(b)
        );
        assert!(decl.contains(&entry), "missing {entry}");
    }
    let entries = decl.matches("\"name\": ").count();
    assert_eq!(
        entries,
        NAMES.len() + END_TO_END.len() + PER_LAYER.len(),
        "no undeclared extras"
    );
}
