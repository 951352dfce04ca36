//! `experiments` refuses a bad command line before doing any work: exit 2
//! with nothing on stdout.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn experiments_checks_every_target_before_any_work() {
    let experiments = env!("CARGO_BIN_EXE_experiments");
    for args in [
        &["bogus"][..],
        &["table2", "bogus"],
        &["fig14", "bogus"],
        &["--quick", "all", "bogus"],
        &["table2", "table2"],
        &["all", "all"],
    ] {
        let out = run(experiments, args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let out = run(experiments, &["table2", "hwcost"]);
    assert!(out.status.success(), "known targets run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("==== table2 ===="), "{stdout}");
    assert!(stdout.contains("==== hwcost ===="), "{stdout}");
}
