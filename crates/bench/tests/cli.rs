//! A bad command line is refused before any work: exit status 2, the
//! reason and the usage on stderr, and no panic.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

fn assert_refused(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(reason), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn repro_refuses_an_unknown_experiment_before_running_any() {
    // table3 is valid and instant: it must not run ahead of the typo.
    let out = run(env!("CARGO_BIN_EXE_repro"), &["table3", "fgi9"]);
    assert_refused(&out, "unknown experiment: fgi9");
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
}

#[test]
fn repro_fig2_says_no_run_selected_when_the_filters_drop_its_run() {
    // fig2 is one all-gather run at p = 4; either filter can remove it.
    for filter in [["--nodes", "2"], ["--methods", "allreduce"]] {
        let out = run(env!("CARGO_BIN_EXE_repro"), &["fig2", "--quick", filter[0], filter[1]]);
        assert_refused(&out, "no run selected");
        assert!(out.stdout.is_empty(), "fig2 started before the check");
    }
}

#[test]
fn train_once_refuses_an_unknown_preset() {
    let out = run(env!("CARGO_BIN_EXE_train_once"), &["--preset", "fb999"]);
    assert_refused(&out, "unknown preset: fb999");
}
