//! The CLI rejects every malformed command line with a usage message and
//! a non-zero exit, before running any case.

use std::process::Command;

fn rejected(args: &[&str], why: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mha-conformance"))
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: mha-conformance <"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn malformed_command_lines_exit_with_usage() {
    rejected(&[], "no oracle named");
    rejected(&["differentia1"], "unknown oracle `differentia1`");
    rejected(&["crash", "--cases", "1k"], "got `1k`");
    rejected(&["crash", "--cases", "-3"], "got `-3`");
    rejected(&["crash", "--cases"], "--cases needs a positive integer");
    rejected(&["fuzz", "--cases", "0"], "--cases must be at least 1");
    rejected(&["faults", "--seed", "7"], "unexpected argument `--seed`");
    rejected(&["faults", "crash"], "unexpected argument `crash`");
}

#[test]
fn waterfill_accepts_only_its_pinned_count() {
    rejected(
        &["waterfill", "--cases", "100"],
        "exactly its 120 pinned cases",
    );
    rejected(
        &["waterfill", "--cases", "121"],
        "exactly its 120 pinned cases",
    );
}
