//! A figure binary rejects any argument it does not accept: a usage line
//! and exit code 2, before it simulates or writes anything.

use std::process::Command;

#[test]
fn unaccepted_flags_exit_2_before_any_work() {
    let results = std::env::temp_dir().join(format!("mha-bench-cli-{}", std::process::id()));
    for (exe, arg, usage) in [
        (
            env!("CARGO_BIN_EXE_fig12_inter_allgather_256"),
            "--chek",
            "usage: fig12_inter_allgather_256 [--check] [--tuned]",
        ),
        // fig11 has no tuned column, so `--tuned` is not silently ignored.
        (
            env!("CARGO_BIN_EXE_fig11_intra_allgather"),
            "--tuned",
            "usage: fig11_intra_allgather [--check]",
        ),
    ] {
        let out = Command::new(exe)
            .arg(arg)
            .env("MHA_RESULTS_DIR", &results)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument `{arg}`")),
            "{stderr}"
        );
        assert!(stderr.contains(usage), "{stderr}");
        assert!(out.stdout.is_empty(), "{usage} {arg} ran something");
        assert!(!results.exists(), "{usage} {arg} wrote results");
    }
}

#[test]
fn a_malformed_campaign_variable_exits_2_before_any_work() {
    let results = std::env::temp_dir().join(format!("mha-bench-env-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fig11_intra_allgather"))
        .env("MHA_CAMPAIGN_WORKERS", "eight")
        .env("MHA_RESULTS_DIR", &results)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("MHA_CAMPAIGN_WORKERS=`eight`"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "a malformed pool width ran something"
    );
    assert!(!results.exists(), "a malformed pool width wrote results");
}
