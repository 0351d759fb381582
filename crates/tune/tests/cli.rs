//! `mha_tune` rejects a malformed command line with a usage line and exit
//! code 2, before it searches or writes a table.

use std::path::Path;
use std::process::Command;

#[test]
fn malformed_command_lines_exit_2_and_keep_the_shipped_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let shipped = root.join("results/tuned_thor.mtab");
    let before = std::fs::read(&shipped).expect("the shipped table exists");
    for (args, why) in [
        (&["--redcued"][..], "unexpected argument `--redcued`"),
        (&["--out"], "--out needs a value <path>"),
        (&["--out", "--reduced"], "--out needs a value <path>"),
    ] {
        // From the workspace root with no overrides, the default output
        // path is the shipped table itself.
        let out = Command::new(env!("CARGO_BIN_EXE_mha_tune"))
            .args(args)
            .current_dir(&root)
            .env_remove("MHA_RESULTS_DIR")
            .env_remove("MHA_TUNED_TABLE")
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: mha_tune [--check] [--reduced] [--out <path>]"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let after = std::fs::read(&shipped).unwrap();
        assert!(after == before, "{args:?} rewrote the shipped table");
    }
}
