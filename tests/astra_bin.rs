//! Process-level checks of the `astra` binary.

use std::process::{Command, Stdio};

/// `astra … | head -1` closes the pipe before the report is written, and
/// `astra sweep … | head -1` while the sweep still prints its tables; the
/// binary must end quietly instead of panicking on the failed write.
#[test]
fn closed_stdout_ends_without_a_panic() {
    let sweep_out = std::env::temp_dir().join(format!("astra-sweep-{}.json", std::process::id()));
    let sweep_out = sweep_out.to_str().expect("UTF-8 temp dir");
    for args in [
        &["--topology", "R(4)@250_SW(4)@50", "--workload", "dlrm"][..],
        &["sweep", "--quick", "--series", "table2", "--out", sweep_out],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        // Close the read end before the child starts, so its first write
        // fails with a broken pipe.
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_astra"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(writer)
            .output()
            .expect("astra runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(
            out.status.success(),
            "{args:?}: status {:?}: {stderr}",
            out.status
        );
    }
    let _ = std::fs::remove_file(sweep_out);
}
