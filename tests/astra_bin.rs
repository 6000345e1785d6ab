//! Process-level checks of the `astra` binary.

use std::process::{Command, Stdio};

/// `astra … | head -1` closes the pipe before the report is written; the
/// binary must end quietly instead of panicking on the failed write.
#[test]
fn closed_stdout_ends_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // Close the read end before the child starts, so its first write
    // fails with a broken pipe.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_astra"))
        .args(["--topology", "R(4)@250_SW(4)@50", "--workload", "dlrm"])
        .stdin(Stdio::null())
        .stdout(writer)
        .output()
        .expect("astra runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "astra panicked: {stderr}");
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
}
