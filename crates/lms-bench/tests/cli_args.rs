//! Invalid `lms-tool` arguments end in a clean usage error — exit code 1
//! and a message naming the offending option — never in a panic (exit
//! code 101).

use std::process::Command;

#[test]
fn zero_parts_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_lms-tool"))
        .args(["bench-smoke", "--parts", "0"])
        .output()
        .expect("run lms-tool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--parts"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
