//! The harness binaries stop quietly when their reader goes away: with
//! stdout closed (`fault_sweep ... | head -3`), they exit with status 0
//! and without a panic.

use std::process::{Command, Output, Stdio};

/// Runs `bin` with `args` and its stdout on a pipe whose read end was
/// closed before the spawn, so every write to stdout fails.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn the binary")
}

fn assert_quiet_exit(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}\n{stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fault_sweep_exits_quietly_when_stdout_closes() {
    let args = ["--backend", "duality-cache", "--trials", "1", "--policy", "inject"];
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_fault_sweep"), &args));
}

#[test]
fn fuzz_conformance_exits_quietly_when_stdout_closes() {
    let args = ["--seed", "1", "--iters", "1"];
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_fuzz_conformance"), &args));
}
