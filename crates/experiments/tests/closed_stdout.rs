//! The experiment binaries handle a reader that goes away without a
//! panic. With stdout closed (`fig01 | head -3`), a binary whose report is
//! its only output exits with status 0; one that still writes a file and
//! checks a verdict after printing carries on, and its exit status is the
//! verdict's.

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
fn fig01_exits_quietly_when_stdout_closes() {
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_fig01"), &["--jobs", "1"]));
}

#[test]
fn fig05_exits_quietly_when_stdout_closes() {
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_fig05"), &[]));
}

#[test]
fn table1_exits_quietly_when_stdout_closes() {
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_table1"), &[]));
}

#[test]
fn table3_exits_quietly_when_stdout_closes() {
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_table3"), &[]));
}

#[test]
fn ablations_exits_quietly_when_stdout_closes() {
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_ablations"), &[]));
}

/// A fresh path under the test's scratch directory for a binary's `--out`.
fn out_path(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path.to_str().expect("UTF-8 temp path").to_string()
}

fn assert_written(path: &str) {
    let text = std::fs::read_to_string(path).expect("the --out file is written");
    assert!(!text.is_empty(), "{path} is empty");
}

#[test]
fn prim_suite_still_writes_its_table_when_stdout_closes() {
    let out = out_path("closed_stdout_prim_suite.txt");
    let args = ["--backend", "dpu", "--n", "64", "--out", &out];
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_prim_suite"), &args));
    assert_written(&out);
}

#[test]
fn load_gen_still_writes_its_report_when_stdout_closes() {
    let out = out_path("closed_stdout_load_gen.json");
    let args = ["--jobs", "4", "--workers", "1", "--seconds", "5", "--out", &out];
    assert_quiet_exit(&run_with_closed_stdout(env!("CARGO_BIN_EXE_load_gen"), &args));
    assert_written(&out);
}

#[test]
fn service_chaos_still_audits_when_stdout_closes() {
    let out = out_path("closed_stdout_service_chaos.json");
    let args = ["--jobs", "6", "--workers", "1", "--kill-every", "0", "--out", &out, "--assert"];
    let output = run_with_closed_stdout(env!("CARGO_BIN_EXE_service_chaos"), &args);
    assert_quiet_exit(&output);
    assert!(String::from_utf8_lossy(&output.stderr).contains("service_chaos: 6 admitted"));
    assert_written(&out);
}
