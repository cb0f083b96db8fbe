//! `prim_suite` — per-substrate cycle/energy table for the PrIM workload
//! suite (histogram, SpMV, gather/scatter, select, hash-join,
//! prefix-scan).
//!
//! ```text
//! prim_suite [--backend racer|mimdram|duality-cache|pluto|dpu|all]
//!            [--n 4096] [--seed 42] [--assert] [--out PATH]
//! ```
//!
//! Every run lane-verifies against the kernel's golden model inside the
//! workloads harness. `--assert` compares the rendered table (default
//! parameters only) against the pinned `golden/prim_suite.txt` and fails
//! on drift — the CI table check. `--out` additionally writes the table
//! to a file (the report artifact CI uploads on failure).

use experiments::{parse_backends, prim_suite, render_prim_suite};
use mastodon::write_stdout;
use pum_backend::DatapathKind;
use std::process::ExitCode;

/// Default problem size, matching the golden snapshot.
const DEFAULT_N: u64 = 1 << 12;
/// Default seed, matching the golden snapshot.
const DEFAULT_SEED: u64 = 42;

struct Args {
    backends: Vec<DatapathKind>,
    n: u64,
    seed: u64,
    assert: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        backends: DatapathKind::ALL.to_vec(),
        n: DEFAULT_N,
        seed: DEFAULT_SEED,
        assert: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--backend" => parsed.backends = parse_backends(&value("--backend")?)?,
            "--n" => parsed.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--assert" => parsed.assert = true,
            "--out" => parsed.out = Some(value("--out")?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: prim_suite [--backend {}|all] [--n N] [--seed S] [--assert] \
                     [--out PATH]",
                    DatapathKind::tags("|")
                ))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let rows = match prim_suite(&args.backends, args.n, args.seed) {
        Ok(rows) => rows,
        Err(msg) => {
            eprintln!("prim_suite: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let table = render_prim_suite(&rows, args.n, args.seed);
    // A closed stdout does not end the run: the file and the golden check
    // still decide the exit status.
    write_stdout(&table);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &table) {
            eprintln!("prim_suite: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if args.assert {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/prim_suite.txt");
        let want = match std::fs::read_to_string(golden) {
            Ok(want) => want,
            Err(e) => {
                eprintln!(
                    "prim_suite: missing golden table {golden}: {e} \
                     (bless with MPU_BLESS=1 cargo test -p experiments prim_suite)"
                );
                return ExitCode::FAILURE;
            }
        };
        if table != want {
            eprintln!(
                "prim_suite: table drifted from {golden}; if intentional, re-bless with \
                 MPU_BLESS=1 cargo test -p experiments prim_suite"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("prim_suite: table matches the golden snapshot");
    }
    ExitCode::SUCCESS
}
