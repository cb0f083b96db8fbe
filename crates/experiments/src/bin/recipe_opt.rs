//! `recipe_opt` — per-rule attribution table for the recipe optimizer.
//!
//! ```text
//! recipe_opt [--backend racer|mimdram|duality-cache|pluto|dpu|all] [--n 4096]
//!            [--seed 42]
//! ```
//!
//! Runs every kernel twice per substrate — optimizer off, then the default
//! configuration — and prints one row per pair: dynamic micro-ops issued
//! under each configuration, the saved fraction, the cycle and energy
//! deltas, and per-rule `fires/removed-uops` counters harvested from the
//! run's recipe pool (static, per synthesized recipe). A `TOTAL` row per
//! substrate gives the aggregate payoff. The same table is pinned by the
//! `recipe_opt_golden` snapshot test.

use experiments::{opt_attribution, parse_backends, render_opt_attribution};
use mastodon::print_stdout;
use pum_backend::DatapathKind;
use std::process::ExitCode;

struct Args {
    backends: Vec<DatapathKind>,
    n: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut backends = DatapathKind::ALL.to_vec();
    let mut n = 1 << 12;
    let mut seed = 42;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--backend" => backends = parse_backends(&value("--backend")?)?,
            "--n" => {
                n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: recipe_opt [--backend {}|all] [--n N] [--seed S]",
                    DatapathKind::tags("|")
                ))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(Args { backends, n, seed })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match opt_attribution(&args.backends, args.n, args.seed) {
        Ok(rows) => {
            print_stdout(&render_opt_attribution(&rows, args.n, args.seed));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("recipe_opt: {msg}");
            ExitCode::FAILURE
        }
    }
}
