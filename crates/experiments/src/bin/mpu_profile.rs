//! `mpu_profile` — trace one kernel and emit its cycle/energy attribution
//! profile plus a Perfetto-loadable Chrome trace.
//!
//! ```text
//! mpu_profile --kernel vecadd [--backend racer|mimdram|duality-cache|pluto|dpu]
//!             [--mode mpu|baseline] [--n 4096] [--seed 42]
//!             [--out trace.json]
//! ```
//!
//! The attribution profile (program line → instruction → micro-op class,
//! with exact cycle/energy sums) prints to stdout; the Chrome trace is
//! written to `--out` (default `mpu_profile.json`) and loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use experiments::profile_kernel;
use mastodon::print_stdout;
use pum_backend::DatapathKind;
use std::process::ExitCode;

struct Args {
    kernel: String,
    backend: DatapathKind,
    baseline: bool,
    n: u64,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kernel = None;
    let mut backend = DatapathKind::Racer;
    let mut baseline = false;
    let mut n = 1 << 12;
    let mut seed = 42;
    let mut out = String::from("mpu_profile.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--kernel" => kernel = Some(value("--kernel")?),
            "--backend" => {
                let name = value("--backend")?;
                backend = DatapathKind::parse(&name).ok_or_else(|| {
                    format!("unknown backend {name:?}; expected {}", DatapathKind::tags("|"))
                })?;
            }
            "--mode" => {
                baseline = match value("--mode")?.as_str() {
                    "mpu" => false,
                    "baseline" => true,
                    other => {
                        return Err(format!("unknown mode {other:?}; expected mpu or baseline"))
                    }
                }
            }
            "--n" => {
                n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--seed" => {
                seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => out = value("--out")?,
            "--help" | "-h" => {
                return Err(format!(
                    "usage: mpu_profile --kernel <name> [--backend {}] [--mode mpu|baseline] \
                     [--n N] [--seed S] [--out trace.json]",
                    DatapathKind::tags("|")
                ))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let kernel = kernel.ok_or("missing required --kernel <name> (try --help)")?;
    Ok(Args { kernel, backend, baseline, n, seed, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let report = match profile_kernel(&args.kernel, args.backend, args.baseline, args.n, args.seed)
    {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("mpu_profile: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // The trace is written before anything is printed, so a reader that
    // stops early (`mpu_profile ... | head`) still gets the file.
    if let Err(e) = std::fs::write(&args.out, &report.chrome_json) {
        eprintln!("mpu_profile: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    print_stdout(&format!(
        "# {} on {} (n={}, seed={}), verified={}\n{}\nwrote Chrome trace to {} — load it in \
         chrome://tracing or https://ui.perfetto.dev\n",
        args.kernel,
        report.run.label,
        args.n,
        args.seed,
        report.run.verified,
        report.profile_text,
        args.out
    ));
    ExitCode::SUCCESS
}
