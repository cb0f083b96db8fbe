//! Fault-coverage sweep driver.
//!
//! ```text
//! fault_sweep [--seed N] [--rate R] [--policy inject|dmr|tmr|all]
//!             [--trials N] [--backend racer|mimdram|duality-cache|pluto|dpu|all]
//!             [--out FILE] [--assert]
//! ```
//!
//! Runs generated cases under seeded fault injection for each selected
//! policy and prints detection / correction / SDC rates against the
//! fault-free reference model, plus the permanent-fault remap check.
//! `--assert` turns the acceptance thresholds into the exit code:
//! inject-only must show nonzero landed faults and nonzero silent
//! corruption, DMR must detect at least 99% of affected trials with zero
//! SDC, TMR must have zero SDC, and remapping must reproduce the
//! reference result — anything else exits 1.

use conformance::{remap_recovers, render_report, run_sweep, PolicyKind, SweepConfig};
use mastodon::write_stdout;
use pum_backend::DatapathKind;

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() {
    let mut seed = 0x5EEDu64;
    let mut rate = 1e-4f64;
    let mut trials = 16u64;
    let mut policies = PolicyKind::ALL.to_vec();
    let mut backends = vec![DatapathKind::Racer];
    let mut out: Option<String> = None;
    let mut assert_thresholds = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => {
                seed = parse_u64(&value("--seed")).unwrap_or_else(|| {
                    eprintln!("--seed needs a numeric argument");
                    std::process::exit(2);
                })
            }
            "--trials" => {
                trials = parse_u64(&value("--trials")).unwrap_or_else(|| {
                    eprintln!("--trials needs a numeric argument");
                    std::process::exit(2);
                })
            }
            "--rate" => {
                rate = value("--rate").parse().unwrap_or_else(|_| {
                    eprintln!("--rate needs a float argument");
                    std::process::exit(2);
                })
            }
            "--policy" => {
                policies = match value("--policy").as_str() {
                    "inject" => vec![PolicyKind::Inject],
                    "dmr" => vec![PolicyKind::Dmr],
                    "tmr" => vec![PolicyKind::Tmr],
                    "all" => PolicyKind::ALL.to_vec(),
                    other => {
                        eprintln!("unknown policy `{other}` (inject|dmr|tmr|all)");
                        std::process::exit(2);
                    }
                }
            }
            "--backend" => {
                backends = match value("--backend").as_str() {
                    "all" => DatapathKind::ALL.to_vec(),
                    name => match DatapathKind::parse(name) {
                        Some(kind) => vec![kind],
                        None => {
                            eprintln!("unknown backend `{name}` ({}|all)", DatapathKind::tags("|"));
                            std::process::exit(2);
                        }
                    },
                }
            }
            "--out" => out = Some(value("--out")),
            "--assert" => assert_thresholds = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: fault_sweep [--seed N] [--rate R] [--policy inject|dmr|tmr|all] \
                     [--trials N] [--backend {}|all] [--out FILE] [--assert]",
                    DatapathKind::tags("|")
                );
                std::process::exit(2);
            }
        }
    }

    let mut report_text = String::new();
    let mut failures: Vec<String> = Vec::new();

    for &backend in &backends {
        for &policy in &policies {
            let cfg = SweepConfig { backend, seed, rate, trials, policy };
            let report = run_sweep(&cfg);
            let block = render_report(&cfg, &report);
            write_stdout(&block);
            report_text.push_str(&block);

            match policy {
                PolicyKind::Inject => {
                    if report.faulty_trials == 0 {
                        failures.push(format!("{backend:?}/inject: no faults landed in any trial"));
                    }
                    if report.sdc_trials == 0 {
                        failures.push(format!(
                            "{backend:?}/inject: expected nonzero silent corruption \
                             (faults are not observable)"
                        ));
                    }
                }
                PolicyKind::Dmr => {
                    if report.detection_rate() < 0.99 {
                        failures.push(format!(
                            "{backend:?}/dmr: detection rate {:.4} < 0.99",
                            report.detection_rate()
                        ));
                    }
                    if report.sdc_trials != 0 {
                        failures.push(format!(
                            "{backend:?}/dmr: {} SDC trials (must be 0)",
                            report.sdc_trials
                        ));
                    }
                }
                PolicyKind::Tmr => {
                    if report.sdc_trials != 0 {
                        failures.push(format!(
                            "{backend:?}/tmr: {} SDC trials (must be 0)",
                            report.sdc_trials
                        ));
                    }
                }
            }
        }

        let remap_line = match remap_recovers(backend, seed | 1) {
            Ok(()) => format!("remap backend={backend:?}: recovered (reference-exact)\n"),
            Err(e) => {
                failures.push(format!("{backend:?}/remap: {e}"));
                format!("remap backend={backend:?}: FAILED: {e}\n")
            }
        };
        write_stdout(&remap_line);
        report_text.push_str(&remap_line);
    }

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &report_text) {
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("report written to {path}");
    }

    if assert_thresholds && !failures.is_empty() {
        for f in &failures {
            eprintln!("ASSERTION FAILED: {f}");
        }
        std::process::exit(1);
    }
}
