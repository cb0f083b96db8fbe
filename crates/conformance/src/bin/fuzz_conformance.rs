//! Open-ended conformance fuzzer.
//!
//! ```text
//! fuzz_conformance [--seed N] [--iters N] [--seconds N]
//! ```
//!
//! Runs `iters` generated cases starting at `seed` (default 500 from seed
//! 0), or keeps going until `--seconds` elapse if given. On the first
//! divergence the case is shrunk and the reproducer is printed to stderr
//! and written to `conformance-reproducer.txt`; the process exits 1.

use conformance::{check_case, generate, reproducer_text, shrink};
use mastodon::print_stdout;
use std::time::{Duration, Instant};

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

fn main() {
    let mut seed = 0u64;
    let mut iters = 500u64;
    let mut seconds: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            let v = args.next().and_then(|t| parse_u64(&t));
            v.unwrap_or_else(|| {
                eprintln!("{name} needs a numeric argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed"),
            "--iters" => iters = value("--iters"),
            "--seconds" => seconds = Some(value("--seconds")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: fuzz_conformance [--seed N] [--iters N] [--seconds N]");
                std::process::exit(2);
            }
        }
    }

    let deadline = seconds.map(|s| Instant::now() + Duration::from_secs(s));
    let mut ran = 0u64;
    loop {
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                if ran >= iters {
                    break;
                }
            }
        }
        let case_seed = seed.wrapping_add(ran);
        let case = generate(case_seed);
        if let Some(mismatch) = check_case(&case) {
            eprintln!("seed {case_seed:#x}: MISMATCH: {mismatch}");
            eprintln!("shrinking...");
            let (small, final_mismatch) = shrink(&case, check_case);
            let report =
                format!("# seed {case_seed:#x}\n{}", reproducer_text(&small, &final_mismatch));
            eprintln!("{report}");
            if let Err(e) = std::fs::write("conformance-reproducer.txt", &report) {
                eprintln!("could not write conformance-reproducer.txt: {e}");
            } else {
                eprintln!("reproducer written to conformance-reproducer.txt");
            }
            std::process::exit(1);
        }
        ran += 1;
        if ran.is_multiple_of(50) {
            eprintln!("{ran} cases OK (last seed {:#x})", case_seed);
        }
    }
    print_stdout(&format!(
        "conformance fuzzing passed: {ran} cases, seeds {seed:#x}..{:#x}\n",
        seed + ran
    ));
}
