//! Host wall-clock benchmark of the MPU simulator.
//!
//! ```text
//! perfbench --workload sweep|service|pipeline --seed N --seconds S --trace 0|1
//!           --svc-rate JOBS_PER_S
//! ```
//!
//! Run from the repository root (`BENCHMARK.json` gives the full
//! command). Every output the workload produces is checked; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. The line before it
//! records provenance. See `WORKLOADS.md` for what each workload does and
//! why it was chosen.

mod pipe;
mod report;
mod service;
mod sweep;

use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Metrics printed by an untraced run, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("warm_pass_s", "s"),
    ("cold_pass_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed by a traced run, in `BENCHMARK.json` order. A layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("host_factor", "ratio"),
    ("sweep.build_s", "s"),
    ("sweep.synth_s", "s"),
    ("sweep.opt_s", "s"),
    ("sweep.compile_s", "s"),
    ("sweep.fuse_s", "s"),
    ("sweep.exec.racer_s", "s"),
    ("sweep.exec.mimdram_s", "s"),
    ("sweep.exec.dualitycache_s", "s"),
    ("sweep.exec.pluto_s", "s"),
    ("sweep.exec.dpu_s", "s"),
    ("sweep.exec.fused_s", "s"),
    ("sweep.exec.fallback_s", "s"),
    ("sweep.load_s", "s"),
    ("sweep.readback_s", "s"),
    ("sweep.cold.traced_pass_s", "s"),
    ("sweep.cold.unaccounted_s", "s"),
    ("sweep.cold.accounted_frac", "ratio"),
    ("sweep.cold.trace_overhead_s", "s"),
    ("sweep.warm.traced_pass_s", "s"),
    ("sweep.warm.unaccounted_s", "s"),
    ("sweep.warm.accounted_frac", "ratio"),
    ("sweep.warm.trace_overhead_s", "s"),
    ("sweep.pool.first_pass_misses", "count"),
    ("sweep.pool.cold_lookups", "count"),
    ("sweep.pool.cold_misses", "count"),
    ("sweep.pool.templates", "count"),
    ("sweep.pool.warm_lookups", "count"),
    ("sweep.pool.warm_misses", "count"),
    ("sweep.tiers.fused", "count"),
    ("sweep.tiers.fallback", "count"),
    ("sweep.sim.instructions", "count"),
    ("sweep.sim.uops", "count"),
    ("sweep.sim.cycles", "count"),
    ("svc.admit_p50_us", "us"),
    ("svc.admit_p99_us", "us"),
    ("svc.lat.compute_ms", "ms"),
    ("svc.lat.slow_ms", "ms"),
    ("svc.gen_late_ms", "ms"),
    ("svc.capacity_jobs_per_s", "1/s"),
    ("svc.trace_overhead_ms", "ms"),
    ("svc.health.completed", "count"),
    ("svc.health.failed", "count"),
    ("svc.health.shed", "count"),
    ("svc.health.preemptions", "count"),
    ("svc.health.fault_retries", "count"),
    ("svc.health.worker_deaths", "count"),
    ("svc.sim.instructions", "count"),
    ("svc.sim.cycles", "count"),
    ("pipe.lower_s", "s"),
    ("pipe.run.filter_count_s", "s"),
    ("pipe.run.zip_mul_sum_s", "s"),
    ("pipe.run.map_s", "s"),
    ("pipe.run.scan_s", "s"),
    ("pipe.run.filter_select_s", "s"),
    ("pipe.unaccounted_s", "s"),
    ("pipe.trace_overhead_s", "s"),
    ("pipe.launches", "count"),
    ("pipe.sim.instructions", "count"),
    ("pipe.sim.uops", "count"),
    ("pipe.sim.cycles", "count"),
    ("pipe.sim.messages", "count"),
    ("pipe.sim.noc_bytes", "count"),
];

/// Measurement window of one run.
pub struct Budget {
    start: Instant,
    window: Duration,
}

impl Budget {
    /// Fewest repetitions of a workload's measured step, however short
    /// the window: medians need a few samples.
    const MIN_REPS: usize = 4;
    /// Hard stop for starting another repetition, far inside the
    /// 180-second limit on a whole run.
    const HARD_STOP: Duration = Duration::from_secs(120);

    /// How many `step`-long repetitions fill the window (at least
    /// `MIN_REPS`), for workloads whose repetitions must be counted up
    /// front.
    pub fn reps(&self, step: Duration) -> usize {
        ((self.window.as_secs_f64() / step.as_secs_f64()).round() as usize).max(Self::MIN_REPS)
    }

    /// Whether to start another repetition after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        let elapsed = self.start.elapsed();
        elapsed < Self::HARD_STOP && (done < Self::MIN_REPS || elapsed < self.window)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    svc_rate: f64,
}

const USAGE: &str = "usage: perfbench --workload sweep|service|pipeline --seed N --seconds S \
--trace 0|1 --svc-rate JOBS_PER_S";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut svc_rate) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--svc-rate" => svc_rate = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    let svc_rate: f64 = svc_rate.ok_or_else(|| need("--svc-rate"))?;
    if !svc_rate.is_finite() || svc_rate <= 0.0 {
        return Err("--svc-rate must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        svc_rate,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Output of `program args`, or `unknown` when it cannot run.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of the simulator's sources and lock file: identifies
/// the code under test when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("vendor"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// JSON-escapes a provenance string.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let fields = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("svc_rate_jobs_per_s", format!("{:?}", args.svc_rate)),
        ("commit", json_str(&command_output("git", &["rev-parse", "HEAD"]))),
        ("source_fnv64", json_str(&source_digest())),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu)),
        ("rustc", json_str(&command_output(&rustc, &["--version"]))),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// Puts every thread of this process on glibc's main malloc arena.
///
/// The service workload starts a fresh worker thread for every segment,
/// and glibc hands each new thread an arena of its own or an old one with
/// whatever freed memory it still holds. Which one it got moved the
/// workload's peak RSS by up to a third between runs of the same code;
/// with one arena it repeats to within 0.1%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// glibc's `M_ARENA_MAX` parameter number.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two plain integers and only changes the
    // allocator's tuning; it runs before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget { start: Instant::now(), window: Duration::from_secs(args.seconds) };
    let mut report = Report::default();
    let ran = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, &budget, args.trace, &mut report),
        "service" => service::run(args.seed, args.svc_rate, &budget, args.trace, &mut report),
        "pipeline" => pipe::run(args.seed, &budget, args.trace, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    };
    let line = ran.and_then(|()| {
        report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        report.metric("fail_frac", report.fail_frac(), "ratio");
        if args.trace {
            for &(name, unit) in PER_LAYER {
                report.default_metric(name, unit);
            }
            report.render(PER_LAYER)
        } else {
            report.render(END_TO_END)
        }
    });
    match line {
        Ok(line) => {
            for e in report.errors() {
                eprintln!("perfbench: FAILED {e}");
            }
            println!("{}", provenance(&args));
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
