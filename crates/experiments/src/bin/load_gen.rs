//! `load_gen` — offered-load generator and latency reporter for the
//! simulation service.
//!
//! ```text
//! load_gen [--jobs N] [--tenants N] [--workers N] [--poison-frac F]
//!          [--fault-rate R] [--seconds S] [--seed N] [--out FILE]
//! ```
//!
//! Submits a seeded mixed workload as fast as admission control allows
//! (typed shedding is retried briefly — backpressure, not failure) for
//! `--seconds`, or until `--jobs` have been offered, whichever comes
//! first. Reports completion latency percentiles (p50/p99/p999 of
//! submit-to-outcome wall time), throughput, and the outcome census as a
//! `microjson` document — and proves the report round-trips through the
//! parser before printing it.

use experiments::chaos::{
    bounded_wait_all, gen_job, percentile, roomy_limits, submit_retrying, MixConfig,
};
use mastodon::write_stdout;
use microjson::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::proto::hex;
use service::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(h) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        text.parse().ok()
    }
}

const USAGE: &str = "usage: load_gen [--jobs N] [--tenants N] [--workers N] [--poison-frac F] \
[--fault-rate R] [--seconds S] [--seed N] [--out FILE]";

fn main() {
    let mut jobs = 200u64;
    let mut workers = 4usize;
    let mut seconds = 30u64;
    let mut seed = 0x10ADu64;
    let mut mix = MixConfig { deadline_frac: 0.0, ..Default::default() };
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs an argument\n{USAGE}");
                std::process::exit(2);
            })
        };
        let bad = |name: &str| -> ! {
            eprintln!("{name} needs a numeric argument\n{USAGE}");
            std::process::exit(2);
        };
        match arg.as_str() {
            "--jobs" => jobs = parse_u64(&value("--jobs")).unwrap_or_else(|| bad("--jobs")),
            "--tenants" => {
                mix.tenants =
                    parse_u64(&value("--tenants")).unwrap_or_else(|| bad("--tenants")) as usize;
            }
            "--workers" => {
                workers =
                    parse_u64(&value("--workers")).unwrap_or_else(|| bad("--workers")) as usize;
            }
            "--poison-frac" => {
                mix.poison_frac =
                    value("--poison-frac").parse().unwrap_or_else(|_| bad("--poison-frac"));
            }
            "--fault-rate" => {
                mix.fault_rate =
                    value("--fault-rate").parse().unwrap_or_else(|_| bad("--fault-rate"));
            }
            "--seconds" => {
                seconds = parse_u64(&value("--seconds")).unwrap_or_else(|| bad("--seconds"));
            }
            "--seed" => seed = parse_u64(&value("--seed")).unwrap_or_else(|| bad("--seed")),
            "--out" => out = Some(value("--out")),
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: 128,
        tenant_quota: 32,
        limits: roomy_limits(),
        seed,
        ..Default::default()
    });

    let mut rng = StdRng::seed_from_u64(seed);
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut ids = Vec::new();
    let mut offered = 0u64;
    let mut rejected: BTreeMap<&'static str, u64> = BTreeMap::new();

    while offered < jobs && started.elapsed() < budget {
        let job = gen_job(&mut rng, offered, &mix);
        offered += 1;
        match submit_retrying(&service, &job.spec, 100, Duration::from_millis(2)) {
            Ok(id) => ids.push(id),
            Err(e) => *rejected.entry(e.kind()).or_insert(0) += 1,
        }
    }
    let offered_secs = started.elapsed().as_secs_f64();

    let (outcomes, hung) = bounded_wait_all(&service, &ids, Duration::from_secs(600));
    let drained_secs = started.elapsed().as_secs_f64();
    service.shutdown();

    let mut latencies: Vec<u64> = Vec::new();
    let mut census: BTreeMap<String, u64> = BTreeMap::new();
    let mut completed = 0u64;
    for (_, outcome) in &outcomes {
        let tag = match &outcome.result {
            Ok(_) => {
                completed += 1;
                latencies.push(outcome.wall_ms);
                "ok".to_string()
            }
            Err(e) => e.kind().to_string(),
        };
        *census.entry(tag).or_insert(0) += 1;
    }
    latencies.sort_unstable();

    let report = Value::Obj(vec![
        ("jobs".into(), Value::Num(jobs as f64)),
        ("seed".into(), hex(seed)),
        ("tenants".into(), Value::Num(mix.tenants as f64)),
        ("workers".into(), Value::Num(workers as f64)),
        ("poison_frac".into(), Value::Num(mix.poison_frac)),
        ("fault_rate".into(), Value::Num(mix.fault_rate)),
        ("seconds".into(), Value::Num(seconds as f64)),
        ("offered".into(), Value::Num(offered as f64)),
        ("admitted".into(), Value::Num(ids.len() as f64)),
        (
            "rejected".into(),
            Value::Obj(
                rejected.iter().map(|(k, v)| ((*k).into(), Value::Num(*v as f64))).collect(),
            ),
        ),
        (
            "outcomes".into(),
            Value::Obj(census.iter().map(|(k, v)| (k.clone(), Value::Num(*v as f64))).collect()),
        ),
        ("hangs".into(), Value::Num(hung.len() as f64)),
        ("completed".into(), Value::Num(completed as f64)),
        ("p50_ms".into(), Value::Num(percentile(&latencies, 0.50) as f64)),
        ("p99_ms".into(), Value::Num(percentile(&latencies, 0.99) as f64)),
        ("p999_ms".into(), Value::Num(percentile(&latencies, 0.999) as f64)),
        ("offered_seconds".into(), Value::Num(offered_secs)),
        ("drained_seconds".into(), Value::Num(drained_secs)),
        (
            "throughput_jobs_per_sec".into(),
            Value::Num(if drained_secs > 0.0 { outcomes.len() as f64 / drained_secs } else { 0.0 }),
        ),
    ]);

    // Schema round-trip: the printed report must parse back to itself.
    let rendered = report.to_string();
    let reparsed = Value::parse(&rendered).expect("load_gen report must be valid microjson");
    assert_eq!(reparsed, report, "load_gen report does not round-trip");

    // A closed stdout does not end the run: the file and the hang check
    // still decide the exit status.
    write_stdout(&format!("{rendered}\n"));
    if let Some(path) = out {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }
    if !hung.is_empty() {
        eprintln!("load_gen: {} jobs never drained", hung.len());
        std::process::exit(1);
    }
}
