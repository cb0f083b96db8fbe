//! `service_chaos` — seeded chaos soak for the resilient simulation
//! service.
//!
//! ```text
//! service_chaos [--jobs N] [--workers N] [--tenants N] [--seed N]
//!               [--poison-frac F] [--fault-frac F] [--fault-rate R]
//!               [--deadline-frac F] [--slow-frac F] [--kill-every N]
//!               [--timeout-secs S] [--out FILE] [--assert]
//! ```
//!
//! Drives a mixed multi-tenant workload (straight-line compute, slow
//! boundary-crossing loops, poison panics, fault-injected runs, tight
//! deadlines, random priorities, all five backends) through one service
//! while periodically chaos-killing workers, then audits the wreckage:
//!
//! * no crashes — the process is alive to print the report;
//! * no hangs — every admitted job reaches a terminal outcome within the
//!   global timeout;
//! * every outcome is *typed* — success, `worker_panic`,
//!   `deadline_exceeded`, `fault_budget_exhausted`, ... — and consistent
//!   with what the generator built the job to be;
//! * every successful job's outputs are lane-exact against the
//!   word-level reference model;
//! * the worker pool healed — workers alive equals the configured pool
//!   despite the kills.
//!
//! `--assert` turns the audit into the exit code for CI.

use experiments::chaos::{
    bounded_wait_all, gen_job, roomy_limits, submit_retrying, GenJob, JobKind, MixConfig,
};
use mastodon::write_stdout;
use microjson::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::proto::{health_to_json, hex};
use service::{JobError, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn parse_u64(text: &str) -> Option<u64> {
    if let Some(h) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        text.parse().ok()
    }
}

const USAGE: &str = "usage: service_chaos [--jobs N] [--workers N] [--tenants N] [--seed N] \
[--poison-frac F] [--fault-frac F] [--fault-rate R] [--deadline-frac F] [--slow-frac F] \
[--kill-every N] [--timeout-secs S] [--out FILE] [--assert]";

fn main() {
    let mut jobs = 500u64;
    let mut workers = 4usize;
    let mut seed = 0xC4405u64;
    let mut kill_every = 50u64;
    let mut timeout_secs = 600u64;
    let mut mix = MixConfig::default();
    let mut out: Option<String> = None;
    let mut assert_audit = false;

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
            "--workers" => {
                workers =
                    parse_u64(&value("--workers")).unwrap_or_else(|| bad("--workers")) as usize;
            }
            "--tenants" => {
                mix.tenants =
                    parse_u64(&value("--tenants")).unwrap_or_else(|| bad("--tenants")) as usize;
            }
            "--seed" => seed = parse_u64(&value("--seed")).unwrap_or_else(|| bad("--seed")),
            "--poison-frac" => {
                mix.poison_frac =
                    value("--poison-frac").parse().unwrap_or_else(|_| bad("--poison-frac"));
            }
            "--fault-frac" => {
                mix.fault_frac =
                    value("--fault-frac").parse().unwrap_or_else(|_| bad("--fault-frac"));
            }
            "--fault-rate" => {
                mix.fault_rate =
                    value("--fault-rate").parse().unwrap_or_else(|_| bad("--fault-rate"));
            }
            "--deadline-frac" => {
                mix.deadline_frac =
                    value("--deadline-frac").parse().unwrap_or_else(|_| bad("--deadline-frac"));
            }
            "--slow-frac" => {
                mix.slow_frac = value("--slow-frac").parse().unwrap_or_else(|_| bad("--slow-frac"));
            }
            "--kill-every" => {
                kill_every =
                    parse_u64(&value("--kill-every")).unwrap_or_else(|| bad("--kill-every"));
            }
            "--timeout-secs" => {
                timeout_secs =
                    parse_u64(&value("--timeout-secs")).unwrap_or_else(|| bad("--timeout-secs"));
            }
            "--out" => out = Some(value("--out")),
            "--assert" => assert_audit = true,
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
    let mut submitted: Vec<(u64, GenJob)> = Vec::new();
    let mut rejected: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut kills = 0u64;

    for i in 0..jobs {
        if kill_every > 0 && i > 0 && i % kill_every == 0 {
            service.chaos_kill_worker();
            kills += 1;
        }
        let job = gen_job(&mut rng, i, &mix);
        match submit_retrying(&service, &job.spec, 500, Duration::from_millis(2)) {
            Ok(id) => submitted.push((id, job)),
            Err(e) => *rejected.entry(e.kind()).or_insert(0) += 1,
        }
    }

    let ids: Vec<u64> = submitted.iter().map(|(id, _)| *id).collect();
    let (outcomes, hung) = bounded_wait_all(&service, &ids, Duration::from_secs(timeout_secs));
    let wall_ms = started.elapsed().as_millis() as u64;

    // --- Audit ---
    let by_id: BTreeMap<u64, &GenJob> = submitted.iter().map(|(id, j)| (*id, j)).collect();
    let mut outcome_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut kind_violations: Vec<String> = Vec::new();
    let mut oracle_mismatches: Vec<String> = Vec::new();
    let mut preemptions = 0u64;
    let mut retries_spent = 0u64;

    for (id, outcome) in &outcomes {
        let job = by_id[id];
        preemptions += u64::from(outcome.preemptions);
        retries_spent += u64::from(outcome.attempts.saturating_sub(1));
        let tag = match &outcome.result {
            Ok(_) => "ok".to_string(),
            Err(e) => e.kind().to_string(),
        };
        *outcome_counts.entry(tag).or_insert(0) += 1;

        match (&job.kind, &outcome.result) {
            // Compute and slow jobs must succeed (worker-loss reruns are
            // allowed to consume attempts, but the job must land).
            (JobKind::Compute | JobKind::Slow, Ok(result)) => {
                let expected = job.expected.as_ref().expect("oracle ran");
                for (got, want) in result.outputs.iter().zip(expected) {
                    let lanes = got.values.len().min(want.len());
                    if got.values[..lanes] != want[..lanes] {
                        oracle_mismatches.push(format!(
                            "job {id} ({}): r{} lanes diverged from refmodel",
                            job.kind.label(),
                            got.reg
                        ));
                    }
                }
            }
            (JobKind::Compute | JobKind::Slow, Err(e)) => {
                kind_violations.push(format!("job {id} ({}): {e}", job.kind.label()));
            }
            (JobKind::Poison, Err(JobError::WorkerPanic { .. })) => {}
            (JobKind::Poison, other) => {
                kind_violations.push(format!("job {id} (poison): ended {other:?}"));
            }
            (JobKind::Faulty, Ok(result)) => {
                let expected = job.expected.as_ref().expect("oracle ran");
                for (got, want) in result.outputs.iter().zip(expected) {
                    let lanes = got.values.len().min(want.len());
                    if got.values[..lanes] != want[..lanes] {
                        oracle_mismatches.push(format!(
                            "job {id} (faulty): r{} silently corrupted vs refmodel",
                            got.reg
                        ));
                    }
                }
            }
            (JobKind::Faulty, Err(JobError::FaultBudgetExhausted { .. })) => {}
            (JobKind::Faulty, Err(e)) => {
                kind_violations.push(format!("job {id} (faulty): untyped end {e}"));
            }
            (JobKind::Deadline, Ok(_) | Err(JobError::DeadlineExceeded)) => {}
            (JobKind::Deadline, Err(e)) => {
                kind_violations.push(format!("job {id} (deadline): {e}"));
            }
        }
    }

    let health = service.health();
    service.shutdown();

    let report = Value::Obj(vec![
        ("jobs".into(), Value::Num(jobs as f64)),
        ("seed".into(), hex(seed)),
        ("workers".into(), Value::Num(workers as f64)),
        ("kills".into(), Value::Num(kills as f64)),
        ("admitted".into(), Value::Num(submitted.len() as f64)),
        (
            "rejected".into(),
            Value::Obj(
                rejected.iter().map(|(k, v)| ((*k).into(), Value::Num(*v as f64))).collect(),
            ),
        ),
        (
            "outcomes".into(),
            Value::Obj(
                outcome_counts.iter().map(|(k, v)| (k.clone(), Value::Num(*v as f64))).collect(),
            ),
        ),
        ("hangs".into(), Value::Num(hung.len() as f64)),
        ("oracle_mismatches".into(), Value::Num(oracle_mismatches.len() as f64)),
        ("kind_violations".into(), Value::Num(kind_violations.len() as f64)),
        ("preemptions".into(), Value::Num(preemptions as f64)),
        ("retries_spent".into(), Value::Num(retries_spent as f64)),
        ("wall_ms".into(), Value::Num(wall_ms as f64)),
        ("health".into(), health_to_json(&health)),
    ]);
    let rendered = report.to_string();
    // A closed stdout does not end the run: the file and the audit still
    // decide the exit status.
    write_stdout(&format!("{rendered}\n"));
    if let Some(path) = out {
        std::fs::write(&path, &rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
    }

    let mut failures: Vec<String> = Vec::new();
    if !hung.is_empty() {
        failures.push(format!("{} jobs never reached a terminal outcome: {hung:?}", hung.len()));
    }
    if outcomes.len() + hung.len() != submitted.len() {
        failures.push("outcome accounting does not add up".into());
    }
    failures.extend(oracle_mismatches.iter().take(5).cloned());
    failures.extend(kind_violations.iter().take(5).cloned());
    if health.workers_alive != workers {
        failures.push(format!(
            "worker pool never healed: {} alive of {workers} (deaths {})",
            health.workers_alive, health.worker_deaths
        ));
    }
    if kills > 0 && health.worker_deaths != kills {
        failures.push(format!(
            "chaos kills unaccounted: requested {kills}, observed {}",
            health.worker_deaths
        ));
    }

    for f in &failures {
        eprintln!("AUDIT FAIL: {f}");
    }
    if assert_audit && !failures.is_empty() {
        std::process::exit(1);
    }
    eprintln!(
        "service_chaos: {} admitted, {} outcomes, {} kills survived in {:.1}s",
        submitted.len(),
        outcomes.len(),
        kills,
        wall_ms as f64 / 1000.0
    );
}
