//! `service`: an in-process [`Service`] with one worker thread, driven by
//! this thread as its only client.
//!
//! The jobs are a seeded `experiments::chaos` mix over 8 tenants, 5
//! substrates and 3 priorities: 90% straight-line compute jobs, 10% slow
//! loop jobs, and no poison, fault or deadline jobs (those trigger
//! timing-dependent shedding; they belong to the chaos soak). Jobs and
//! their reference-model oracles are generated before any timing starts,
//! and every ok job's lanes are checked against its oracle.
//!
//! The service keeps every job record for its lifetime, and both
//! admission and its watchdog scan them, so its overhead grows with the
//! jobs it has seen. The run is therefore a series of identical segments,
//! each on a freshly started service: one closed-loop pass on the empty
//! recipe pool (cold), an open-loop phase at a fixed rate, then
//! closed-loop passes on the warm pool. Preemption is off: checkpointing a
//! running job whenever a higher-priority one arrives makes pass times
//! depend on arrival timing.

use crate::report::{median, quantile, sample_setup, HostSpeed, Report, UnitTimes};
use crate::Budget;
use experiments::chaos::{gen_job, oracle, roomy_limits, GenJob, JobKind, MixConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{JobId, JobOutcome, Service, ServiceConfig};
use std::time::{Duration, Instant};

/// Distinct jobs generated per run; every phase cycles through them.
const JOBS: usize = 1000;
/// Admission queue capacity. The service sheds load from 75% occupancy;
/// the longest slow jobs run up to ~80 ms, during which 40 open-loop jobs
/// arrive, so the queue needs room for bursts of well over that.
const QUEUE: usize = 256;
/// Jobs in flight in a closed-loop pass: enough that the worker never
/// waits on the client, far below the shedding threshold.
const IN_FLIGHT: usize = 16;
/// Jobs per timed chunk of a closed-loop pass.
const CHUNK: usize = 50;
/// Open-loop jobs per segment, sent at `--svc-rate`.
const OPEN_JOBS: usize = 1000;
/// Closed-loop passes over all jobs per segment once the service is warm.
const WARM_PASSES: usize = 2;
/// Share of `--seconds` one segment stands for: 30-second runs hold four
/// segments (~6 s each on an idle host). The number of segments is fixed
/// from `--seconds` up front, not by the clock, so a busy host does not
/// change how much work a run does.
const SEGMENT: Duration = Duration::from_millis(7500);

fn mix() -> MixConfig {
    MixConfig {
        tenants: 8,
        poison_frac: 0.0,
        fault_frac: 0.0,
        fault_rate: 0.0,
        deadline_frac: 0.0,
        slow_frac: 0.10,
    }
}

fn start(seed: u64) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: QUEUE,
        tenant_quota: QUEUE / 4,
        limits: roomy_limits(),
        preemption: false,
        seed,
        ..Default::default()
    })
}

/// Whether `outcome` is ok and lane-exact against the job's oracle.
fn matches_oracle(job: &GenJob, outcome: &JobOutcome) -> bool {
    let (Ok(result), Some(want)) = (&outcome.result, &job.expected) else { return false };
    result.outputs.len() == want.len()
        && result.outputs.iter().zip(want).all(|(got, want)| {
            let lanes = got.values.len().min(want.len());
            lanes > 0 && got.values[..lanes] == want[..lanes]
        })
}

/// One closed-loop pass: every job once, `IN_FLIGHT` at a time, in
/// chunks of `CHUNK` jobs, each timed into `times`. A chunk is drained
/// before the next one starts, so the host can be read between chunks
/// without the worker running dry inside a timed chunk. Returns the
/// simulated (instructions, cycles) of its ok jobs.
fn closed_pass(
    service: &Service,
    jobs: &[GenJob],
    times: &mut UnitTimes,
    host: &mut HostSpeed,
    report: &mut Report,
) -> (u64, u64) {
    times.begin(host);
    let start = Instant::now();
    let (mut instructions, mut cycles) = (0, 0);
    let mut in_flight: Vec<(JobId, usize)> = Vec::with_capacity(IN_FLIGHT);
    for chunk in 0..jobs.len() / CHUNK {
        let chunk_start = Instant::now();
        let (mut next, end) = (chunk * CHUNK, (chunk + 1) * CHUNK);
        while next < end || !in_flight.is_empty() {
            while in_flight.len() < IN_FLIGHT && next < end {
                match service.submit(jobs[next].spec.clone()) {
                    Ok(id) => in_flight.push((id, next)),
                    Err(e) => report.check(false, || format!("job {next} refused: {e}")),
                }
                next += 1;
            }
            let before = in_flight.len();
            in_flight.retain(|&(id, j)| match service.try_outcome(id) {
                None => true,
                Some(outcome) => {
                    if let Ok(r) = &outcome.result {
                        instructions += r.instructions;
                        cycles += r.cycles;
                    }
                    report.check(matches_oracle(&jobs[j], &outcome), || {
                        format!(
                            "job {j} ({}): {:?}",
                            jobs[j].kind.label(),
                            outcome.result.as_ref().err()
                        )
                    });
                    false
                }
            });
            if in_flight.len() == before {
                // Sixteen queued jobs outlast this nap, so the worker never
                // waits on the client.
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        times.unit(chunk, chunk_start.elapsed());
        times.poll(host);
    }
    times.end(start.elapsed(), host);
    (instructions, cycles)
}

/// Samples from the open-loop phases.
#[derive(Default)]
struct OpenLoop {
    /// Every latency with its schedule slot, ms.
    latencies: Vec<(usize, f64)>,
    /// Each phase's latency (p50, p99), ms. `p50_ms` and `p99_ms` are their
    /// medians over the run's segments, so a burst on the host that lifts
    /// one whole phase moves neither.
    phase_quantiles: Vec<(f64, f64)>,
    /// Every latency of segments whose admissions were timed, ms.
    timed_ms: Vec<f64>,
    /// Every latency of segments whose admissions were not timed, ms.
    untimed_ms: Vec<f64>,
    /// `Service::submit` durations of timed admissions, µs.
    admit_us: Vec<f64>,
    /// How late each send left against its schedule, ms.
    late_ms: Vec<f64>,
}

/// The open-loop send order: every job once, the slow ones spread evenly
/// among the compute ones.
///
/// In generation order the mix has runs of slow jobs, each of which
/// outlasts the send period, and the jobs queued behind a run made the
/// tail: latencies of the form "the run's service times minus a few
/// periods", which move several times as much as the service times do.
/// Spread out, most slow jobs finish before the next one arrives, and the
/// tail is the slow jobs' own latency.
fn send_order(jobs: &[GenJob]) -> Vec<usize> {
    let (slow, compute): (Vec<usize>, Vec<usize>) =
        (0..jobs.len()).partition(|&j| jobs[j].kind == JobKind::Slow);
    let (n, s) = (jobs.len(), slow.len());
    let (mut slow, mut compute) = (slow.into_iter(), compute.into_iter());
    // Position t is slow when floor((t + 1) s / n) steps past floor(t s / n).
    (0..n)
        .map(|t| {
            let next = if (t + 1) * s / n > t * s / n { slow.next() } else { compute.next() };
            next.expect("the two kinds cover every position")
        })
        .collect()
}

/// Open loop: `OPEN_JOBS` jobs sent in `order` at `rate` jobs/s, samples
/// appended to `out`. Latency runs from each job's scheduled send time, so
/// a stalled client or service charges the wait to every job it delays.
/// Latencies are divided by the mean host factor read
/// around the phase (see [`HostSpeed`]). With `timed`, every admission is
/// timed.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    service: &Service,
    jobs: &[GenJob],
    order: &[usize],
    rate: f64,
    timed: bool,
    host: &mut HostSpeed,
    out: &mut OpenLoop,
    report: &mut Report,
) {
    let factor_before = host.sample();
    let mut phase: Vec<(usize, f64)> = Vec::with_capacity(OPEN_JOBS);
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut in_flight: Vec<(JobId, usize, Instant)> = Vec::new();
    let job = |slot: usize| &jobs[order[slot % order.len()]];
    let mut next = 0;
    let mut spec = job(next).spec.clone();
    let start = Instant::now() + Duration::from_millis(1);
    let mut due = start;
    while next < OPEN_JOBS || !in_flight.is_empty() {
        if next < OPEN_JOBS && Instant::now() >= due {
            let sending = Instant::now();
            out.late_ms.push((sending - due).as_secs_f64() * 1e3);
            let admitted = service.submit(std::mem::replace(&mut spec, job(next + 1).spec.clone()));
            if timed {
                out.admit_us.push(sending.elapsed().as_secs_f64() * 1e6);
            }
            match admitted {
                Ok(id) => in_flight.push((id, next, due)),
                Err(e) => report.check(false, || format!("open-loop job {next} refused: {e}")),
            }
            next += 1;
            due = start + period * next as u32;
            continue;
        }
        let before = in_flight.len();
        in_flight.retain(|&(id, slot, due)| match service.try_outcome(id) {
            None => true,
            Some(outcome) => {
                phase.push((slot, due.elapsed().as_secs_f64() * 1e3));
                let j = order[slot % order.len()];
                report.check(matches_oracle(&jobs[j], &outcome), || {
                    format!(
                        "open-loop job {j} ({}): {:?}",
                        jobs[j].kind.label(),
                        outcome.result.as_ref().err()
                    )
                });
                false
            }
        });
        if in_flight.len() == before {
            std::thread::yield_now();
        }
    }
    let factor = (factor_before + host.sample()) / 2.0;
    let ms: Vec<f64> = phase.iter().map(|&(_, ms)| ms / factor).collect();
    out.phase_quantiles.push((quantile(&ms, 0.50), quantile(&ms, 0.99)));
    for (slot, ms) in phase {
        out.latencies.push((slot, ms / factor));
        if timed { &mut out.timed_ms } else { &mut out.untimed_ms }.push(ms / factor);
    }
}

/// Seed of the job mix's structure: programs, substrates, tenants,
/// priorities and loop counts. `--seed` draws the compute jobs' lane data,
/// so every seed runs the same amount of work on different values, as the
/// other workloads do.
const MIX_SEED: u64 = 0x10AD;

/// The job set: the chaos mix from `MIX_SEED`, compute-job inputs redrawn
/// from `seed`, every oracle recomputed.
fn generate(seed: u64) -> Vec<GenJob> {
    let mut mix_rng = StdRng::seed_from_u64(MIX_SEED);
    let mut data_rng = StdRng::seed_from_u64(seed);
    (0..JOBS as u64)
        .map(|i| {
            let mut job = gen_job(&mut mix_rng, i, &mix());
            if job.kind == JobKind::Compute {
                for input in &mut job.spec.inputs {
                    input.values.iter_mut().for_each(|v| *v = data_rng.random_range(0..=u64::MAX));
                }
                job.expected = Some(oracle(&job.spec));
            }
            job
        })
        .collect()
}

/// Runs the workload and records its metrics.
pub fn run(
    seed: u64,
    rate: f64,
    budget: &Budget,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut host = HostSpeed::default();
    let jobs = generate(seed);
    let mut setups = Vec::new();
    if let Some(bad) = jobs.iter().find(|j| !matches!(j.kind, JobKind::Compute | JobKind::Slow)) {
        return Err(format!("generator produced a {} job", bad.kind.label()));
    }

    let order = send_order(&jobs);
    // Segments are identical and each starts a fresh service. Set-up is
    // sampled after every segment, so across the run.
    let mut cold = UnitTimes::new(JOBS / CHUNK);
    let mut warm = UnitTimes::new(JOBS / CHUNK);
    let mut open = OpenLoop::default();
    let mut sim = (0, 0);
    let mut health = Vec::new();
    for _ in 0..budget.reps(SEGMENT) {
        let service = start(seed);
        sim = closed_pass(&service, &jobs, &mut cold, &mut host, report);
        // Traced runs time admissions in every other segment only, so the
        // untimed segments show what the timing costs.
        let time_admissions = trace && health.len() % 2 == 1;
        open_loop(&service, &jobs, &order, rate, time_admissions, &mut host, &mut open, report);
        for _ in 0..WARM_PASSES {
            closed_pass(&service, &jobs, &mut warm, &mut host, report);
        }
        health.push(service.health());
        service.shutdown();
        sample_setup(&mut setups, &mut host, || generate(seed));
    }
    report.metric("setup_s", median(&setups), "s");
    report.metric("host_factor", host.factor(), "ratio");

    let warm_pass = warm.pass_estimate();
    if !trace {
        let (p50, p99): (Vec<f64>, Vec<f64>) = open.phase_quantiles.iter().copied().unzip();
        report.metric("cold_pass_s", cold.pass_estimate(), "s");
        report.metric("warm_pass_s", warm_pass, "s");
        report.metric("p50_ms", median(&p50), "ms");
        report.metric("p99_ms", median(&p99), "ms");
        return Ok(());
    }

    let of = |kind: JobKind| -> Vec<f64> {
        let latencies = open.latencies.iter();
        latencies.filter(|&&(slot, _)| jobs[order[slot]].kind == kind).map(|&(_, ms)| ms).collect()
    };
    report.metric("svc.admit_p50_us", quantile(&open.admit_us, 0.50), "us");
    report.metric("svc.admit_p99_us", quantile(&open.admit_us, 0.99), "us");
    report.metric("svc.lat.compute_ms", median(&of(JobKind::Compute)), "ms");
    report.metric("svc.lat.slow_ms", median(&of(JobKind::Slow)), "ms");
    report.metric("svc.gen_late_ms", quantile(&open.late_ms, 0.99), "ms");
    report.metric("svc.capacity_jobs_per_s", JOBS as f64 / warm_pass, "1/s");
    report.metric("svc.trace_overhead_ms", median(&open.timed_ms) - median(&open.untimed_ms), "ms");
    let total = |f: &dyn Fn(&service::HealthReport) -> u64| health.iter().map(f).sum::<u64>();
    report.count("svc.health.completed", total(&|h| h.completed));
    report.count("svc.health.failed", total(&|h| h.failed));
    report.count("svc.health.shed", total(&|h| h.shed));
    report.count("svc.health.preemptions", total(&|h| h.preemptions));
    report.count("svc.health.fault_retries", total(&|h| h.fault_retries));
    report.count("svc.health.worker_deaths", total(&|h| h.worker_deaths));
    report.count("svc.sim.instructions", sim.0);
    report.count("svc.sim.cycles", sim.1);
    Ok(())
}
