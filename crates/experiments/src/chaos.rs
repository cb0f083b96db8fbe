//! Shared machinery for the service chaos soak (`service_chaos`) and the
//! load generator (`load_gen`): a seeded mixed-job generator, a
//! word-level reference-model oracle for submitted programs, bounded
//! waiting (a hang detector — `Service::wait` alone would mask one), and
//! latency percentile helpers.

use pum_backend::{DatapathKind, DatapathModel};
use rand::rngs::StdRng;
use rand::Rng;
use refmodel::{RefGeometry, RefMpu};
use service::{
    AdmitError, FaultRequest, JobId, JobOutcome, JobSpec, Priority, ProgramSource, RegInit, RegRef,
    Service, SubmissionLimits,
};
use std::time::{Duration, Instant};

/// Input lanes written per register (a common prefix of every geometry).
pub const GEN_LANES: usize = 8;

/// Knobs for the mixed-job generator.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Tenants to spread jobs across (round-robin with random priority).
    pub tenants: usize,
    /// Fraction of jobs that are poison (deliberate worker panics).
    pub poison_frac: f64,
    /// Fraction of jobs that run under transient fault injection.
    pub fault_frac: f64,
    /// Transient fault rate for faulty jobs.
    pub fault_rate: f64,
    /// Fraction of jobs that carry a tight deadline.
    pub deadline_frac: f64,
    /// Fraction of jobs that are slow (boundary-crossing loop programs).
    pub slow_frac: f64,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            tenants: 8,
            poison_frac: 0.05,
            fault_frac: 0.15,
            fault_rate: 2e-3,
            deadline_frac: 0.05,
            slow_frac: 0.10,
        }
    }
}

/// What the generator made a job into — decides the acceptable outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Straight-line compute; must succeed and match the oracle.
    Compute,
    /// Boundary-crossing loop program; must succeed and match the oracle.
    Slow,
    /// Panics in the worker; must end as `worker_panic`.
    Poison,
    /// Runs under fault injection; success (oracle-exact) or typed
    /// `fault_budget_exhausted` are both acceptable.
    Faulty,
    /// Slow program with a tight deadline; success (oracle-exact) or
    /// `deadline_exceeded` are both acceptable.
    Deadline,
}

impl JobKind {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Compute => "compute",
            JobKind::Slow => "slow",
            JobKind::Poison => "poison",
            JobKind::Faulty => "faulty",
            JobKind::Deadline => "deadline",
        }
    }
}

/// A generated job plus its oracle-expected outputs (None for poison).
#[derive(Debug, Clone)]
pub struct GenJob {
    /// The submission.
    pub spec: JobSpec,
    /// Generator classification.
    pub kind: JobKind,
    /// Expected lane values per output register, from the reference
    /// model.
    pub expected: Option<Vec<Vec<u64>>>,
}

/// Submission ceilings that admit the generator's slow loop programs.
pub fn roomy_limits() -> SubmissionLimits {
    SubmissionLimits {
        max_program_instructions: 1 << 16,
        max_statements: 1 << 14,
        max_dynamic_loops: 1 << 12,
        ..Default::default()
    }
}

fn ref_geometry(kind: DatapathKind) -> RefGeometry {
    let g = DatapathModel::for_kind(kind).geometry();
    RefGeometry {
        lanes_per_vrf: g.lanes_per_vrf,
        regs_per_vrf: g.regs_per_vrf,
        vrfs_per_rfh: g.vrfs_per_rfh,
        rfhs_per_mpu: g.rfhs_per_mpu,
        active_vrfs_per_rfh: g.active_vrfs_per_rfh,
        mpus_per_chip: g.mpus_per_chip,
        reserved_temps: DatapathModel::for_kind(kind).recipe_ctx().reserved_temps(),
    }
}

/// Runs a job's program on the word-level reference model and returns
/// the expected lane values for each declared output register.
///
/// # Panics
///
/// Panics if the generated program fails to parse or execute — the
/// generator only emits valid programs.
pub fn oracle(spec: &JobSpec) -> Vec<Vec<u64>> {
    let text = match &spec.program {
        ProgramSource::EzText(text) => text,
        _ => panic!("oracle only covers ezpim-text jobs"),
    };
    let program = ezpim::parse(text).expect("generated text parses").assemble().expect("assembles");
    let mut mpu = RefMpu::new(ref_geometry(spec.backend), 0);
    for input in &spec.inputs {
        mpu.write_register(input.rfh, input.vrf, input.reg, &input.values);
    }
    mpu.run(&program).expect("generated program completes on the reference model");
    spec.outputs.iter().map(|o| mpu.read_register(o.rfh, o.vrf, o.reg)).collect()
}

const OPS: [&str; 4] = ["add", "and", "or", "xor"];

/// A straight-line compute program: 1–2 ensembles of 2–6 random
/// non-aliasing binary ops over registers 0..10.
fn gen_compute_text(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for _ in 0..rng.random_range(1..=2u32) {
        text.push_str("ensemble h0.v0 {\n");
        for _ in 0..rng.random_range(2..=6u32) {
            let op = OPS[rng.random_range(0..OPS.len())];
            let rs = rng.random_range(0..10u32);
            let rt = rng.random_range(0..10u32);
            let rd = loop {
                let r = rng.random_range(0..10u32);
                if r != rs && r != rt {
                    break r;
                }
            };
            text.push_str(&format!("  {op} r{rs} r{rt} r{rd}\n"));
        }
        text.push_str("}\n");
    }
    text
}

/// A boundary-crossing slow program: `ensembles` top-level ensembles,
/// each a dynamic `for` loop of r1 iterations accumulating +1 into r2.
pub fn slow_text(ensembles: usize) -> String {
    let mut s = String::new();
    for _ in 0..ensembles {
        s.push_str("ensemble h0.v0 {\n  for r0 < r1 {\n    add r2 r3 r2\n  }\n}\n");
    }
    s
}

fn base_spec(rng: &mut StdRng, tenant: String, text: &str) -> JobSpec {
    let backend = DatapathKind::ALL[rng.random_range(0..DatapathKind::ALL.len())];
    let mut spec = JobSpec::ez(&tenant, backend, text);
    spec.priority = match rng.random_range(0..100u32) {
        0..=14 => Priority::Low,
        15..=84 => Priority::Normal,
        _ => Priority::High,
    };
    spec
}

/// Generates job number `i` of a seeded mixed workload.
pub fn gen_job(rng: &mut StdRng, i: u64, mix: &MixConfig) -> GenJob {
    let tenant = format!("tenant-{}", i as usize % mix.tenants.max(1));
    // The vendored rand stub only samples integer ranges.
    let roll: f64 = rng.random_range(0..1_000_000u64) as f64 / 1e6;
    let poison_edge = mix.poison_frac;
    let fault_edge = poison_edge + mix.fault_frac;
    let deadline_edge = fault_edge + mix.deadline_frac;
    let slow_edge = deadline_edge + mix.slow_frac;

    if roll < poison_edge {
        let mut spec = base_spec(rng, tenant, "ensemble h0.v0 {\n  add r0 r1 r2\n}");
        spec.program = ProgramSource::PoisonPanic;
        return GenJob { spec, kind: JobKind::Poison, expected: None };
    }

    if roll < fault_edge {
        let text = gen_compute_text(rng);
        let mut spec = base_spec(rng, tenant, &text);
        fill_io(rng, &mut spec);
        spec.fault = Some(FaultRequest {
            seed: rng.random_range(1..=u64::MAX),
            transient_rate: mix.fault_rate,
        });
        let expected = oracle(&spec);
        return GenJob { spec, kind: JobKind::Faulty, expected: Some(expected) };
    }

    if roll < deadline_edge || roll < slow_edge {
        let ensembles = rng.random_range(3..=6u32) as usize;
        let iters = rng.random_range(20..=60u64);
        let mut spec = base_spec(rng, tenant, &slow_text(ensembles));
        spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![iters] });
        spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 3, values: vec![1] });
        spec.outputs.push(RegRef { rfh: 0, vrf: 0, reg: 2 });
        let kind = if roll < deadline_edge {
            spec.deadline_ms = Some(rng.random_range(5..=30u64));
            JobKind::Deadline
        } else {
            JobKind::Slow
        };
        let expected = oracle(&spec);
        return GenJob { spec, kind, expected: Some(expected) };
    }

    let text = gen_compute_text(rng);
    let mut spec = base_spec(rng, tenant, &text);
    fill_io(rng, &mut spec);
    let expected = oracle(&spec);
    GenJob { spec, kind: JobKind::Compute, expected: Some(expected) }
}

/// Seeds registers 0..4 with random lanes and declares registers 0..10
/// as outputs (every register the compute generator can touch).
fn fill_io(rng: &mut StdRng, spec: &mut JobSpec) {
    for reg in 0..4u8 {
        let values: Vec<u64> = (0..GEN_LANES).map(|_| rng.random_range(0..=u64::MAX)).collect();
        spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg, values });
    }
    for reg in 0..10u8 {
        spec.outputs.push(RegRef { rfh: 0, vrf: 0, reg });
    }
}

/// Submits with bounded backpressure: typed load-shedding rejections
/// (queue full, shed, tenant quota) are retried after a short sleep —
/// that pressure is the service working as designed, and the generator
/// wants most of its jobs to eventually land. Anything else (or retry
/// exhaustion) is returned to the caller as the typed rejection.
///
/// # Errors
///
/// The final typed rejection if backpressure never cleared.
pub fn submit_retrying(
    service: &Service,
    spec: &JobSpec,
    max_tries: u32,
    backoff: Duration,
) -> Result<JobId, AdmitError> {
    let mut last = None;
    for _ in 0..max_tries.max(1) {
        match service.submit(spec.clone()) {
            Ok(id) => return Ok(id),
            Err(
                e @ (AdmitError::QueueFull { .. }
                | AdmitError::LoadShed { .. }
                | AdmitError::TenantQuotaExceeded { .. }),
            ) => last = Some(e),
            Err(other) => return Err(other),
        }
        std::thread::sleep(backoff);
    }
    Err(last.expect("at least one try"))
}

/// Waits for every job with a global deadline; returns the outcomes and
/// the ids that never became terminal (hangs).
pub fn bounded_wait_all(
    service: &Service,
    ids: &[JobId],
    deadline: Duration,
) -> (Vec<(JobId, JobOutcome)>, Vec<JobId>) {
    let until = Instant::now() + deadline;
    let mut done = Vec::with_capacity(ids.len());
    let mut pending: Vec<JobId> = ids.to_vec();
    while !pending.is_empty() && Instant::now() < until {
        pending.retain(|&id| match service.try_outcome(id) {
            Some(outcome) => {
                done.push((id, outcome));
                false
            }
            None => true,
        });
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    (done, pending)
}

/// The `p`-th percentile (0.0–1.0) of a sorted sample, nearest-rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generator_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mix = MixConfig::default();
        for i in 0..20 {
            let ja = gen_job(&mut a, i, &mix);
            let jb = gen_job(&mut b, i, &mix);
            assert_eq!(ja.kind, jb.kind);
            assert_eq!(ja.spec.tenant, jb.spec.tenant);
            assert_eq!(ja.expected, jb.expected);
        }
    }

    #[test]
    fn oracle_matches_simple_add() {
        let mut spec = JobSpec::ez("t", DatapathKind::Racer, "ensemble h0.v0 {\n  add r0 r1 r2\n}");
        spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 0, values: vec![2, 10] });
        spec.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 1, values: vec![3, 30] });
        spec.outputs.push(RegRef { rfh: 0, vrf: 0, reg: 2 });
        let expected = oracle(&spec);
        assert_eq!(expected[0][0], 5);
        assert_eq!(expected[0][1], 40);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 0.50), 50);
        assert_eq!(percentile(&sample, 0.99), 99);
        assert_eq!(percentile(&sample, 0.999), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
