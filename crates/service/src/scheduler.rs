//! The resilient multi-tenant scheduler: worker pool, admission,
//! deadlines, retry/backoff, checkpoint preemption, and chaos hooks.
//!
//! ## Structure
//!
//! One [`Service`] owns a worker-thread pool sharing a warm
//! [`mastodon::RecipePool`] (recipe synthesis is paid once per
//! instruction shape across all tenants) and a watchdog thread. All
//! mutable state lives behind a single mutex — workers hold it only to
//! claim and publish jobs, never while simulating — with two condvars:
//! `work_cv` wakes workers, `done_cv` wakes outcome waiters.
//!
//! ## Resilience invariants
//!
//! * Every admitted job reaches exactly one terminal [`JobOutcome`] —
//!   through completion, typed failure, deadline cancellation, retry
//!   exhaustion, worker panic, or worker loss. Nothing is dropped.
//! * A panicking job (`catch_unwind`) costs the service one typed
//!   outcome, never a worker.
//! * A chaos-killed worker is detected by the watchdog, its orphaned job
//!   requeued (bounded by the retry budget), and a replacement thread
//!   spawned.
//! * Deadlines and cancellation are cooperative: a
//!   [`mastodon::RunControl`] is polled at compute-ensemble boundaries,
//!   so cancellation never corrupts in-flight ensemble state.
//! * Preemption is checkpoint-based: the preempted job resumes
//!   byte-identically (VRFs, statistics, recipe-cache state) in whatever
//!   worker picks it up next.

use crate::health::{HealthReport, HealthState};
use crate::job::{
    FaultRequest, JobError, JobId, JobOutcome, JobPhase, JobResult, JobSpec, Priority,
    ProgramSource, RegInit, RegRef,
};
use crate::limits::{build_program, AdmitError, SubmissionLimits};
use crate::queue::AdmissionQueue;
use mastodon::{MpuCheckpoint, Redundancy, RunControl, SimConfig, SimError, StepEvent};
use mpu_isa::{MpuId, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum live (queued + running + backoff) jobs per tenant.
    pub tenant_quota: usize,
    /// Per-job resource ceilings.
    pub limits: SubmissionLimits,
    /// Extra runs allowed after the first (fault retries and worker-loss
    /// reruns each consume one).
    pub retry_budget: u32,
    /// Base retry backoff, milliseconds (doubles per retry).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds (jitter is added on top).
    pub backoff_max_ms: u64,
    /// Allow high-priority submissions to checkpoint-preempt running
    /// lower-priority jobs when no worker is idle.
    pub preemption: bool,
    /// Recent-fault-retry pressure at which health degrades.
    pub degrade_threshold: u32,
    /// Recent-fault-retry pressure at which health turns critical.
    pub critical_threshold: u32,
    /// Seed for backoff jitter (determinism under test).
    pub seed: u64,
    /// Watchdog poll interval, milliseconds.
    pub watchdog_poll_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            tenant_quota: 16,
            limits: SubmissionLimits::default(),
            retry_budget: 3,
            backoff_base_ms: 2,
            backoff_max_ms: 50,
            preemption: true,
            degrade_threshold: 4,
            critical_threshold: 12,
            seed: 0x5EED,
            watchdog_poll_ms: 2,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    completed: u64,
    failed: u64,
    preemptions: u64,
    shed: u64,
    fault_retries: u64,
    worker_deaths: u64,
    workers_spawned: u64,
}

#[derive(Debug)]
struct JobRecord {
    tenant: String,
    priority: Priority,
    program: Arc<Program>,
    inputs: Vec<RegInit>,
    outputs: Vec<RegRef>,
    poison: bool,
    fault: Option<FaultRequest>,
    /// Pinned at admission (including any degradation-tier fallback) so
    /// checkpoints taken under it always import back into an equal
    /// configuration.
    base_config: SimConfig,
    submitted: Instant,
    deadline: Option<Instant>,
    phase: JobPhase,
    /// Runs started (incremented on each fresh claim, not on resume).
    attempts: u32,
    /// Worker-loss reruns (bounded by the retry budget).
    losses: u32,
    preemptions: u32,
    ctrl: Option<Arc<RunControl>>,
    checkpoint: Option<Box<MpuCheckpoint>>,
    cancel_requested: bool,
    deadline_fired: bool,
    worker: Option<usize>,
    outcome: Option<JobOutcome>,
}

struct State {
    queue: AdmissionQueue,
    jobs: HashMap<JobId, JobRecord>,
    next_job: JobId,
    tenants: HashMap<String, usize>,
    rng: StdRng,
    running: usize,
    workers_alive: usize,
    dead_workers: Vec<usize>,
    counters: Counters,
    recent_fault_retries: u32,
    last_decay: Instant,
    shutting_down: bool,
}

struct Shared {
    config: ServiceConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    kill_requests: AtomicUsize,
    shutdown: AtomicBool,
    pool: Arc<mastodon::RecipePool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    next_worker: AtomicUsize,
}

/// Handle to a running service. Clone-free: share via [`Arc`].
pub struct Service {
    shared: Arc<Shared>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Service {
    /// Starts the worker pool and watchdog.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers;
        let seed = config.seed;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(config.queue_capacity),
                jobs: HashMap::new(),
                next_job: 1,
                tenants: HashMap::new(),
                rng: StdRng::seed_from_u64(seed ^ 0xBACC0FF),
                running: 0,
                workers_alive: 0,
                dead_workers: Vec::new(),
                counters: Counters::default(),
                recent_fault_retries: 0,
                last_decay: Instant::now(),
                shutting_down: false,
            }),
            config,
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            kill_requests: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            pool: Arc::new(mastodon::RecipePool::new()),
            threads: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(0),
        });
        for _ in 0..workers {
            spawn_worker(&shared);
        }
        {
            let for_thread = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("service-watchdog".into())
                .spawn(move || watchdog_loop(&for_thread))
                .expect("spawn watchdog");
            shared.threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
        }
        Service { shared }
    }

    /// Validates and admits a job; returns its id or a typed rejection.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, AdmitError> {
        let cfg = &self.shared.config;
        let datapath = SimConfig::mpu(spec.backend).datapath;
        let program = Arc::new(build_program(&spec, &cfg.limits, &datapath)?);

        let mut st = lock(&self.shared);
        if st.shutting_down {
            return Err(AdmitError::ShuttingDown);
        }
        let health = health_state(&st, cfg);
        let min_priority = match health {
            HealthState::Healthy => Priority::Low,
            HealthState::Degraded => Priority::Normal,
            HealthState::Critical => Priority::High,
        };
        if spec.priority < min_priority {
            st.counters.shed += 1;
            return Err(AdmitError::LoadShed { health, min_priority });
        }
        let live = st.tenants.get(&spec.tenant).copied().unwrap_or(0);
        if live >= cfg.tenant_quota {
            return Err(AdmitError::TenantQuotaExceeded {
                tenant: spec.tenant,
                quota: cfg.tenant_quota,
            });
        }
        if st.queue.is_full() {
            return Err(AdmitError::QueueFull { capacity: st.queue.capacity() });
        }

        let id = st.next_job;
        st.next_job += 1;
        let now = Instant::now();
        let base_config = job_config(&spec, &cfg.limits, health != HealthState::Healthy);
        let record = JobRecord {
            tenant: spec.tenant.clone(),
            priority: spec.priority,
            program,
            inputs: spec.inputs,
            outputs: spec.outputs,
            poison: matches!(spec.program, ProgramSource::PoisonPanic),
            fault: spec.fault,
            base_config,
            submitted: now,
            deadline: spec.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            phase: JobPhase::Queued,
            attempts: 0,
            losses: 0,
            preemptions: 0,
            ctrl: None,
            checkpoint: None,
            cancel_requested: false,
            deadline_fired: false,
            worker: None,
            outcome: None,
        };
        let priority = record.priority;
        st.jobs.insert(id, record);
        *st.tenants.entry(spec.tenant).or_insert(0) += 1;
        st.queue.push(id, priority, None);

        if cfg.preemption && st.workers_alive.saturating_sub(st.running) == 0 {
            // No idle worker: preempt the lowest-priority running job
            // strictly below the new one (newest such victim first, so
            // older work keeps its progress).
            let victim = st
                .jobs
                .iter()
                .filter(|(_, r)| {
                    r.phase == JobPhase::Running
                        && r.priority < priority
                        && !r.cancel_requested
                        && r.ctrl.is_some()
                })
                .max_by_key(|(vid, r)| (std::cmp::Reverse(r.priority), **vid))
                .map(|(vid, _)| *vid);
            if let Some(vid) = victim {
                if let Some(ctrl) = st.jobs[&vid].ctrl.as_ref() {
                    ctrl.request_preempt();
                }
            }
        }

        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// Current lifecycle phase, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobPhase> {
        lock(&self.shared).jobs.get(&id).map(|r| r.phase)
    }

    /// The outcome if the job is terminal, without blocking.
    pub fn try_outcome(&self, id: JobId) -> Option<JobOutcome> {
        lock(&self.shared).jobs.get(&id).and_then(|r| r.outcome.clone())
    }

    /// Blocks until the job is terminal; `None` for an unknown id.
    pub fn wait(&self, id: JobId) -> Option<JobOutcome> {
        let mut st = lock(&self.shared);
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(rec) => {
                    if let Some(out) = &rec.outcome {
                        return Some(out.clone());
                    }
                }
            }
            let (g, _) = self
                .shared
                .done_cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = g;
        }
    }

    /// Cancels a live job. Queued jobs terminate immediately; running
    /// jobs terminate at their next compute-ensemble boundary. Returns
    /// `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut st = lock(&self.shared);
        let st_ref = &mut *st;
        let Some(rec) = st_ref.jobs.get_mut(&id) else { return false };
        if rec.outcome.is_some() {
            return false;
        }
        rec.cancel_requested = true;
        match rec.phase {
            JobPhase::Queued | JobPhase::Backoff => {
                st_ref.queue.remove(id);
                publish(
                    &mut st_ref.counters,
                    &mut st_ref.tenants,
                    rec,
                    id,
                    Err(JobError::Cancelled),
                );
                self.shared.done_cv.notify_all();
            }
            JobPhase::Running => {
                if let Some(ctrl) = rec.ctrl.as_ref() {
                    ctrl.request_cancel();
                }
            }
            JobPhase::Done => return false,
        }
        true
    }

    /// Operator health snapshot.
    pub fn health(&self) -> HealthReport {
        let st = lock(&self.shared);
        let cfg = &self.shared.config;
        HealthReport {
            state: health_state(&st, cfg),
            queued: st.queue.len(),
            capacity: st.queue.capacity(),
            running: st.running,
            workers_alive: st.workers_alive,
            workers_spawned: st.counters.workers_spawned,
            worker_deaths: st.counters.worker_deaths,
            fault_retries: st.counters.fault_retries,
            recent_fault_retries: st.recent_fault_retries,
            preemptions: st.counters.preemptions,
            shed: st.counters.shed,
            completed: st.counters.completed,
            failed: st.counters.failed,
        }
    }

    /// Chaos hook: the next worker to observe the request dies (thread
    /// exit) — possibly with a claimed job, which the watchdog must then
    /// recover. The watchdog also respawns the worker.
    pub fn chaos_kill_worker(&self) {
        self.shared.kill_requests.fetch_add(1, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
    }

    /// Graceful shutdown: stop admitting, fail queued jobs as
    /// [`JobError::Cancelled`], let running jobs finish, join every
    /// thread. Idempotent; safe to call through a shared [`Arc`].
    pub fn shutdown(&self) {
        {
            let mut st = lock(&self.shared);
            st.shutting_down = true;
            let State { queue, jobs, counters, tenants, .. } = &mut *st;
            let queued: Vec<JobId> = jobs
                .iter()
                .filter(|(_, r)| matches!(r.phase, JobPhase::Queued | JobPhase::Backoff))
                .map(|(id, _)| *id)
                .collect();
            for id in queued {
                queue.remove(id);
                let rec = jobs.get_mut(&id).expect("queued job has a record");
                publish(counters, tenants, rec, id, Err(JobError::Cancelled));
            }
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        let handles: Vec<JoinHandle<()>> =
            self.shared.threads.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Builds the pinned per-job simulator configuration. The fault seed is
/// perturbed per attempt by [`attempt_config`]; everything else is
/// attempt-invariant so checkpoints import cleanly within an attempt.
fn job_config(spec: &JobSpec, limits: &SubmissionLimits, degraded: bool) -> SimConfig {
    let mut cfg = SimConfig::mpu(spec.backend);
    cfg.recovery.watchdog_instructions = Some(limits.watchdog_instructions);
    if degraded {
        // Graceful degradation: run one instruction per block
        // (lane-identical by the conformance guarantee).
        cfg.trace_ensembles = false;
    }
    if spec.fault.is_some() {
        // Armed fault layer: give the machine its own recovery ladder
        // before errors escalate to the service's retry loop.
        cfg.recovery.redundancy = Redundancy::Dmr;
        cfg.recovery.max_retries = 2;
        cfg.recovery.checkpoint_restart = true;
        cfg.recovery.max_restarts = 2;
    }
    cfg
}

/// Derives the configuration for run number `attempt` (1-based): same as
/// the base except the fault seed, so retries draw fresh fault sites.
fn attempt_config(rec: &JobRecord, attempt: u32) -> SimConfig {
    let mut cfg = rec.base_config.clone();
    if let Some(f) = &rec.fault {
        cfg.fault.seed =
            Some(f.seed.wrapping_add(u64::from(attempt - 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        cfg.fault.transient_rate = f.transient_rate;
    }
    cfg
}

fn health_state(st: &State, cfg: &ServiceConfig) -> HealthState {
    let q = st.queue.len();
    let cap = st.queue.capacity().max(1);
    if st.recent_fault_retries >= cfg.critical_threshold || q * 10 >= cap * 9 {
        HealthState::Critical
    } else if st.recent_fault_retries >= cfg.degrade_threshold
        || q * 4 >= cap * 3
        || st.workers_alive < cfg.workers.min(1)
    {
        HealthState::Degraded
    } else {
        HealthState::Healthy
    }
}

/// Records a terminal outcome and releases the tenant's quota slot.
fn publish(
    counters: &mut Counters,
    tenants: &mut HashMap<String, usize>,
    rec: &mut JobRecord,
    id: JobId,
    result: Result<JobResult, JobError>,
) {
    debug_assert!(rec.outcome.is_none(), "job {id} published twice");
    rec.phase = JobPhase::Done;
    rec.ctrl = None;
    rec.worker = None;
    rec.checkpoint = None;
    match &result {
        Ok(_) => counters.completed += 1,
        Err(_) => counters.failed += 1,
    }
    if let Some(live) = tenants.get_mut(&rec.tenant) {
        *live = live.saturating_sub(1);
        if *live == 0 {
            tenants.remove(&rec.tenant);
        }
    }
    rec.outcome = Some(JobOutcome {
        job: id,
        tenant: rec.tenant.clone(),
        result,
        attempts: rec.attempts.max(1),
        preemptions: rec.preemptions,
        wall_ms: rec.submitted.elapsed().as_millis() as u64,
    });
}

fn spawn_worker(shared: &Arc<Shared>) {
    let id = shared.next_worker.fetch_add(1, Ordering::SeqCst);
    {
        let mut st = lock(shared);
        st.workers_alive += 1;
        st.counters.workers_spawned += 1;
    }
    let cloned = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("service-worker-{id}"))
        .spawn(move || worker_loop(&cloned, id))
        .expect("spawn worker");
    shared.threads.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
}

/// Takes one pending chaos-kill request, if any.
fn take_kill(shared: &Shared) -> bool {
    shared
        .kill_requests
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

/// What one execution attempt produced.
enum Attempt {
    Done { outputs: Vec<RegInit>, cycles: u64, instructions: u64 },
    Preempted(Box<MpuCheckpoint>),
    Failed(SimError),
}

struct AttemptCtx {
    job: JobId,
    program: Arc<Program>,
    inputs: Vec<RegInit>,
    outputs: Vec<RegRef>,
    config: SimConfig,
    checkpoint: Option<Box<MpuCheckpoint>>,
    poison: bool,
}

fn worker_loop(shared: &Arc<Shared>, worker_id: usize) {
    loop {
        // --- Claim ---
        let (ctx, ctrl) = {
            let mut st = lock(shared);
            let job = loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    st.workers_alive -= 1;
                    return;
                }
                if take_kill(shared) {
                    die(shared, &mut st, worker_id);
                    return;
                }
                let now = Instant::now();
                if let Some(job) = st.queue.pop_eligible(now) {
                    break job;
                }
                let timeout = st.queue.next_wakeup(now).unwrap_or(Duration::from_millis(25));
                let (g, _) = shared
                    .work_cv
                    .wait_timeout(st, timeout.max(Duration::from_millis(1)))
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
            };

            let st_ref = &mut *st;
            let rec = st_ref.jobs.get_mut(&job).expect("queued job has a record");
            let now = Instant::now();
            if rec.cancel_requested || rec.deadline.is_some_and(|d| d <= now) {
                let err = if rec.cancel_requested && !rec.deadline_fired {
                    JobError::Cancelled
                } else {
                    JobError::DeadlineExceeded
                };
                publish(&mut st_ref.counters, &mut st_ref.tenants, rec, job, Err(err));
                shared.done_cv.notify_all();
                continue;
            }
            if rec.checkpoint.is_none() {
                rec.attempts += 1;
            }
            let ctrl = Arc::new(RunControl::new());
            rec.ctrl = Some(Arc::clone(&ctrl));
            rec.phase = JobPhase::Running;
            rec.worker = Some(worker_id);
            st_ref.running += 1;
            let ctx = AttemptCtx {
                job,
                program: Arc::clone(&rec.program),
                inputs: rec.inputs.clone(),
                outputs: rec.outputs.clone(),
                config: attempt_config(rec, rec.attempts),
                checkpoint: rec.checkpoint.take(),
                poison: rec.poison,
            };
            (ctx, ctrl)
        };

        // Mid-flight chaos kill: die while holding a claimed job so the
        // watchdog has an orphan to recover.
        if take_kill(shared) {
            let mut st = lock(shared);
            die(shared, &mut st, worker_id);
            return;
        }

        // --- Execute (no lock held) ---
        let job = ctx.job;
        let pool = Arc::clone(&shared.pool);
        let attempt = catch_unwind(AssertUnwindSafe(|| run_attempt(&pool, ctx, &ctrl)));

        // --- Publish ---
        let mut st = lock(shared);
        let st_ref = &mut *st;
        st_ref.running -= 1;
        let rec = st_ref.jobs.get_mut(&job).expect("running job has a record");
        rec.ctrl = None;
        rec.worker = None;
        match attempt {
            Err(payload) => {
                let payload = panic_text(payload.as_ref());
                publish(
                    &mut st_ref.counters,
                    &mut st_ref.tenants,
                    rec,
                    job,
                    Err(JobError::WorkerPanic { payload }),
                );
                shared.done_cv.notify_all();
            }
            Ok(Attempt::Done { outputs, cycles, instructions }) => {
                publish(
                    &mut st_ref.counters,
                    &mut st_ref.tenants,
                    rec,
                    job,
                    Ok(JobResult { outputs, cycles, instructions }),
                );
                shared.done_cv.notify_all();
            }
            Ok(Attempt::Preempted(cp)) => {
                if rec.cancel_requested {
                    let err = if rec.deadline_fired {
                        JobError::DeadlineExceeded
                    } else {
                        JobError::Cancelled
                    };
                    publish(&mut st_ref.counters, &mut st_ref.tenants, rec, job, Err(err));
                    shared.done_cv.notify_all();
                } else {
                    rec.checkpoint = Some(cp);
                    rec.preemptions += 1;
                    rec.phase = JobPhase::Queued;
                    st_ref.counters.preemptions += 1;
                    st_ref.queue.push(job, rec.priority, None);
                    shared.work_cv.notify_all();
                }
            }
            Ok(Attempt::Failed(e)) => {
                classify_failure(shared, st_ref, job, e);
            }
        }
    }
}

/// Marks this worker dead (chaos kill). Any claimed job stays `Running`
/// with `worker == worker_id`; the watchdog recovers it.
fn die(shared: &Shared, st: &mut State, worker_id: usize) {
    st.workers_alive -= 1;
    st.counters.worker_deaths += 1;
    st.dead_workers.push(worker_id);
    shared.work_cv.notify_all();
}

/// Routes a simulator failure: transient faults retry with backoff until
/// the budget runs out; everything else terminates with a typed error.
fn classify_failure(shared: &Shared, st: &mut State, job: JobId, e: SimError) {
    let cfg = &shared.config;
    let rec = st.jobs.get_mut(&job).expect("failed job has a record");
    let transient = match e.root_cause() {
        SimError::Cancelled { .. } => {
            let err =
                if rec.deadline_fired { JobError::DeadlineExceeded } else { JobError::Cancelled };
            publish(&mut st.counters, &mut st.tenants, rec, job, Err(err));
            shared.done_cv.notify_all();
            return;
        }
        SimError::WatchdogTriggered { .. } if rec.fault.is_none() => {
            // No fault layer armed: the program itself spins.
            publish(&mut st.counters, &mut st.tenants, rec, job, Err(JobError::RunawayProgram));
            shared.done_cv.notify_all();
            return;
        }
        SimError::UncorrectedFault { .. } | SimError::WatchdogTriggered { .. } => true,
        _ => false,
    };
    if !transient {
        let message = e.to_string();
        publish(&mut st.counters, &mut st.tenants, rec, job, Err(JobError::Sim { message }));
        shared.done_cv.notify_all();
        return;
    }

    st.counters.fault_retries += 1;
    st.recent_fault_retries = st.recent_fault_retries.saturating_add(1);
    if rec.attempts > cfg.retry_budget {
        let last = e.root_cause().to_string();
        let attempts = rec.attempts;
        publish(
            &mut st.counters,
            &mut st.tenants,
            rec,
            job,
            Err(JobError::FaultBudgetExhausted { attempts, last }),
        );
        shared.done_cv.notify_all();
        return;
    }
    // Exponential backoff with seeded jitter; the retry re-runs from
    // scratch (attempt_config perturbs the fault seed).
    let retries_done = rec.attempts.saturating_sub(1).min(16);
    let base = cfg.backoff_base_ms.saturating_mul(1u64 << retries_done).min(cfg.backoff_max_ms);
    let jitter = st.rng.random_range(0..=cfg.backoff_base_ms.max(1));
    let rec = st.jobs.get_mut(&job).expect("failed job has a record");
    rec.phase = JobPhase::Backoff;
    let priority = rec.priority;
    st.queue.push(job, priority, Some(Instant::now() + Duration::from_millis(base + jitter)));
    shared.work_cv.notify_all();
}

/// Executes one attempt on a fresh machine (or resumes a checkpoint).
/// Runs with no service lock held; panics are caught by the caller.
fn run_attempt(
    pool: &Arc<mastodon::RecipePool>,
    ctx: AttemptCtx,
    ctrl: &Arc<RunControl>,
) -> Attempt {
    if ctx.poison {
        panic!("poison job {} detonated", ctx.job);
    }
    let mut mpu = mastodon::Mpu::with_pool(ctx.config, MpuId(0), Arc::clone(pool));
    mpu.set_run_control(Arc::clone(ctrl));
    if let Some(cp) = &ctx.checkpoint {
        if let Err(e) = mpu.import_checkpoint(cp) {
            return Attempt::Failed(e);
        }
    } else {
        for init in &ctx.inputs {
            if let Err(e) = mpu.write_register(init.rfh, init.vrf, init.reg, &init.values) {
                return Attempt::Failed(e);
            }
        }
        mpu.reset_pc();
    }
    match mpu.step(&ctx.program) {
        Ok(StepEvent::Completed) => {
            let stats = mpu.finish();
            let mut outputs = Vec::with_capacity(ctx.outputs.len());
            for out in &ctx.outputs {
                match mpu.read_register(out.rfh, out.vrf, out.reg) {
                    Ok(values) => {
                        outputs.push(RegInit { rfh: out.rfh, vrf: out.vrf, reg: out.reg, values })
                    }
                    Err(e) => return Attempt::Failed(e),
                }
            }
            Attempt::Done { outputs, cycles: stats.cycles, instructions: stats.instructions }
        }
        Ok(StepEvent::Preempted) => Attempt::Preempted(Box::new(mpu.export_checkpoint())),
        // Admission rejects SEND/RECV, so these are unreachable; surface
        // them as a typed error rather than asserting.
        Ok(StepEvent::Sent(_)) | Ok(StepEvent::AwaitingRecv { .. }) => {
            Attempt::Failed(SimError::CommOutsideSystem { line: mpu.pc() })
        }
        Err(e) => Attempt::Failed(e),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

fn watchdog_loop(shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(shared.config.watchdog_poll_ms.max(1)));

        let mut st = lock(shared);
        let now = Instant::now();

        // Decay the fault-storm pressure signal (~1 unit / 100 ms) so a
        // calm service climbs back down the health ladder.
        if now.duration_since(st.last_decay) >= Duration::from_millis(100) {
            st.last_decay = now;
            st.recent_fault_retries = st.recent_fault_retries.saturating_sub(1);
        }

        // Deadlines.
        let mut expired_queued = Vec::new();
        for (id, rec) in st.jobs.iter_mut() {
            if rec.outcome.is_some() || rec.deadline_fired {
                continue;
            }
            let Some(deadline) = rec.deadline else { continue };
            if deadline > now {
                continue;
            }
            rec.deadline_fired = true;
            match rec.phase {
                JobPhase::Running => {
                    rec.cancel_requested = true;
                    if let Some(ctrl) = rec.ctrl.as_ref() {
                        ctrl.request_cancel();
                    }
                }
                JobPhase::Queued | JobPhase::Backoff => expired_queued.push(*id),
                JobPhase::Done => {}
            }
        }
        for id in expired_queued {
            let st_ref = &mut *st;
            st_ref.queue.remove(id);
            let rec = st_ref.jobs.get_mut(&id).expect("expired job has a record");
            publish(
                &mut st_ref.counters,
                &mut st_ref.tenants,
                rec,
                id,
                Err(JobError::DeadlineExceeded),
            );
            shared.done_cv.notify_all();
        }

        // Dead workers: recover orphaned jobs, respawn the pool.
        let dead: Vec<usize> = st.dead_workers.drain(..).collect();
        for w in dead {
            let orphans: Vec<JobId> = st
                .jobs
                .iter()
                .filter(|(_, r)| r.phase == JobPhase::Running && r.worker == Some(w))
                .map(|(id, _)| *id)
                .collect();
            for id in orphans {
                let st_ref = &mut *st;
                st_ref.running -= 1;
                let rec = st_ref.jobs.get_mut(&id).expect("orphaned job has a record");
                rec.ctrl = None;
                rec.worker = None;
                // Any in-worker checkpoint died with the worker: the
                // rerun starts from scratch and counts against the
                // retry budget.
                rec.checkpoint = None;
                rec.losses += 1;
                if rec.cancel_requested {
                    let err = if rec.deadline_fired {
                        JobError::DeadlineExceeded
                    } else {
                        JobError::Cancelled
                    };
                    publish(&mut st_ref.counters, &mut st_ref.tenants, rec, id, Err(err));
                    shared.done_cv.notify_all();
                } else if rec.losses > shared.config.retry_budget {
                    let attempts = rec.attempts;
                    publish(
                        &mut st_ref.counters,
                        &mut st_ref.tenants,
                        rec,
                        id,
                        Err(JobError::WorkerLost { attempts }),
                    );
                    shared.done_cv.notify_all();
                } else {
                    rec.phase = JobPhase::Queued;
                    let priority = rec.priority;
                    st_ref.queue.push(id, priority, None);
                }
            }
            if !st.shutting_down {
                drop(st);
                spawn_worker(shared);
                st = lock(shared);
            }
            shared.work_cv.notify_all();
        }
    }
}
