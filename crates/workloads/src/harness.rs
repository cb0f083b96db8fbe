//! Chip-level kernel harness: simulates one scheduling wave functionally
//! and cycle-accurately, verifies it against the kernel's golden model,
//! then scales to the full iso-area chip and problem size.
//!
//! Scaling model (documented in DESIGN.md §2): a kernel over `n` elements
//! decomposes into *instances*, each one wave of
//! `active_vrfs_per_rfh × rfhs × lanes` elements on one MPU. Instances run
//! `mpus_per_chip` at a time; micro-op issue is broadcast, so wave latency
//! is independent of wave width while energy scales with it. We simulate a
//! representative subset of the wave's VRFs (sampling; data is i.i.d.) and
//! scale energy accordingly.
//!
//! Duality Cache's limited on-chip capacity (0.2 GB) is modeled by
//! streaming overflow bytes over the external bus, reproducing the paper's
//! §VIII-C observation.

use crate::kernel::Kernel;
use mastodon::{
    run_single_traced, EventLog, ExecutionMode, RecipePool, SimConfig, SimError, Stats,
};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// VRFs functionally simulated per wave (energy is scaled up to the full
/// wave; see module docs).
const SIM_VRFS: usize = 8;

/// Result of running one kernel on one chip configuration.
///
/// `PartialEq` lets tests assert the parallel sweep path reproduces the
/// serial path exactly, field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipRun {
    /// Configuration label (`MPU:RACER`, ...).
    pub label: String,
    /// Kernel name.
    pub kernel: &'static str,
    /// Problem size in elements.
    pub n: u64,
    /// Simulated single-wave statistics (one MPU).
    pub wave: Stats,
    /// Total wave instances across the problem.
    pub instances: u64,
    /// Sequential rounds per MPU (`ceil(instances / mpus)`).
    pub rounds: u64,
    /// Chip execution time, nanoseconds.
    pub time_ns: f64,
    /// Chip energy, picojoules.
    pub energy_pj: f64,
    /// External-memory streaming time added (Duality Cache overflow), ns.
    pub streaming_ns: f64,
    /// Whether every simulated lane matched the golden model.
    pub verified: bool,
    /// ezpim statement count for the kernel program.
    pub ezpim_statements: usize,
    /// Lowered ISA instruction count.
    pub isa_instructions: usize,
    /// Execution-tier split of the wave simulation: `(trace, fallback)`
    /// compute-ensemble counts (see [`mastodon::Mpu::tier_counts`]).
    /// Host-side telemetry; not an architectural counter.
    pub tiers: (u64, u64),
}

impl ChipRun {
    /// Time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.time_ns / 1000.0
    }
}

/// Harness failure.
#[derive(Debug)]
pub enum HarnessError {
    /// The simulator rejected or failed the program.
    Sim(mastodon::SimError),
    /// A lane diverged from the golden model.
    Mismatch {
        /// Kernel name.
        kernel: &'static str,
        /// `(rfh, vrf, reg)` of the first mismatching output.
        at: (u16, u16, u8),
        /// First mismatching lane.
        lane: usize,
        /// Simulated value.
        got: u64,
        /// Golden value.
        want: u64,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sim(e) => write!(f, "simulation failed: {e}"),
            HarnessError::Mismatch { kernel, at, lane, got, want } => {
                write!(f, "{kernel}: output {at:?} lane {lane}: got {got:#x}, want {want:#x}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<mastodon::SimError> for HarnessError {
    fn from(e: mastodon::SimError) -> Self {
        HarnessError::Sim(e)
    }
}

/// Runs `kernel` over `n` elements on the chip described by `config`.
///
/// # Errors
///
/// Fails if the simulation errors or any simulated lane mismatches the
/// kernel's golden model.
pub fn run_kernel(
    kernel: &dyn Kernel,
    config: &SimConfig,
    n: u64,
    seed: u64,
) -> Result<ChipRun, HarnessError> {
    run_kernel_pooled(kernel, config, n, seed, None)
}

/// [`run_kernel`] with an optional shared recipe-synthesis pool (see
/// [`mastodon::RecipePool`]). The pool only memoizes host-side recipe
/// lowering; simulated statistics — and therefore the returned [`ChipRun`]
/// — are bit-identical to the unpooled path.
///
/// # Errors
///
/// See [`run_kernel`].
pub fn run_kernel_pooled(
    kernel: &dyn Kernel,
    config: &SimConfig,
    n: u64,
    seed: u64,
    pool: Option<&Arc<RecipePool>>,
) -> Result<ChipRun, HarnessError> {
    run_kernel_inner(kernel, config, n, seed, pool, None)
}

/// [`run_kernel`] with an [`EventLog`] collecting the wave simulation's
/// trace (see `mastodon::Tracer`): the observability path for building
/// attribution profiles and Chrome trace exports of a kernel. The returned
/// [`ChipRun`] is bit-identical to the untraced path.
///
/// # Errors
///
/// See [`run_kernel`].
pub fn run_kernel_traced(
    kernel: &dyn Kernel,
    config: &SimConfig,
    n: u64,
    seed: u64,
    log: &EventLog,
) -> Result<ChipRun, HarnessError> {
    run_kernel_inner(kernel, config, n, seed, None, Some(Box::new(log.clone())))
}

fn run_kernel_inner(
    kernel: &dyn Kernel,
    config: &SimConfig,
    n: u64,
    seed: u64,
    pool: Option<&Arc<RecipePool>>,
    tracer: Option<Box<dyn mastodon::Tracer>>,
) -> Result<ChipRun, HarnessError> {
    let g = config.datapath.geometry();
    // Members: one VRF per RFH, up to SIM_VRFS (stencils use vrf+1 for
    // staging, which exists because vrfs_per_rfh >= 2).
    let member_count = SIM_VRFS.min(g.max_active_vrfs_per_mpu()).max(1);
    let members: Vec<(u16, u16)> = (0..member_count)
        .map(|i| {
            let rfh = (i % g.rfhs_per_mpu) as u16;
            let vrf = ((i / g.rfhs_per_mpu) * 2) as u16; // leave vrf+1 for staging
            (rfh, vrf)
        })
        .collect();

    let built = kernel.build(&g, &members, seed);
    let (wave, mut mpu) =
        run_single_traced(config.clone(), &built.program, &built.inputs, pool, tracer)?;

    // Verify every simulated lane against the golden model. Register
    // readback rides the backend's word-level lane transpose, so full-VRF
    // verification stays cheap even for 512-lane geometries.
    for (idx, &(rfh, vrf, reg)) in built.outputs.iter().enumerate() {
        let got = mpu.read_register(rfh, vrf, reg)?;
        let want = &built.expected[idx];
        for lane in 0..want.len().min(got.len()) {
            if got[lane] != want[lane] {
                return Err(HarnessError::Mismatch {
                    kernel: kernel.name(),
                    at: (rfh, vrf, reg),
                    lane,
                    got: got[lane],
                    want: want[lane],
                });
            }
        }
    }

    // --- chip scaling ---
    let wave_elems = (g.max_active_vrfs_per_mpu() * g.lanes_per_vrf) as u64;
    let footprint = match config.mode {
        ExecutionMode::Baseline => kernel.baseline_footprint(),
        ExecutionMode::Mpu => 1.0,
    };
    let effective_n = (n as f64 * footprint).ceil() as u64;
    let instances = effective_n.div_ceil(wave_elems).max(1);
    // Iso-area: the Baseline chip spends no area on MPU front ends, so it
    // fits slightly more compute units in the same 4 cm² (the paper's
    // "reduction in datapath capacity for iso-area comparisons"). Half the
    // raw area bonus is credited, as part of the front-end storage reuses
    // in-memory arrays.
    let units = match config.mode {
        ExecutionMode::Mpu => g.mpus_per_chip as f64,
        ExecutionMode::Baseline => {
            let slice_mm2 = 400.0 / g.mpus_per_chip as f64;
            let fe_mm2 = pum_backend::area::FrontEndModel::default().total_area_mm2();
            g.mpus_per_chip as f64 * (1.0 + 0.5 * fe_mm2 / slice_mm2)
        }
    };
    let rounds = instances.div_ceil(g.mpus_per_chip as u64).max(1);
    // Time: instances spread over the chip's units; fractional occupancy
    // amortizes (waves pipeline across MPUs).
    let occupancy = (instances as f64 / units).max(1.0);
    let mut time_ns = wave.cycles as f64 * occupancy;

    // Energy: the simulated wave covers `member_count` VRFs; a real wave
    // activates `max_active_vrfs_per_mpu`. The host CPU (Baseline) is one
    // shared device: its energy follows chip time, not wave count.
    // The simulated ledger is whole femtojoules; chip scaling is in pJ.
    let width_scale = g.max_active_vrfs_per_mpu() as f64 / member_count as f64;
    let pj = |fj: u64| fj as f64 / 1000.0;
    let e = &wave.energy;
    let per_wave_energy = pj(e.datapath_fj) * width_scale
        + pj(e.frontend_fj)
        + pj(e.transfer_fj) * width_scale
        + pj(e.offload_bus_fj);
    let mut energy_pj = per_wave_energy * instances as f64 + pj(e.cpu_fj) * occupancy;

    // External streaming for data beyond on-chip capacity (Duality Cache).
    let data_bytes = n as f64 * kernel.regs_per_elem() as f64 * 8.0 * footprint;
    let capacity = (g.mpus_per_chip as u64 * g.mem_bytes_per_mpu) as f64;
    let mut streaming_ns = 0.0;
    if data_bytes > capacity {
        let overflow = data_bytes - capacity;
        streaming_ns = overflow / config.offload.bus_bytes_per_cycle;
        time_ns += streaming_ns;
        energy_pj += overflow * config.offload.bus_pj_per_byte;
    }

    Ok(ChipRun {
        label: config.label(),
        kernel: kernel.name(),
        n,
        wave,
        instances,
        rounds,
        time_ns,
        energy_pj,
        streaming_ns,
        verified: true,
        ezpim_statements: built.ezpim_statements,
        isa_instructions: built.program.len(),
        tiers: mpu.tier_counts(),
    })
}

// ----- parallel sweep engine -------------------------------------------

/// Resolves the worker-thread count for a parallel sweep.
///
/// Priority: an explicit `requested` value, then the `MPU_JOBS`
/// environment variable, then [`std::thread::available_parallelism`].
/// Zero / unparsable values are ignored; the result is always ≥ 1.
pub fn effective_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| std::env::var("MPU_JOBS").ok().and_then(|v| v.parse().ok()))
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1))
}

/// Renders a panic payload as text (`&str` and `String` payloads pass
/// through; anything else becomes a placeholder).
fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Panic-isolated core of the sweep engine: every closure call runs under
/// `catch_unwind`, so one poisoned item cannot tear down the worker pool —
/// the worker that caught it keeps claiming items and the rest of the
/// sweep completes. `Err` carries the raw panic payload for the caller to
/// type or re-raise.
fn parallel_map_caught<T, R, F>(
    items: Vec<T>,
    jobs: usize,
    f: F,
) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let run_one = |item: T| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item)));
    let len = items.len();
    let jobs = jobs.clamp(1, len.max(1));
    if jobs <= 1 || len <= 1 {
        return items.into_iter().map(run_one).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    type Caught<R> = Result<R, Box<dyn std::any::Any + Send>>;
    let results: Mutex<Vec<(usize, Caught<R>)>> = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                // The atomic index hands each slot to exactly one worker.
                if let Some(item) = slots[i].lock().unwrap_or_else(PoisonError::into_inner).take() {
                    let r = run_one(item);
                    results.lock().unwrap_or_else(PoisonError::into_inner).push((i, r));
                }
            });
        }
    });
    let mut pairs = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Applies `f` to every item on up to `jobs` worker threads, returning
/// results **in input order** (deterministic regardless of which thread
/// finishes first). Workers claim items from a shared atomic index, so an
/// expensive item never stalls the queue behind it.
///
/// A panicking closure no longer aborts the pool mid-sweep: the remaining
/// items still complete, then the first panic (in input order) is resumed
/// on the calling thread. Use [`parallel_map_isolated`] to receive a typed
/// per-item error instead.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for caught in parallel_map_caught(items, jobs, f) {
        match caught {
            Ok(r) => out.push(r),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

/// [`parallel_map`] with per-item panic isolation: an item whose closure
/// panics yields [`SimError::WorkerPanic`] carrying its input-order index
/// and the panic payload, while every other item's result is returned
/// normally. The worker pool always survives.
pub fn parallel_map_isolated<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, SimError>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_caught(items, jobs, f)
        .into_iter()
        .enumerate()
        .map(|(item, caught)| {
            caught.map_err(|payload| SimError::WorkerPanic {
                item,
                payload: panic_payload_text(payload.as_ref()),
            })
        })
        .collect()
}

/// One unit of a chip sweep: a kernel on one configuration.
pub struct SweepTask<'a> {
    /// Kernel to run.
    pub kernel: &'a dyn Kernel,
    /// Chip configuration.
    pub config: SimConfig,
    /// Problem size in elements.
    pub n: u64,
    /// Input-data seed.
    pub seed: u64,
}

/// Runs a batch of kernel-on-configuration tasks across worker threads.
///
/// * `jobs = None` resolves via [`effective_jobs`] (`MPU_JOBS`, then the
///   machine's core count).
/// * Results come back **in task order** and are bit-identical to running
///   [`run_kernel`] on each task serially: worker threads share only a
///   [`RecipePool`], which memoizes host-side recipe synthesis without
///   touching simulated statistics.
/// * A task whose worker closure panics yields
///   `HarnessError::Sim(SimError::WorkerPanic { .. })` for that task only;
///   the rest of the sweep completes (see [`parallel_map_isolated`]).
pub fn run_sweep_parallel(
    tasks: Vec<SweepTask<'_>>,
    jobs: Option<usize>,
) -> Vec<Result<ChipRun, HarnessError>> {
    let pool = Arc::new(RecipePool::new());
    let jobs = effective_jobs(jobs);
    parallel_map_isolated(tasks, jobs, |task| {
        run_kernel_pooled(task.kernel, &task.config, task.n, task.seed, Some(&pool))
    })
    .into_iter()
    .map(|caught| caught.unwrap_or_else(|panic| Err(HarnessError::Sim(panic))))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_kernels;
    use pum_backend::DatapathKind;

    #[test]
    fn vecadd_runs_verified_on_racer() {
        let kernels = all_kernels();
        let vecadd = kernels.iter().find(|k| k.name() == "vecadd").unwrap();
        let run =
            run_kernel(vecadd.as_ref(), &SimConfig::mpu(DatapathKind::Racer), 1 << 16, 42).unwrap();
        assert!(run.verified);
        assert!(run.time_ns > 0.0);
        assert!(run.energy_pj > 0.0);
        assert!(run.instances >= 1);
    }

    #[test]
    fn baseline_stencils_pay_footprint_inflation() {
        let kernels = all_kernels();
        let jacobi = kernels.iter().find(|k| k.name() == "jacobi1d").unwrap();
        let n = 1 << 20;
        let mpu = run_kernel(jacobi.as_ref(), &SimConfig::mpu(DatapathKind::Racer), n, 1).unwrap();
        let base =
            run_kernel(jacobi.as_ref(), &SimConfig::baseline(DatapathKind::Racer), n, 1).unwrap();
        assert!(base.instances >= 4 * mpu.instances - 4, "Toeplitz inflation");
    }

    #[test]
    fn a_panicking_item_is_typed_and_the_sweep_completes() {
        let out = parallel_map_isolated((0..32).collect::<Vec<u64>>(), 4, |v| {
            assert!(v != 13, "poisoned item");
            v * 2
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                match r {
                    Err(SimError::WorkerPanic { item, payload }) => {
                        assert_eq!(*item, 13);
                        assert!(payload.contains("poisoned item"), "payload: {payload}");
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u64 * 2), "healthy items must complete");
            }
        }
        // The serial path isolates identically.
        let serial = parallel_map_isolated(vec![0u64, 13, 2], 1, |v| {
            assert!(v != 13, "poisoned item");
            v
        });
        assert!(serial[0].is_ok() && serial[2].is_ok());
        assert!(matches!(serial[1], Err(SimError::WorkerPanic { item: 1, .. })));
    }

    #[test]
    fn parallel_map_resumes_the_first_panic_after_finishing() {
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map((0..16).collect::<Vec<usize>>(), 4, |v| {
                if v == 3 || v == 7 {
                    panic!("item {v} down");
                }
                finished.fetch_add(1, Ordering::Relaxed);
                v
            })
        }));
        let payload = caught.expect_err("the panic must still surface");
        let text = super::panic_payload_text(payload.as_ref());
        assert_eq!(text, "item 3 down", "first panic in input order wins");
        assert_eq!(finished.load(Ordering::Relaxed), 14, "every healthy item completed");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let out = parallel_map((0..64).collect::<Vec<u64>>(), 8, |v| v * 3);
        assert_eq!(out, (0..64).map(|v| v * 3).collect::<Vec<u64>>());
        // Degenerate pools: serial path and oversubscribed path agree.
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |v| v + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(vec![5], 16, |v| v + 1), vec![6]);
        assert_eq!(parallel_map(Vec::<u8>::new(), 4, |v| v), Vec::<u8>::new());
    }

    #[test]
    fn effective_jobs_prefers_explicit_over_env() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert!(effective_jobs(None) >= 1);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        // Every kernel on two datapaths × two modes, small n: the parallel
        // engine must reproduce the serial results bit for bit, in order.
        let kernels = all_kernels();
        let configs = [
            SimConfig::mpu(DatapathKind::Racer),
            SimConfig::baseline(DatapathKind::Racer),
            SimConfig::mpu(DatapathKind::Mimdram),
        ];
        let n = 1 << 10;
        let tasks: Vec<SweepTask<'_>> = kernels
            .iter()
            .flat_map(|k| {
                configs.iter().map(move |c| SweepTask {
                    kernel: k.as_ref(),
                    config: c.clone(),
                    n,
                    seed: 9,
                })
            })
            .collect();
        let serial: Vec<ChipRun> = kernels
            .iter()
            .flat_map(|k| configs.iter().map(move |c| run_kernel(k.as_ref(), c, n, 9).unwrap()))
            .collect();
        let parallel: Vec<ChipRun> =
            run_sweep_parallel(tasks, Some(4)).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "{} on {} diverged across the parallel path", s.kernel, s.label);
        }
    }

    #[test]
    fn traced_kernel_run_is_transparent_and_conserves() {
        let kernels = all_kernels();
        let dot = kernels.iter().find(|k| k.name() == "dot").unwrap();
        let config = SimConfig::mpu(DatapathKind::Racer);
        let log = EventLog::new();
        let traced = run_kernel_traced(dot.as_ref(), &config, 1 << 12, 42, &log).unwrap();
        let untraced = run_kernel(dot.as_ref(), &config, 1 << 12, 42).unwrap();
        // An armed tracer forces per-instruction fallback so every retired
        // instruction is observable, so the (host-side, non-architectural)
        // tier split legitimately differs; everything architectural must
        // still be bit-identical.
        assert_eq!(traced.tiers.0, 0, "an armed tracer must force per-instruction fallback");
        let mut normalized = traced.clone();
        normalized.tiers = untraced.tiers;
        assert_eq!(normalized, untraced, "tracing must not perturb the architectural ChipRun");
        let events = log.take();
        assert!(!events.is_empty());
        let profile = mastodon::Profile::build(&events);
        assert_eq!(profile.merged(), traced.wave, "profile must conserve the wave stats");
    }

    #[test]
    fn pool_counters_reconcile_under_parallel_sweeps() {
        // Satellite fix check: the shared RecipePool's template traffic is
        // observable and self-consistent across a parallel sweep — every
        // lookup is either a hit or a miss, none are lost to races, and
        // repeating the sweep over a warm pool turns all lookups into hits.
        let kernels = all_kernels();
        let pool = Arc::new(RecipePool::new());
        let config = SimConfig::mpu(DatapathKind::Racer);
        let run_all = || {
            let tasks: Vec<&dyn Kernel> = kernels.iter().map(|k| k.as_ref()).collect();
            for r in
                parallel_map(tasks, 4, |k| run_kernel_pooled(k, &config, 1 << 10, 5, Some(&pool)))
            {
                r.unwrap();
            }
        };
        run_all();
        let cold = pool.stats();
        assert!(cold.lookups > 0, "sweep must consult the pool");
        assert_eq!(cold.hits + cold.misses, cold.lookups, "no lookup may go unaccounted");
        assert!(cold.misses > 0, "a cold pool must synthesize templates");
        run_all();
        let warm = pool.stats();
        assert_eq!(warm.hits + warm.misses, warm.lookups);
        assert_eq!(
            warm.misses, cold.misses,
            "a warm pool must serve the repeat sweep entirely from memoized templates"
        );
        assert_eq!(warm.lookups, 2 * cold.lookups, "identical sweeps issue identical lookups");
    }

    #[test]
    fn duality_cache_streams_when_data_exceeds_capacity() {
        let kernels = all_kernels();
        let vecadd = kernels.iter().find(|k| k.name() == "vecadd").unwrap();
        // 3 regs × 8B × n > 12 × 16 MB when n = 1 << 24.
        let run =
            run_kernel(vecadd.as_ref(), &SimConfig::mpu(DatapathKind::DualityCache), 1 << 24, 7)
                .unwrap();
        assert!(run.streaming_ns > 0.0, "DC must stream overflow data");
        let racer =
            run_kernel(vecadd.as_ref(), &SimConfig::mpu(DatapathKind::Racer), 1 << 24, 7).unwrap();
        assert_eq!(racer.streaming_ns, 0.0, "RACER capacity suffices");
    }
}
