//! # experiments — regenerating every table and figure of the MPU paper
//!
//! One binary per artifact (`fig01`, `fig05`, `fig11`, `fig12`, `fig13`,
//! `fig14`, `fig15`, `table1`, `table3`, `table4`, plus `all`), each
//! printing the same rows/series the paper reports. This library holds the
//! shared runners and formatting.
//!
//! Absolute numbers come from our calibrated simulator and analytical
//! platform models, not the authors' testbed; EXPERIMENTS.md records the
//! paper-vs-measured comparison for every artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;

use mastodon::{ExecutionMode, RecipePool, SimConfig};
use platforms::{PlatformModel, PlatformRun};
use pum_backend::{
    DatapathBuilder, DatapathKind, DatapathModel, LogicFamily, MicroOpKind, OptConfig, OptRule,
    OptStats,
};
use std::sync::Arc;
use workloads::apps::{run_app_pooled, AppRun};
use workloads::{
    all_kernels, effective_jobs, kernels_in_group, parallel_map, run_kernel, run_kernel_pooled,
    run_sweep_parallel, ChipRun, KernelGroup, SweepTask,
};

/// Default problem size for the streaming kernel groups (elements).
pub const KERNEL_N: u64 = 1 << 26;

/// Problem size for the compute-intensive complex group (fits on the
/// Duality Cache chip, as the paper's §VIII-B discussion requires).
pub const COMPLEX_N: u64 = 1 << 23;

/// Per-kernel problem size: streaming groups use [`KERNEL_N`], the
/// compute-bound complex group uses [`COMPLEX_N`].
pub fn problem_size(group: KernelGroup, base_n: u64) -> u64 {
    match group {
        KernelGroup::Complex => (base_n >> 5).max(1),
        _ => base_n,
    }
}

/// Default seed for all experiments (results are deterministic).
pub const SEED: u64 = 0xA5A5_2026;

/// One kernel compared across MPU, Baseline, and GPU.
#[derive(Debug)]
pub struct KernelComparison {
    /// Kernel name.
    pub kernel: &'static str,
    /// Kernel group.
    pub group: KernelGroup,
    /// MPU-mode chip run.
    pub mpu: ChipRun,
    /// Baseline-mode chip run.
    pub baseline: ChipRun,
    /// Analytical GPU run.
    pub gpu: PlatformRun,
}

impl KernelComparison {
    /// `Baseline → MPU` speedup (Fig. 12 top).
    pub fn mpu_speedup_vs_baseline(&self) -> f64 {
        self.baseline.time_ns / self.mpu.time_ns
    }

    /// `Baseline → MPU` energy savings (Fig. 12 bottom).
    pub fn mpu_energy_savings_vs_baseline(&self) -> f64 {
        self.baseline.energy_pj / self.mpu.energy_pj
    }

    /// `GPU → MPU` speedup (Fig. 13 top).
    pub fn mpu_speedup_vs_gpu(&self) -> f64 {
        self.gpu.time_ns / self.mpu.time_ns
    }

    /// `GPU → Baseline` speedup (Fig. 13 top).
    pub fn baseline_speedup_vs_gpu(&self) -> f64 {
        self.gpu.time_ns / self.baseline.time_ns
    }

    /// `GPU → MPU` energy savings (Fig. 13 bottom).
    pub fn mpu_energy_savings_vs_gpu(&self) -> f64 {
        self.gpu.energy_pj / self.mpu.energy_pj
    }

    /// `GPU → Baseline` energy savings (Fig. 13 bottom).
    pub fn baseline_energy_savings_vs_gpu(&self) -> f64 {
        self.gpu.energy_pj / self.baseline.energy_pj
    }
}

/// Runs all 28 kernels on one datapath in both modes, plus the GPU model.
///
/// Simulations fan out across worker threads (`MPU_JOBS` or the machine's
/// core count); results are bit-identical to a serial sweep. Use
/// [`kernel_matrix_jobs`] for an explicit thread count.
///
/// # Panics
///
/// Panics if any kernel fails to verify (a correctness regression).
pub fn kernel_matrix(kind: DatapathKind, n: u64, seed: u64) -> Vec<KernelComparison> {
    kernel_matrix_jobs(kind, n, seed, None)
}

/// [`kernel_matrix`] with an explicit worker-thread count (`None` =
/// `MPU_JOBS`, then all cores).
///
/// # Panics
///
/// Panics if any kernel fails to verify (a correctness regression).
pub fn kernel_matrix_jobs(
    kind: DatapathKind,
    n: u64,
    seed: u64,
    jobs: Option<usize>,
) -> Vec<KernelComparison> {
    let mpu_cfg = SimConfig::mpu(kind);
    let base_cfg = SimConfig::baseline(kind);
    let gpu = PlatformModel::rtx4090();
    let kernels = all_kernels();
    // Two sweep tasks per kernel (MPU mode, Baseline mode), in kernel order.
    let tasks: Vec<SweepTask<'_>> = kernels
        .iter()
        .flat_map(|kernel| {
            let kn = problem_size(kernel.group(), n);
            [
                SweepTask { kernel: kernel.as_ref(), config: mpu_cfg.clone(), n: kn, seed },
                SweepTask { kernel: kernel.as_ref(), config: base_cfg.clone(), n: kn, seed },
            ]
        })
        .collect();
    let mut runs = run_sweep_parallel(tasks, jobs).into_iter();
    kernels
        .iter()
        .map(|kernel| {
            let kn = problem_size(kernel.group(), n);
            let mpu = runs
                .next()
                .expect("one MPU run per kernel")
                .unwrap_or_else(|e| panic!("{} MPU: {e}", kernel.name()));
            let baseline = runs
                .next()
                .expect("one Baseline run per kernel")
                .unwrap_or_else(|e| panic!("{} Baseline: {e}", kernel.name()));
            let gpu_run = gpu.run(&kernel.profile(), kn);
            KernelComparison {
                kernel: kernel.name(),
                group: kernel.group(),
                mpu,
                baseline,
                gpu: gpu_run,
            }
        })
        .collect()
}

/// One end-to-end application compared across configurations (Fig. 14/15).
#[derive(Debug)]
pub struct AppComparison {
    /// Application name.
    pub app: &'static str,
    /// `MPU:<datapath>` runs, one per datapath in `kinds` order.
    pub mpu: Vec<AppRun>,
    /// `Baseline:<datapath>` runs.
    pub baseline: Vec<AppRun>,
    /// Analytical GPU runs over each datapath's replicated chip-scale
    /// problem size (parallel to the datapath order).
    pub gpu: Vec<PlatformRun>,
}

/// Runs the end-to-end applications on RACER and MIMDRAM, both modes,
/// plus the GPU model (the paper's Fig. 14 configuration set).
///
/// System simulations fan out across worker threads like
/// [`kernel_matrix`]; results are bit-identical to a serial sweep. Use
/// [`app_matrix_jobs`] for an explicit thread count.
///
/// # Panics
///
/// Panics if an application fails to verify.
pub fn app_matrix(seed: u64) -> Vec<AppComparison> {
    app_matrix_jobs(seed, None)
}

/// [`app_matrix`] with an explicit worker-thread count (`None` =
/// `MPU_JOBS`, then all cores).
///
/// # Panics
///
/// Panics if an application fails to verify.
pub fn app_matrix_jobs(seed: u64, jobs: Option<usize>) -> Vec<AppComparison> {
    let kinds = [DatapathKind::Racer, DatapathKind::Mimdram];
    let gpu = PlatformModel::rtx4090();
    let apps = workloads::apps::all_apps();
    // Four runs per app: MPU then Baseline, each over `kinds` in order.
    let configs: Vec<SimConfig> = kinds
        .iter()
        .map(|&k| SimConfig::mpu(k))
        .chain(kinds.iter().map(|&k| SimConfig::baseline(k)))
        .collect();
    let specs: Vec<(usize, SimConfig)> =
        (0..apps.len()).flat_map(|ai| configs.iter().map(move |c| (ai, c.clone()))).collect();
    let pool = Arc::new(RecipePool::new());
    let runs = parallel_map(specs, effective_jobs(jobs), |(ai, config)| {
        let app = apps[ai].as_ref();
        run_app_pooled(app, &config, app.default_mpus(), seed, Some(&pool))
            .unwrap_or_else(|e| panic!("{} {}: {e}", app.name(), config.label()))
    });
    let mut runs = runs.into_iter();
    apps.iter()
        .map(|app| {
            let mpus = app.default_mpus();
            let mpu: Vec<AppRun> =
                kinds.iter().map(|_| runs.next().expect("MPU run per kind")).collect();
            let baseline: Vec<AppRun> =
                kinds.iter().map(|_| runs.next().expect("Baseline run per kind")).collect();
            // Iso-area replication: the paper runs apps at chip scale
            // (130/2/23 MPUs with all VRFs); we simulate a scaled-down
            // instance and replicate it across the chip's MPU budget —
            // PUM replicas run in parallel (same time, energy adds), the
            // GPU processes the replicated element count. Each datapath
            // defines its own chip-scale problem (its lanes differ), so
            // the GPU column is computed per datapath.
            let mut mpu = mpu;
            let mut baseline = baseline;
            let mut gpu_runs = Vec::new();
            for (i, &k) in kinds.iter().enumerate() {
                let cfg = SimConfig::mpu(k);
                let replicas = (cfg.datapath.geometry().mpus_per_chip / mpus).max(1) as u64;
                let elements = app.elements(&cfg, mpus) * replicas;
                gpu_runs.push(gpu.run(&app.profile(), elements));
                for run in [&mut mpu[i], &mut baseline[i]] {
                    let e = &mut run.stats.energy;
                    e.datapath_fj *= replicas;
                    e.frontend_fj *= replicas;
                    e.transfer_fj *= replicas;
                    e.offload_bus_fj *= replicas;
                    // The host CPU is shared: its energy does not replicate.
                }
            }
            AppComparison { app: app.name(), mpu, baseline, gpu: gpu_runs }
        })
        .collect()
}

/// Everything the `mpu_profile` binary emits for one traced kernel run:
/// the verified chip run, the rendered attribution profile, and a
/// Perfetto-loadable Chrome trace export.
#[derive(Debug, Clone)]
pub struct KernelProfileReport {
    /// The (verified) chip run whose wave was traced.
    pub run: ChipRun,
    /// Deterministic text rendering of the attribution tree.
    pub profile_text: String,
    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    pub chrome_json: String,
}

/// Runs one kernel with tracing armed and builds its attribution profile
/// and Chrome trace export. `baseline` selects host-offload mode.
///
/// # Errors
///
/// Returns a message naming the kernel (with the list of valid names) or
/// forwarding the harness failure.
pub fn profile_kernel(
    kernel_name: &str,
    backend: DatapathKind,
    baseline: bool,
    n: u64,
    seed: u64,
) -> Result<KernelProfileReport, String> {
    let kernels = all_kernels();
    let kernel = kernels.iter().find(|k| k.name() == kernel_name).ok_or_else(|| {
        let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
        format!("unknown kernel {kernel_name:?}; available: {}", names.join(", "))
    })?;
    let config = if baseline { SimConfig::baseline(backend) } else { SimConfig::mpu(backend) };
    let log = mastodon::EventLog::new();
    let run = workloads::run_kernel_traced(kernel.as_ref(), &config, n, seed, &log)
        .map_err(|e| e.to_string())?;
    let events = log.take();
    let profile = mastodon::Profile::build(&events);
    debug_assert_eq!(profile.merged(), run.wave, "profile must conserve the wave stats");
    Ok(KernelProfileReport {
        run,
        profile_text: profile.render(),
        chrome_json: mastodon::chrome_trace_json(&events),
    })
}

/// One row of the recipe-optimizer attribution table (`recipe_opt`): one
/// kernel on one substrate, executed with the optimizer disabled and with
/// the default configuration over identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct OptAttributionRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Substrate the pair of runs executed on.
    pub backend: DatapathKind,
    /// Dynamic micro-ops issued with the optimizer disabled.
    pub uops_off: u64,
    /// Dynamic micro-ops issued under the default optimizer configuration.
    pub uops_on: u64,
    /// Dynamic micro-ops the optimizer removed. [`opt_attribution`] checks
    /// conservation: `uops_off == uops_on + uops_saved` exactly, i.e. the
    /// optimizer only ever deletes work the template would have issued.
    pub uops_saved: u64,
    /// Elapsed cycles `(off, on)`.
    pub cycles: (u64, u64),
    /// Total energy `(off, on)`, picojoules.
    pub energy_pj: (f64, f64),
    /// Per-rule attribution from the run's private recipe pool: fires and
    /// removed micro-ops per *synthesized* recipe (static counts — each
    /// unique instruction is optimized once and replayed every wave).
    pub opt: OptStats,
}

impl OptAttributionRow {
    /// Fraction of template micro-ops the optimizer removed, percent.
    pub fn saved_pct(&self) -> f64 {
        percent_delta(self.uops_off as f64, self.uops_on as f64).abs()
    }

    /// Cycle delta on→off, percent (negative = the optimized run is faster).
    pub fn cycles_delta_pct(&self) -> f64 {
        percent_delta(self.cycles.0 as f64, self.cycles.1 as f64)
    }

    /// Energy delta on→off, percent (negative = the optimized run is cheaper).
    pub fn energy_delta_pct(&self) -> f64 {
        percent_delta(self.energy_pj.0, self.energy_pj.1)
    }
}

fn percent_delta(off: f64, on: f64) -> f64 {
    if off == 0.0 {
        0.0
    } else {
        (on - off) / off * 100.0
    }
}

/// Runs every kernel on each substrate twice — optimizer off, then the
/// default (on) configuration with a private [`RecipePool`] harvesting the
/// per-rule counters — and returns one attribution row per pair. Both runs
/// must lane-verify, and the dynamic micro-op counts must conserve
/// (`off == on + saved`); either failing is an error, not a silent row.
///
/// # Errors
///
/// Returns a message naming the kernel/substrate on a harness failure,
/// verification failure, or conservation mismatch.
pub fn opt_attribution(
    backends: &[DatapathKind],
    n: u64,
    seed: u64,
) -> Result<Vec<OptAttributionRow>, String> {
    let mut rows = Vec::new();
    for &backend in backends {
        for kernel in all_kernels() {
            let on_cfg = SimConfig::mpu(backend);
            let pool = Arc::new(RecipePool::new());
            let on = run_kernel_pooled(kernel.as_ref(), &on_cfg, n, seed, Some(&pool))
                .map_err(|e| format!("{} on {backend:?} (optimizer on): {e}", kernel.name()))?;
            let mut off_cfg = SimConfig::mpu(backend);
            off_cfg.datapath = off_cfg.datapath.clone().with_opt_config(OptConfig::disabled());
            let off = run_kernel(kernel.as_ref(), &off_cfg, n, seed)
                .map_err(|e| format!("{} on {backend:?} (optimizer off): {e}", kernel.name()))?;
            if !on.verified || !off.verified {
                return Err(format!(
                    "{} on {backend:?}: lane verification failed (on={}, off={})",
                    kernel.name(),
                    on.verified,
                    off.verified
                ));
            }
            if off.wave.uops != on.wave.uops + on.wave.uops_saved {
                return Err(format!(
                    "{} on {backend:?}: uop conservation broken (off={}, on={}, saved={})",
                    kernel.name(),
                    off.wave.uops,
                    on.wave.uops,
                    on.wave.uops_saved
                ));
            }
            rows.push(OptAttributionRow {
                kernel: kernel.name(),
                backend,
                uops_off: off.wave.uops,
                uops_on: on.wave.uops,
                uops_saved: on.wave.uops_saved,
                cycles: (off.wave.cycles, on.wave.cycles),
                energy_pj: (off.wave.energy.total_pj(), on.wave.energy.total_pj()),
                opt: pool.stats().opt,
            });
        }
    }
    Ok(rows)
}

/// Renders the attribution rows as the `recipe_opt` table: one line per
/// kernel/substrate pair plus a `TOTAL` line per substrate, with per-rule
/// `fires/removed` columns. Deterministic — the golden snapshot pins it.
pub fn render_opt_attribution(rows: &[OptAttributionRow], n: u64, seed: u64) -> String {
    let mut headers = vec![
        "kernel".to_string(),
        "backend".to_string(),
        "uops(off)".to_string(),
        "uops(on)".to_string(),
        "saved".to_string(),
        "cycles".to_string(),
        "energy".to_string(),
    ];
    headers.extend(OptRule::ALL.iter().map(|r| r.name().to_string()));

    let fmt_rules = |opt: &OptStats| -> Vec<String> {
        OptRule::ALL
            .iter()
            .map(|&r| {
                let s = opt.rule(r);
                format!("{}/{}", s.fires, s.removed_uops)
            })
            .collect()
    };
    let fmt_row = |row: &OptAttributionRow, label: &str| -> Vec<String> {
        let mut cells = vec![
            label.to_string(),
            format!("{:?}", row.backend),
            row.uops_off.to_string(),
            row.uops_on.to_string(),
            format!("-{:.2}%", row.saved_pct()),
            format!("{:+.2}%", row.cycles_delta_pct()),
            format!("{:+.2}%", row.energy_delta_pct()),
        ];
        cells.extend(fmt_rules(&row.opt));
        cells
    };

    let mut body: Vec<Vec<String>> = Vec::new();
    for &backend in BACKEND_ORDER {
        let group: Vec<&OptAttributionRow> = rows.iter().filter(|r| r.backend == backend).collect();
        if group.is_empty() {
            continue;
        }
        for row in &group {
            body.push(fmt_row(row, row.kernel));
        }
        let mut total = OptAttributionRow {
            kernel: "TOTAL",
            backend,
            uops_off: 0,
            uops_on: 0,
            uops_saved: 0,
            cycles: (0, 0),
            energy_pj: (0.0, 0.0),
            opt: OptStats::default(),
        };
        for row in &group {
            total.uops_off += row.uops_off;
            total.uops_on += row.uops_on;
            total.uops_saved += row.uops_saved;
            total.cycles.0 += row.cycles.0;
            total.cycles.1 += row.cycles.1;
            total.energy_pj.0 += row.energy_pj.0;
            total.energy_pj.1 += row.energy_pj.1;
            total.opt.merge(&row.opt);
        }
        body.push(fmt_row(&total, "TOTAL"));
    }

    let title = format!(
        "# recipe optimizer attribution (n={n}, seed={seed}); per-rule cells are \
         fires/removed-uops per synthesized recipe"
    );
    render_rows(&title, &headers, &body)
}

/// One `prim_suite` row: one PrIM kernel on one substrate (default
/// optimizer configuration, compiled tier), wave counters plus the
/// chip-scaled time/energy projection.
#[derive(Debug, Clone)]
pub struct PrimSuiteRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Substrate the run executed on.
    pub backend: DatapathKind,
    /// Elapsed wave cycles.
    pub cycles: u64,
    /// Retired ISA instructions.
    pub instructions: u64,
    /// Dynamic micro-ops issued.
    pub uops: u64,
    /// Chip-scaled execution time, nanoseconds.
    pub time_ns: f64,
    /// Chip-scaled total energy, picojoules.
    pub energy_pj: f64,
}

/// Runs every PrIM-group kernel on each substrate and returns one row per
/// pair. Every run lane-verifies against the kernel's golden model inside
/// the harness — a mismatch is an error, not a silent row.
///
/// # Errors
///
/// Returns a message naming the kernel/substrate on a harness or
/// verification failure.
pub fn prim_suite(
    backends: &[DatapathKind],
    n: u64,
    seed: u64,
) -> Result<Vec<PrimSuiteRow>, String> {
    let mut rows = Vec::new();
    for &backend in backends {
        for kernel in kernels_in_group(KernelGroup::Prim) {
            let config = SimConfig::mpu(backend);
            let run = run_kernel(kernel.as_ref(), &config, n, seed)
                .map_err(|e| format!("{} on {backend:?}: {e}", kernel.name()))?;
            rows.push(PrimSuiteRow {
                kernel: kernel.name(),
                backend,
                cycles: run.wave.cycles,
                instructions: run.wave.instructions,
                uops: run.wave.uops,
                time_ns: run.time_ns,
                energy_pj: run.energy_pj,
            });
        }
    }
    Ok(rows)
}

/// Renders the PrIM suite rows as the `prim_suite` table: one line per
/// kernel/substrate pair, grouped by substrate in [`BACKEND_ORDER`].
/// Deterministic — the golden snapshot and `--assert` pin it.
pub fn render_prim_suite(rows: &[PrimSuiteRow], n: u64, seed: u64) -> String {
    let headers =
        ["kernel", "backend", "cycles", "instructions", "uops", "time", "energy"].map(String::from);
    let mut body: Vec<Vec<String>> = Vec::new();
    for &backend in BACKEND_ORDER {
        for row in rows.iter().filter(|r| r.backend == backend) {
            body.push(vec![
                row.kernel.to_string(),
                format!("{:?}", row.backend),
                row.cycles.to_string(),
                row.instructions.to_string(),
                row.uops.to_string(),
                fmt_time_ns(row.time_ns),
                fmt_energy_pj(row.energy_pj),
            ]);
        }
    }

    let title = format!(
        "# PrIM workload suite (n={n}, seed={seed}); wave counters plus chip-scaled \
         time/energy, lane-verified per run"
    );
    render_rows(&title, &headers, &body)
}

/// Renders a titled, right-aligned text table: the golden-pinned form of
/// [`print_table`].
fn render_rows(title: &str, headers: &[String], body: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in body {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = format!("{title}\n");
    out.push_str(&render_line(headers));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in body {
        out.push_str(&render_line(row));
        out.push('\n');
    }
    out
}

/// A RACER variant built from its shipped micro-op costs: `active` VRFs
/// per RFH, bit-pipelined or strictly serial.
fn racer_variant(name: &str, active: usize, pipelined: bool) -> SimConfig {
    let dp = DatapathBuilder::new(name, LogicFamily::Nor)
        .active_vrfs_per_rfh(active)
        .uop(MicroOpKind::Nor, 2, 0.020)
        .uop(MicroOpKind::Copy, 2, 0.025)
        .uop(MicroOpKind::Set, 2, 0.012);
    let dp = if pipelined { dp.bit_pipelined(DatapathModel::racer().pipeline_depth()) } else { dp };
    SimConfig::new(dp.build(), ExecutionMode::Mpu)
}

/// Runs the DESIGN §12 ablations that have a simulated result, each as
/// RACER against one variant (seed 1): bit-pipelining off on `sobel`, the
/// thermal limit raised from one to two active VRFs per RFH on `vecadd`
/// (paper footnote 2), and the template table cut from 1024 entries to
/// one on `crc32`. Every run lane-verifies inside the harness. Returns
/// the rendered table.
///
/// # Errors
///
/// Returns a message naming the kernel and variant on a harness or
/// verification failure.
pub fn ablations() -> Result<String, String> {
    const SEED: u64 = 1;
    let racer = SimConfig::mpu(DatapathKind::Racer);
    let mut one_template = racer.clone();
    one_template.template_entries = 1;
    let variants = [
        ("sobel", 1 << 12, ["bit-pipelined", "serial"], racer_variant("RACER-nopipe", 1, false)),
        (
            "vecadd",
            1 << 20,
            ["1 active VRF/RFH", "2 active VRFs/RFH"],
            racer_variant("RACER-2active", 2, true),
        ),
        ("crc32", 1 << 12, ["1024 templates", "1 template"], one_template),
    ];
    let kernels = all_kernels();
    let mut body = Vec::new();
    for (kernel, n, labels, variant) in &variants {
        let k = kernels.iter().find(|k| k.name() == *kernel).expect("kernel in the suite");
        for (label, config) in labels.iter().zip([&racer, variant]) {
            let run = run_kernel(k.as_ref(), config, *n, SEED)
                .map_err(|e| format!("{kernel} on {label}: {e}"))?;
            body.push(vec![
                kernel.to_string(),
                n.to_string(),
                label.to_string(),
                run.wave.cycles.to_string(),
                fmt_time_ns(run.time_ns),
                format!("{:.2}", run.wave.recipe_hit_rate()),
            ]);
        }
    }
    let headers = ["kernel", "n", "RACER variant", "wave cycles", "chip time", "template hit rate"]
        .map(String::from);
    let title = format!("# DESIGN §12 ablations on RACER (seed={SEED}); lane-verified per run");
    Ok(render_rows(&title, &headers, &body))
}

/// Substrate order for attribution tables and sweeps: the three paper
/// substrates first, then the pLUTo and DPU models.
pub const BACKEND_ORDER: &[DatapathKind] = &[
    DatapathKind::Racer,
    DatapathKind::Mimdram,
    DatapathKind::DualityCache,
    DatapathKind::Pluto,
    DatapathKind::Dpu,
];

/// Parses a backend name for the profiling CLI.
///
/// # Errors
///
/// Returns a message listing the accepted spellings.
pub fn parse_backend(name: &str) -> Result<DatapathKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "racer" => Ok(DatapathKind::Racer),
        "mimdram" => Ok(DatapathKind::Mimdram),
        "dualitycache" | "duality-cache" | "dc" => Ok(DatapathKind::DualityCache),
        "pluto" => Ok(DatapathKind::Pluto),
        "dpu" | "upmem" => Ok(DatapathKind::Dpu),
        other => Err(format!(
            "unknown backend {other:?}; expected racer, mimdram, dualitycache, pluto, or dpu"
        )),
    }
}

/// Parses a `--jobs N` / `--jobs=N` override from the process arguments
/// (the experiment binaries' worker-thread flag; `MPU_JOBS` applies when
/// absent).
pub fn parse_jobs() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix("--jobs=") {
            return v.parse().ok();
        }
    }
    None
}

/// Geometric mean (the paper's reported averages are means over ratios).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        log_sum += v.max(1e-300).ln();
        count += 1;
    }
    if count == 0 {
        return f64::NAN;
    }
    (log_sum / count as f64).exp()
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(headers.iter().map(|s| s.to_string()).collect()));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Formats a ratio like the paper ("1.79x", "67x").
pub fn fmt_ratio(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}x")
    } else if v >= 10.0 {
        format!("{v:.1}x")
    } else {
        format!("{v:.2}x")
    }
}

/// Formats a duration in the most readable unit.
pub fn fmt_time_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Formats energy (input picojoules).
pub fn fmt_energy_pj(pj: f64) -> String {
    if pj >= 1e12 {
        format!("{:.2} J", pj / 1e12)
    } else if pj >= 1e9 {
        format!("{:.2} mJ", pj / 1e9)
    } else if pj >= 1e6 {
        format!("{:.2} uJ", pj / 1e6)
    } else {
        format!("{pj:.0} pJ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_ratios() {
        let g = geomean([1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(1.789), "1.79x");
        assert_eq!(fmt_ratio(67.2), "67.2x");
        assert_eq!(fmt_ratio(156.0), "156x");
        assert_eq!(fmt_time_ns(1500.0), "1.50 us");
        assert_eq!(fmt_energy_pj(2.5e9), "2.50 mJ");
    }

    #[test]
    fn kernel_matrix_is_deterministic_across_job_counts() {
        let serial = kernel_matrix_jobs(DatapathKind::Racer, 1 << 10, 3, Some(1));
        let parallel = kernel_matrix_jobs(DatapathKind::Racer, 1 << 10, 3, Some(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.mpu, p.mpu, "{} MPU run diverged", s.kernel);
            assert_eq!(s.baseline, p.baseline, "{} Baseline run diverged", s.kernel);
        }
    }

    #[test]
    fn kernel_matrix_smoke_racer() {
        // Tiny n for speed; full sizes run in the fig binaries.
        let rows = kernel_matrix(DatapathKind::Racer, 1 << 12, 1);
        assert_eq!(rows.len(), 28);
        for row in &rows {
            assert!(row.mpu.verified && row.baseline.verified, "{}", row.kernel);
            assert!(row.mpu_speedup_vs_baseline() > 0.0);
        }
        // Control-flow-heavy groups must show MPU >> Baseline.
        let complex: Vec<f64> = rows
            .iter()
            .filter(|r| r.group == KernelGroup::Complex)
            .map(|r| r.mpu_speedup_vs_baseline())
            .collect();
        assert!(geomean(complex) > 2.0, "complex kernels gain strongly from the MPU");
    }
}
