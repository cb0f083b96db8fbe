//! `sweep`: the 28 kernels × 5 substrates at n = 4096, run serially.
//!
//! Untraced passes go through the public harness call
//! [`workloads::run_kernel_pooled`], one task after another. A cold pass
//! gets a fresh [`RecipePool`]; a warm pass reuses one shared pool. The
//! traced pass repeats the harness's steps itself so that each layer can
//! be timed: `Kernel::build`, recipe synthesis, optimization, compilation
//! and fusion into the pool, register loads, `Mpu::run`, and readback
//! with the golden compare.

use crate::report::{median, quantile, sample_setup, timed, HostSpeed, Report, UnitTimes};
use crate::Budget;
use mastodon::{Mpu, RecipePool, SimConfig, Stats};
use microjson::Value;
use mpu_isa::{Instruction, MpuId, Program};
use pum_backend::{build_recipe, optimize, DatapathKind, MicroOpKind, RecipeCtx};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use workloads::{all_kernels, run_kernel_pooled, ChipRun, Kernel};

/// Problem size of every task.
const N: u64 = 4096;
/// Seed at which the simulated counters must equal `BENCH_kernels.json`.
const GOLDEN_SEED: u64 = 42;
/// Ensemble members per wave, chosen exactly as the workloads harness
/// chooses them (one VRF per RFH, skipping the staging VRF).
const SIM_VRFS: usize = 8;

/// The counters `BENCH_kernels.json` pins, in its field names.
fn pinned(run: &ChipRun) -> [(&'static str, u64); 13] {
    let w = &run.wave;
    [
        ("cycles", w.cycles),
        ("compute_cycles", w.compute_cycles),
        ("control_cycles", w.control_cycles),
        ("transfer_cycles", w.transfer_cycles),
        ("instructions", w.instructions),
        ("uops", w.uops),
        ("scheduler_waves", w.scheduler_waves),
        ("recipe_hits", w.recipe_hits),
        ("recipe_misses", w.recipe_misses),
        ("messages_sent", w.messages_sent),
        ("noc_bytes", w.noc_bytes),
        ("instances", run.instances),
        ("isa_instructions", run.isa_instructions as u64),
    ]
}

/// Pinned counters keyed by `(kernel, config label)`.
type Golden = BTreeMap<(String, String), Value>;

fn load_golden() -> Result<Golden, String> {
    let text = std::fs::read_to_string("BENCH_kernels.json")
        .map_err(|e| format!("cannot read BENCH_kernels.json: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("BENCH_kernels.json: {e:?}"))?;
    let records = doc
        .get("kernels")
        .and_then(Value::as_arr)
        .ok_or("BENCH_kernels.json has no `kernels` array")?;
    let mut golden = Golden::new();
    for record in records {
        let field = |k: &str| record.get(k).and_then(Value::as_str).map(str::to_string);
        let (Some(kernel), Some(config)) = (field("kernel"), field("config")) else {
            return Err("BENCH_kernels.json record without kernel/config".into());
        };
        golden.insert((kernel, config), record.clone());
    }
    Ok(golden)
}

/// Cost table handed to the optimizer, rebuilt from the datapath's public
/// per-micro-op costs exactly as `DatapathModel::recipe_with_stats`
/// builds it from its private ones.
type CostTable = BTreeMap<MicroOpKind, (u64, f64)>;

/// One kernel on one substrate.
struct Task {
    kernel: usize,
    config: usize,
}

/// The sweep's fixed inputs.
pub struct Sweep {
    kernels: Vec<Box<dyn Kernel>>,
    configs: Vec<SimConfig>,
    costs: Vec<CostTable>,
    tasks: Vec<Task>,
    seed: u64,
    golden: Option<Golden>,
}

/// Host time per layer over one traced pass.
#[derive(Default, Clone)]
struct Spans {
    build: Duration,
    synth: Duration,
    opt: Duration,
    compile: Duration,
    fuse: Duration,
    load: Duration,
    exec: [Duration; 5],
    exec_fused: Duration,
    exec_fallback: Duration,
    readback: Duration,
}

impl Spans {
    /// Sum of the disjoint layer spans (the fused/fallback split is a
    /// second view of `exec` and is not added again).
    fn total(&self) -> Duration {
        self.build
            + self.synth
            + self.opt
            + self.compile
            + self.fuse
            + self.load
            + self.exec.iter().sum::<Duration>()
            + self.readback
    }
}

/// Wave members for `g`, as the workloads harness lays them out.
fn members(g: &pum_backend::Geometry) -> Vec<(u16, u16)> {
    let count = SIM_VRFS.min(g.max_active_vrfs_per_mpu()).max(1);
    (0..count).map(|i| ((i % g.rfhs_per_mpu) as u16, ((i / g.rfhs_per_mpu) * 2) as u16)).collect()
}

/// Straight-line ensemble bodies the simulator's fused tier will ask the
/// pool to fuse: a `COMPUTE` header run followed by fusable instructions
/// up to `COMPUTE_DONE`.
fn fusable_bodies(program: &Program) -> Vec<&[Instruction]> {
    let ins = program.instructions();
    let mut bodies = Vec::new();
    let mut pc = 0;
    while pc < ins.len() {
        if !matches!(ins[pc], Instruction::Compute { .. }) {
            pc += 1;
            continue;
        }
        while matches!(ins.get(pc), Some(Instruction::Compute { .. })) {
            pc += 1;
        }
        let start = pc;
        let mut end = start;
        loop {
            match ins.get(end) {
                Some(Instruction::ComputeDone) => {
                    bodies.push(&ins[start..end]);
                    break;
                }
                Some(
                    Instruction::Binary { .. }
                    | Instruction::Unary { .. }
                    | Instruction::Compare { .. }
                    | Instruction::Fuzzy { .. }
                    | Instruction::Cas { .. }
                    | Instruction::Init { .. }
                    | Instruction::SetMask { .. }
                    | Instruction::Unmask
                    | Instruction::Nop,
                ) => end += 1,
                _ => break,
            }
        }
    }
    bodies
}

impl Sweep {
    /// Builds the kernel suite and substrate configurations, builds every
    /// task once, and (at the golden seed) loads the pinned counters.
    pub fn setup(seed: u64) -> Result<Sweep, String> {
        let kernels = all_kernels();
        let configs: Vec<SimConfig> =
            DatapathKind::ALL.iter().map(|&k| SimConfig::mpu(k)).collect();
        let costs = configs
            .iter()
            .map(|c| {
                let dp = &c.datapath;
                dp.supports()
                    .into_iter()
                    .map(|k| (k, (dp.uop_cycles(k), dp.uop_energy_pj(k, 1))))
                    .collect()
            })
            .collect();
        let tasks: Vec<Task> = (0..kernels.len())
            .flat_map(|kernel| (0..configs.len()).map(move |config| Task { kernel, config }))
            .collect();
        for task in &tasks {
            let g = configs[task.config].datapath.geometry();
            std::hint::black_box(kernels[task.kernel].build(&g, &members(&g), seed));
        }
        let golden = if seed == GOLDEN_SEED { Some(load_golden()?) } else { None };
        Ok(Sweep { kernels, configs, costs, tasks, seed, golden })
    }

    fn describe(&self, i: usize) -> String {
        let t = &self.tasks[i];
        format!("{} on {}", self.kernels[t.kernel].name(), self.configs[t.config].label())
    }

    /// One untraced pass through the harness. The first pass fills
    /// `reference`; later passes must reproduce it exactly.
    fn pass(
        &self,
        pool: &Arc<RecipePool>,
        times: &mut UnitTimes,
        host: &mut HostSpeed,
        reference: &mut [Option<ChipRun>],
        report: &mut Report,
    ) {
        times.begin(host);
        let (_, wall) = timed(|| {
            for (i, task) in self.tasks.iter().enumerate() {
                let kernel = self.kernels[task.kernel].as_ref();
                let config = &self.configs[task.config];
                let (result, took) =
                    timed(|| run_kernel_pooled(kernel, config, N, self.seed, Some(pool)));
                times.unit(i, took);
                times.poll(host);
                match (result, &reference[i]) {
                    (Err(e), _) => report.check(false, || format!("{}: {e}", self.describe(i))),
                    (Ok(run), Some(want)) => report.check(run == *want, || {
                        format!("{}: simulated result differs between passes", self.describe(i))
                    }),
                    (Ok(run), None) => {
                        report.check(true, String::new);
                        reference[i] = Some(run);
                    }
                }
            }
        });
        times.end(wall, host);
    }

    /// Compares the reference counters with `BENCH_kernels.json`.
    fn check_golden(&self, reference: &[Option<ChipRun>], report: &mut Report) {
        let Some(golden) = &self.golden else { return };
        for run in reference.iter().flatten() {
            let key = (run.kernel.to_string(), run.label.clone());
            let ok = golden.get(&key).is_some_and(|record| {
                pinned(run)
                    .iter()
                    .all(|&(name, v)| record.get(name).and_then(Value::as_u64) == Some(v))
            });
            report.check(ok, || {
                format!("{} on {}: counters differ from BENCH_kernels.json", run.kernel, run.label)
            });
        }
    }

    /// Fills a cold pool for `program` one layer at a time: synthesis,
    /// optimization and compilation of every recipe-bearing instruction
    /// not yet in the pool, then fusion of every straight-line body.
    fn prewarm(
        &self,
        config: usize,
        program: &Program,
        pool: &RecipePool,
        spans: &mut Spans,
        seen: &mut HashSet<(RecipeCtx, u32)>,
        fused: &mut HashSet<(usize, Vec<u32>)>,
    ) {
        let dp = &self.configs[config].datapath;
        let ctx = dp.recipe_ctx();
        let costs = &self.costs[config];
        let cost = |k: MicroOpKind| costs.get(&k).copied();
        for instr in program.instructions() {
            if !seen.insert((ctx, instr.encode())) {
                continue;
            }
            let (template, took) = timed(|| build_recipe(ctx, instr));
            spans.synth += took;
            let Some(template) = template else { continue };
            let ((recipe, _), took) =
                timed(|| optimize(&template, dp.family(), dp.opt_config(), &cost));
            spans.opt += took;
            pool.preload(ctx, instr, recipe);
            let (_, took) = timed(|| pool.get_or_build_compiled(dp, instr));
            spans.compile += took;
        }
        if self.configs[config].trace_ensembles {
            for body in fusable_bodies(program) {
                if fused.insert((config, body.iter().map(Instruction::encode).collect())) {
                    let (_, took) = timed(|| pool.get_or_fuse_trace(dp, body));
                    spans.fuse += took;
                }
            }
        }
    }

    /// One traced pass: the harness's steps, each timed. A cold pass
    /// fills its fresh pool layer by layer before each task runs.
    fn traced_pass(
        &self,
        pool: &Arc<RecipePool>,
        cold: bool,
        reference: &[Option<ChipRun>],
        report: &mut Report,
    ) -> (Spans, Duration) {
        let mut spans = Spans::default();
        let mut seen = HashSet::new();
        let mut fused = HashSet::new();
        let (_, wall) = timed(|| {
            for (i, task) in self.tasks.iter().enumerate() {
                let kernel = self.kernels[task.kernel].as_ref();
                let config = &self.configs[task.config];
                let g = config.datapath.geometry();
                let (built, took) = timed(|| kernel.build(&g, &members(&g), self.seed));
                spans.build += took;
                if cold {
                    self.prewarm(
                        task.config,
                        &built.program,
                        pool,
                        &mut spans,
                        &mut seen,
                        &mut fused,
                    );
                }
                let mut mpu = Mpu::with_pool(config.clone(), MpuId(0), Arc::clone(pool));
                let (loaded, took) = timed(|| {
                    built.inputs.iter().try_for_each(|((rfh, vrf, reg), values)| {
                        mpu.write_register(*rfh, *vrf, *reg, values)
                    })
                });
                spans.load += took;
                let (ran, took) = timed(|| loaded.and_then(|()| mpu.run(&built.program)));
                spans.exec[task.config] += took;
                if mpu.tier_counts().1 > 0 {
                    spans.exec_fallback += took;
                } else {
                    spans.exec_fused += took;
                }
                let (verified, took) = timed(|| {
                    built.outputs.iter().zip(&built.expected).all(|(&(rfh, vrf, reg), want)| {
                        mpu.read_register(rfh, vrf, reg).is_ok_and(|got| {
                            let lanes = got.len().min(want.len());
                            got[..lanes] == want[..lanes]
                        })
                    })
                });
                spans.readback += took;
                let same: Option<Stats> = reference[i].as_ref().map(|r| r.wave);
                report.check(verified && ran.as_ref().ok() == same.as_ref(), || {
                    format!("{}: traced pass diverged ({ran:?})", self.describe(i))
                });
            }
        });
        (spans, wall)
    }
}

/// Substrate names used in metric names, in `DatapathKind::ALL` order.
const SUBSTRATES: [&str; 5] = ["racer", "mimdram", "dualitycache", "pluto", "dpu"];

/// Runs the workload for the budget and records its metrics.
pub fn run(seed: u64, budget: &Budget, trace: bool, report: &mut Report) -> Result<(), String> {
    // Set-up is sampled after every cycle of passes, so across the run.
    let mut host = HostSpeed::default();
    let sweep = Sweep::setup(seed)?;
    let mut setups = Vec::new();
    let tasks = sweep.tasks.len();

    // The first pass fills the shared pool and records the reference
    // results every later pass must reproduce.
    let shared = Arc::new(RecipePool::new());
    let mut reference: Vec<Option<ChipRun>> = vec![None; tasks];
    let mut first = UnitTimes::new(tasks);
    sweep.pass(&shared, &mut first, &mut host, &mut reference, report);
    sweep.check_golden(&reference, report);
    let after_first = shared.stats();

    let mut cold = UnitTimes::new(tasks);
    let mut warm = UnitTimes::new(tasks);
    if !trace {
        while budget.more(cold.len().min(warm.len() / 2)) {
            sweep.pass(&Arc::new(RecipePool::new()), &mut cold, &mut host, &mut reference, report);
            for _ in 0..2 {
                sweep.pass(&shared, &mut warm, &mut host, &mut reference, report);
            }
            sample_setup(&mut setups, &mut host, || Sweep::setup(seed));
        }
        report.metric("setup_s", median(&setups), "s");
        report.metric("cold_pass_s", cold.pass_estimate(), "s");
        report.metric("warm_pass_s", warm.pass_estimate(), "s");
        let per_task = warm.unit_estimates();
        report.metric("p50_ms", quantile(&per_task, 0.50) * 1e3, "ms");
        report.metric("p99_ms", quantile(&per_task, 0.99) * 1e3, "ms");
        return Ok(());
    }

    let mut cold_spans = Vec::new();
    let mut warm_spans = Vec::new();
    let mut cold_pool_stats = None;
    let before_warm = shared.stats();
    let mut warm_lookups = 0;
    while budget.more(cold_spans.len()) {
        let pool = Arc::new(RecipePool::new());
        sweep.pass(&pool, &mut cold, &mut host, &mut reference, report);
        cold_pool_stats = Some((pool.stats(), pool.len()));
        cold_spans.push(sweep.traced_pass(&Arc::new(RecipePool::new()), true, &reference, report));
        let before = shared.stats();
        sweep.pass(&shared, &mut warm, &mut host, &mut reference, report);
        warm_lookups = shared.stats().lookups - before.lookups;
        warm_spans.push(sweep.traced_pass(&shared, false, &reference, report));
        sample_setup(&mut setups, &mut host, || Sweep::setup(seed));
    }
    report.metric("host_factor", host.factor(), "ratio");
    let warm_misses = shared.stats().misses - before_warm.misses;
    report.count("sweep.pool.warm_misses", warm_misses);
    report.count("sweep.pool.warm_lookups", warm_lookups);
    if let Some((stats, templates)) = cold_pool_stats {
        report.count("sweep.pool.cold_lookups", stats.lookups);
        report.count("sweep.pool.cold_misses", stats.misses);
        report.count("sweep.pool.templates", templates as u64);
    }
    report.count("sweep.pool.first_pass_misses", after_first.misses);

    let med = |spans: &[(Spans, Duration)], f: &dyn Fn(&Spans) -> Duration| {
        median(&spans.iter().map(|(s, _)| f(s).as_secs_f64()).collect::<Vec<_>>())
    };
    report.metric("sweep.build_s", med(&warm_spans, &|s| s.build), "s");
    report.metric("sweep.synth_s", med(&cold_spans, &|s| s.synth), "s");
    report.metric("sweep.opt_s", med(&cold_spans, &|s| s.opt), "s");
    report.metric("sweep.compile_s", med(&cold_spans, &|s| s.compile), "s");
    report.metric("sweep.fuse_s", med(&cold_spans, &|s| s.fuse), "s");
    for (i, name) in SUBSTRATES.iter().enumerate() {
        report.metric(format!("sweep.exec.{name}_s"), med(&warm_spans, &|s| s.exec[i]), "s");
    }
    report.metric("sweep.exec.fused_s", med(&warm_spans, &|s| s.exec_fused), "s");
    report.metric("sweep.exec.fallback_s", med(&warm_spans, &|s| s.exec_fallback), "s");
    report.metric("sweep.load_s", med(&warm_spans, &|s| s.load), "s");
    report.metric("sweep.readback_s", med(&warm_spans, &|s| s.readback), "s");
    for (label, spans, untraced) in [("cold", &cold_spans, &cold), ("warm", &warm_spans, &warm)] {
        let walls: Vec<f64> = spans.iter().map(|(_, w)| w.as_secs_f64()).collect();
        let rest: Vec<f64> =
            spans.iter().map(|(s, w)| w.saturating_sub(s.total()).as_secs_f64()).collect();
        let share: Vec<f64> =
            spans.iter().map(|(s, w)| s.total().as_secs_f64() / w.as_secs_f64()).collect();
        report.metric(format!("sweep.{label}.traced_pass_s"), median(&walls), "s");
        report.metric(format!("sweep.{label}.unaccounted_s"), median(&rest), "s");
        report.metric(format!("sweep.{label}.accounted_frac"), median(&share), "ratio");
        report.metric(
            format!("sweep.{label}.trace_overhead_s"),
            median(&walls) - untraced.pass_median(),
            "s",
        );
    }

    let runs: Vec<&ChipRun> = reference.iter().flatten().collect();
    report.count("sweep.tiers.fused", runs.iter().map(|r| r.tiers.0).sum());
    report.count("sweep.tiers.fallback", runs.iter().map(|r| r.tiers.1).sum());
    report.count("sweep.sim.instructions", runs.iter().map(|r| r.wave.instructions).sum());
    report.count("sweep.sim.uops", runs.iter().map(|r| r.wave.uops).sum());
    report.count("sweep.sim.cycles", runs.iter().map(|r| r.wave.cycles).sum());
    Ok(())
}
