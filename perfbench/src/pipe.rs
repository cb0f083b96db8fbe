//! `pipeline`: five PrIM-shaped `dpapi` pipelines on RACER and DPU, each
//! run on one MPU and sharded over four.
//!
//! `Pipeline::run_sharded` builds its MPUs without a recipe pool, so
//! every launch synthesizes its templates again; sharded reductions are
//! the only traffic that crosses the NoC. Every result is checked against
//! `Pipeline::oracle`, and the simulated statistics of each run must
//! repeat exactly from pass to pass.

use crate::report::{median, quantile, sample_setup, timed, HostSpeed, Report, UnitTimes};
use crate::Budget;
use dpapi::{MapOp, Pipeline, PipelineOutput, Pred, ReduceOp, ScanOp, ZipOp};
use mastodon::{SimConfig, Stats};
use pum_backend::DatapathKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Elements per pipeline input column.
const N: usize = 8192;
/// Substrates each pipeline runs on.
const SUBSTRATES: [(DatapathKind, &str); 2] =
    [(DatapathKind::Racer, "racer"), (DatapathKind::Dpu, "dpu")];
/// MPU counts each pipeline runs on.
const SHARDS: [usize; 2] = [1, 4];

struct Case {
    name: &'static str,
    pipeline: Pipeline,
    /// Whether the pipeline zips in the second column.
    zipped: bool,
    expected: PipelineOutput,
}

/// One pipeline on one substrate and MPU count.
struct Unit {
    case: usize,
    substrate: usize,
    mpus: usize,
}

/// The pipeline set with its seeded inputs and oracle outputs.
pub struct PipeSet {
    cases: Vec<Case>,
    configs: Vec<SimConfig>,
    units: Vec<Unit>,
    primary: Vec<u64>,
    column: Vec<u64>,
}

impl PipeSet {
    /// Generates the inputs from `seed`, builds the pipelines and
    /// computes every oracle output.
    pub fn setup(seed: u64) -> Result<PipeSet, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let primary: Vec<u64> = (0..N).map(|_| rng.random_range(0..1u64 << 32)).collect();
        let column: Vec<u64> = (0..N).map(|_| rng.random_range(0..1u64 << 32)).collect();
        let bin = rng.random_range(0..16u64);
        let offset = rng.random_range(1..1u64 << 16);
        let threshold = rng.random_range(1u64 << 30..3u64 << 30);
        let shapes = [
            (
                "filter_count",
                false,
                Pipeline::new().map(MapOp::And(15)).filter(Pred::Eq(bin)).reduce(ReduceOp::Count),
            ),
            ("zip_mul_sum", true, Pipeline::new().zip(0, ZipOp::Mul).reduce(ReduceOp::Sum)),
            ("map", false, Pipeline::new().map(MapOp::Mul(3)).map(MapOp::Add(offset))),
            ("scan", false, Pipeline::new().scan(ScanOp::Sum)),
            ("filter_select", false, Pipeline::new().filter(Pred::Lt(threshold))),
        ];
        let mut cases = Vec::new();
        for (name, zipped, pipeline) in shapes {
            let cols: Vec<&[u64]> = if zipped { vec![&column] } else { Vec::new() };
            let expected = pipeline.oracle(&primary, &cols).map_err(|e| format!("{name}: {e}"))?;
            cases.push(Case { name, pipeline, zipped, expected });
        }
        let configs = SUBSTRATES.iter().map(|&(k, _)| SimConfig::mpu(k)).collect();
        let units = (0..cases.len())
            .flat_map(|case| {
                (0..SUBSTRATES.len()).flat_map(move |substrate| {
                    SHARDS.iter().map(move |&mpus| Unit { case, substrate, mpus })
                })
            })
            .collect();
        Ok(PipeSet { cases, configs, units, primary, column })
    }

    fn describe(&self, unit: &Unit) -> String {
        format!("{} on {} x{}", self.cases[unit.case].name, SUBSTRATES[unit.substrate].1, unit.mpus)
    }

    /// Runs one unit and checks it against the oracle and the reference
    /// statistics (filled on first use).
    fn run_unit(
        &self,
        i: usize,
        reference: &mut [Option<(Stats, u64)>],
        report: &mut Report,
    ) -> Duration {
        let unit = &self.units[i];
        let case = &self.cases[unit.case];
        let cols: Vec<&[u64]> = if case.zipped { vec![&self.column] } else { Vec::new() };
        let config = &self.configs[unit.substrate];
        let (result, took) =
            timed(|| case.pipeline.run_sharded(config, unit.mpus, &self.primary, &cols));
        match result {
            Err(e) => report.check(false, || format!("{}: {e}", self.describe(unit))),
            Ok(run) => {
                let lanes_ok =
                    run.values == case.expected.values && run.reduced == case.expected.reduced;
                let got = (run.stats, run.launches);
                let stats_ok = reference[i].get_or_insert(got) == &got;
                report.check(lanes_ok && stats_ok, || {
                    let what = if lanes_ok {
                        "statistics changed between passes"
                    } else {
                        "differs from the oracle"
                    };
                    format!("{}: {what}", self.describe(unit))
                });
            }
        }
        took
    }

    /// One untraced pass over every unit.
    fn pass(
        &self,
        times: &mut UnitTimes,
        host: &mut HostSpeed,
        reference: &mut [Option<(Stats, u64)>],
        report: &mut Report,
    ) {
        times.begin(host);
        let (_, wall) = timed(|| {
            for i in 0..self.units.len() {
                let took = self.run_unit(i, reference, report);
                times.unit(i, took);
                times.poll(host);
            }
        });
        times.end(wall, host);
    }

    /// One traced pass: each unit's `Pipeline::lower` (a separate call;
    /// `run_sharded` lowers again inside) and its run, timed per case.
    fn traced_pass(
        &self,
        reference: &mut [Option<(Stats, u64)>],
        report: &mut Report,
    ) -> (Vec<Duration>, Duration, Duration) {
        let mut runs = vec![Duration::ZERO; self.cases.len()];
        let mut lower = Duration::ZERO;
        let (_, wall) = timed(|| {
            for i in 0..self.units.len() {
                let case = self.units[i].case;
                let (lowered, took) = timed(|| self.cases[case].pipeline.lower());
                lower += took;
                report.check(lowered.is_ok(), || {
                    format!("{}: lowering failed", self.describe(&self.units[i]))
                });
                runs[case] += self.run_unit(i, reference, report);
            }
        });
        (runs, lower, wall)
    }
}

/// Runs the workload for the budget and records its metrics.
pub fn run(seed: u64, budget: &Budget, trace: bool, report: &mut Report) -> Result<(), String> {
    // Set-up is sampled after every pass, so across the run.
    let mut host = HostSpeed::default();
    let set = PipeSet::setup(seed)?;
    let mut setups = Vec::new();
    let mut reference = vec![None; set.units.len()];
    let mut times = UnitTimes::new(set.units.len());
    let mut traced = Vec::new();
    while budget.more(times.len()) {
        set.pass(&mut times, &mut host, &mut reference, report);
        if trace {
            traced.push(set.traced_pass(&mut reference, report));
        }
        sample_setup(&mut setups, &mut host, || PipeSet::setup(seed));
    }
    report.metric("host_factor", host.factor(), "ratio");

    if !trace {
        report.metric("setup_s", median(&setups), "s");
        // dpapi keeps no memo between launches: every pass starts cold,
        // so both pass metrics report the same estimate.
        report.metric("warm_pass_s", times.pass_estimate(), "s");
        report.metric("cold_pass_s", times.pass_estimate(), "s");
        let per_run = times.unit_estimates();
        report.metric("p50_ms", quantile(&per_run, 0.50) * 1e3, "ms");
        report.metric("p99_ms", quantile(&per_run, 0.99) * 1e3, "ms");
        return Ok(());
    }

    for (c, case) in set.cases.iter().enumerate() {
        let per_pass: Vec<f64> = traced.iter().map(|(runs, _, _)| runs[c].as_secs_f64()).collect();
        report.metric(format!("pipe.run.{}_s", case.name), median(&per_pass), "s");
    }
    let lower: Vec<f64> = traced.iter().map(|(_, l, _)| l.as_secs_f64()).collect();
    report.metric("pipe.lower_s", median(&lower), "s");
    let walls: Vec<f64> = traced.iter().map(|(_, _, w)| w.as_secs_f64()).collect();
    let rest: Vec<f64> = traced
        .iter()
        .map(|(runs, l, w)| w.saturating_sub(runs.iter().sum::<Duration>() + *l).as_secs_f64())
        .collect();
    report.metric("pipe.unaccounted_s", median(&rest), "s");
    report.metric("pipe.trace_overhead_s", median(&walls) - times.pass_median(), "s");

    let runs: Vec<&(Stats, u64)> = reference.iter().flatten().collect();
    report.count("pipe.launches", runs.iter().map(|(_, l)| l).sum());
    report.count("pipe.sim.instructions", runs.iter().map(|(s, _)| s.instructions).sum());
    report.count("pipe.sim.uops", runs.iter().map(|(s, _)| s.uops).sum());
    report.count("pipe.sim.cycles", runs.iter().map(|(s, _)| s.cycles).sum());
    report.count("pipe.sim.messages", runs.iter().map(|(s, _)| s.messages_sent).sum());
    report.count("pipe.sim.noc_bytes", runs.iter().map(|(s, _)| s.noc_bytes).sum());
    Ok(())
}
