//! Deterministic performance-regression gate.
//!
//! Host benchmarks (`perfbench`) measure how fast the simulator runs;
//! this module instead pins down what the simulator *computes*: the
//! architectural counters (simulated cycles, waves, micro-ops, NoC bytes,
//! cache traffic) of the full 28-kernel sweep.
//! Those are bit-exact functions of the code, so the gate needs no noise
//! margins, no repeated runs, and no quiet machine — any drift is a real
//! behavior change, caught on the first CI run.
//!
//! The blessed baseline lives in `BENCH_kernels.json` at the repository
//! root. `cargo test -p bench` compares the current sweep against it and
//! fails on any counter moving beyond the tolerance (exact by default;
//! `MPU_PERF_TOL=0.02` allows ±2%). After an *intentional* performance
//! change, re-bless with `MPU_BLESS=1 cargo test -p bench`.

use microjson::Value;
use std::fmt::Write as _;
use workloads::{all_kernels, run_sweep_parallel, ChipRun, SweepTask};

/// The architectural counters pinned per kernel. Every field is an exact
/// integer — nothing here depends on the host machine or wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRecord {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label (`MPU:RACER`, ...).
    pub config: String,
    /// Simulated wave cycles.
    pub cycles: u64,
    /// ... split by pipeline stage.
    pub compute_cycles: u64,
    /// Control-path cycles.
    pub control_cycles: u64,
    /// Transfer cycles.
    pub transfer_cycles: u64,
    /// Retired ISA instructions.
    pub instructions: u64,
    /// Issued micro-ops.
    pub uops: u64,
    /// Thermal scheduler waves.
    pub scheduler_waves: u64,
    /// Recipe-cache hits.
    pub recipe_hits: u64,
    /// Recipe-cache misses.
    pub recipe_misses: u64,
    /// NoC messages sent.
    pub messages_sent: u64,
    /// NoC payload bytes.
    pub noc_bytes: u64,
    /// Chip-scaling instances for the standard problem size.
    pub instances: u64,
    /// Lowered ISA program length.
    pub isa_instructions: u64,
}

impl KernelRecord {
    /// Extracts the pinned counters from a harness run.
    pub fn from_run(run: &ChipRun) -> KernelRecord {
        KernelRecord {
            kernel: run.kernel.to_string(),
            config: run.label.clone(),
            cycles: run.wave.cycles,
            compute_cycles: run.wave.compute_cycles,
            control_cycles: run.wave.control_cycles,
            transfer_cycles: run.wave.transfer_cycles,
            instructions: run.wave.instructions,
            uops: run.wave.uops,
            scheduler_waves: run.wave.scheduler_waves,
            recipe_hits: run.wave.recipe_hits,
            recipe_misses: run.wave.recipe_misses,
            messages_sent: run.wave.messages_sent,
            noc_bytes: run.wave.noc_bytes,
            instances: run.instances,
            isa_instructions: run.isa_instructions as u64,
        }
    }

    fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("cycles", self.cycles),
            ("compute_cycles", self.compute_cycles),
            ("control_cycles", self.control_cycles),
            ("transfer_cycles", self.transfer_cycles),
            ("instructions", self.instructions),
            ("uops", self.uops),
            ("scheduler_waves", self.scheduler_waves),
            ("recipe_hits", self.recipe_hits),
            ("recipe_misses", self.recipe_misses),
            ("messages_sent", self.messages_sent),
            ("noc_bytes", self.noc_bytes),
            ("instances", self.instances),
        ]
    }
}

/// Problem size pinned by the gate (small: counters, not throughput).
pub const GATE_N: u64 = 1 << 12;
/// Input-data seed pinned by the gate.
pub const GATE_SEED: u64 = 42;

/// Runs the full kernel sweep on every shipped substrate and extracts one
/// record per kernel × backend, deterministically ordered by kernel name
/// then config label.
pub fn collect_records() -> Vec<KernelRecord> {
    let kernels = all_kernels();
    let configs: Vec<mastodon::SimConfig> =
        pum_backend::DatapathKind::ALL.iter().map(|&k| mastodon::SimConfig::mpu(k)).collect();
    let tasks: Vec<SweepTask<'_>> = kernels
        .iter()
        .flat_map(|k| {
            configs.iter().map(|config| SweepTask {
                kernel: k.as_ref(),
                config: config.clone(),
                n: GATE_N,
                seed: GATE_SEED,
            })
        })
        .collect();
    let mut records: Vec<KernelRecord> = run_sweep_parallel(tasks, None)
        .into_iter()
        .map(|r| KernelRecord::from_run(&r.expect("gate kernel must run verified")))
        .collect();
    records.sort_by(|a, b| (&a.kernel, &a.config).cmp(&(&b.kernel, &b.config)));
    records
}

/// Serializes records to the baseline JSON document (stable field order).
pub fn to_json(records: &[KernelRecord]) -> String {
    let arr = records
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("kernel".to_string(), Value::Str(r.kernel.clone())),
                ("config".to_string(), Value::Str(r.config.clone())),
            ];
            fields.extend(
                r.counters().into_iter().map(|(k, v)| (k.to_string(), Value::Num(v as f64))),
            );
            fields.push(("isa_instructions".to_string(), Value::Num(r.isa_instructions as f64)));
            Value::Obj(fields)
        })
        .collect();
    let doc = Value::Obj(vec![
        ("n".to_string(), Value::Num(GATE_N as f64)),
        ("seed".to_string(), Value::Num(GATE_SEED as f64)),
        ("kernels".to_string(), Value::Arr(arr)),
    ]);
    format!("{doc}\n")
}

/// Parses a baseline document written by [`to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn from_json(text: &str) -> Result<Vec<KernelRecord>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let kernels = doc
        .get("kernels")
        .and_then(Value::as_arr)
        .ok_or("baseline is missing the kernels array")?;
    let field = |v: &Value, key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("kernel entry is missing counter {key:?}"))
    };
    kernels
        .iter()
        .map(|k| {
            Ok(KernelRecord {
                kernel: k
                    .get("kernel")
                    .and_then(Value::as_str)
                    .ok_or("kernel entry is missing its name")?
                    .to_string(),
                config: k
                    .get("config")
                    .and_then(Value::as_str)
                    .ok_or("kernel entry is missing its config label")?
                    .to_string(),
                cycles: field(k, "cycles")?,
                compute_cycles: field(k, "compute_cycles")?,
                control_cycles: field(k, "control_cycles")?,
                transfer_cycles: field(k, "transfer_cycles")?,
                instructions: field(k, "instructions")?,
                uops: field(k, "uops")?,
                scheduler_waves: field(k, "scheduler_waves")?,
                recipe_hits: field(k, "recipe_hits")?,
                recipe_misses: field(k, "recipe_misses")?,
                messages_sent: field(k, "messages_sent")?,
                noc_bytes: field(k, "noc_bytes")?,
                instances: field(k, "instances")?,
                isa_instructions: field(k, "isa_instructions")?,
            })
        })
        .collect()
}

/// Compares a sweep against the blessed baseline. Returns one line per
/// violation: a counter moving beyond `tol` (relative, 0.0 = exact), a
/// kernel missing from either side, or a changed config label.
pub fn compare(baseline: &[KernelRecord], current: &[KernelRecord], tol: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.kernel == b.kernel && c.config == b.config) else {
            violations.push(format!("{} [{}]: missing from the current sweep", b.kernel, b.config));
            continue;
        };
        for ((name, was), (_, now)) in b.counters().into_iter().zip(c.counters()) {
            let drift = if was == now {
                0.0
            } else if was == 0 {
                f64::INFINITY
            } else {
                (now as f64 - was as f64).abs() / was as f64
            };
            if drift > tol {
                violations.push(format!(
                    "{} [{}]: {name} {was} -> {now} ({:+.2}%, tol ±{:.2}%)",
                    b.kernel,
                    b.config,
                    (now as f64 - was as f64) / was.max(1) as f64 * 100.0,
                    tol * 100.0
                ));
            }
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.kernel == c.kernel && b.config == c.config) {
            violations.push(format!(
                "{} [{}]: not in the baseline (bless with MPU_BLESS=1)",
                c.kernel, c.config
            ));
        }
    }
    violations
}

/// Renders the failure report written alongside a gate failure.
pub fn render_report(violations: &[String], tol: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "MPU perf-regression gate: {} violation(s)", violations.len());
    let _ = writeln!(out, "sweep: n={GATE_N} seed={GATE_SEED} tol=±{:.2}%", tol * 100.0);
    let _ = writeln!(out);
    for v in violations {
        let _ = writeln!(out, "  {v}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "These are simulated architectural counters, not wall clock: any drift\n\
         is a behavior change. If intentional, re-bless the baseline with\n\
         MPU_BLESS=1 cargo test -p bench, and include BENCH_kernels.json in\n\
         the change."
    );
    out
}

/// Absolute path of the blessed baseline (`BENCH_kernels.json` at the
/// repository root).
pub fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json")
}

/// Gate tolerance: `MPU_PERF_TOL` (relative, e.g. `0.02`), default exact.
pub fn tolerance() -> f64 {
    std::env::var("MPU_PERF_TOL").ok().and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kernel: &str, cycles: u64) -> KernelRecord {
        KernelRecord {
            kernel: kernel.to_string(),
            config: "MPU:RACER".to_string(),
            cycles,
            compute_cycles: cycles / 2,
            control_cycles: cycles / 4,
            transfer_cycles: 0,
            instructions: 10,
            uops: 100,
            scheduler_waves: 1,
            recipe_hits: 3,
            recipe_misses: 2,
            messages_sent: 0,
            noc_bytes: 0,
            instances: 4,
            isa_instructions: 12,
        }
    }

    #[test]
    fn json_round_trips() {
        let records = vec![record("vecadd", 1000), record("dot", 2000)];
        let parsed = from_json(&to_json(&records)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn exact_match_passes_and_drift_fails() {
        let base = vec![record("vecadd", 1000)];
        assert!(compare(&base, &base, 0.0).is_empty());
        let mut drifted = base.clone();
        drifted[0].cycles = 1100;
        let violations = compare(&base, &drifted, 0.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cycles 1000 -> 1100"), "{violations:?}");
        assert!(compare(&base, &drifted, 0.2).is_empty(), "10% drift within ±20% tol");
    }

    #[test]
    fn missing_and_extra_kernels_are_violations() {
        let base = vec![record("vecadd", 1000)];
        let other = vec![record("dot", 500)];
        let violations = compare(&base, &other, 0.5);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| v.contains("missing from the current sweep")));
        assert!(violations.iter().any(|v| v.contains("not in the baseline")));
    }

    #[test]
    fn report_names_every_violation() {
        let report = render_report(&["a: cycles 1 -> 2".to_string()], 0.0);
        assert!(report.contains("1 violation"));
        assert!(report.contains("a: cycles 1 -> 2"));
        assert!(report.contains("MPU_BLESS=1"));
    }
}
