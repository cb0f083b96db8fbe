//! Fault-coverage sweep: generated cases executed under seeded fault
//! injection with a recovery policy, classified against the fault-free
//! word-level reference model.
//!
//! Every trial runs one generated [`Case`](crate::Case) twice:
//!
//! 1. through the [`refmodel`] interpreter with no faults — the oracle;
//! 2. through the cycle-accurate simulator with the fault layer armed at
//!    the trial's seed and the sweep's per-micro-op transient rate, under
//!    one of three policies ([`PolicyKind`]).
//!
//! The outcome is classified per trial:
//!
//! * **correct** — the run finished and every architected register matches
//!   the oracle lane-exactly (no fault landed, the fault was masked, or
//!   the policy corrected it);
//! * **SDC** — silent data corruption: the run finished but some register
//!   differs from the oracle;
//! * **DUE** — detected unrecoverable error: the run aborted with
//!   `UncorrectedFault` (or another fault-rooted error) after exhausting
//!   its retry budget. Detected-but-not-corrected is the *safe* failure
//!   mode; SDC is the one redundancy exists to eliminate.
//!
//! [`run_sweep`] aggregates these into a [`SweepReport`];
//! [`remap_recovers`] separately proves that a permanent stuck-at lane
//! plus spare-lane remapping reproduces the reference result at reduced
//! logical capacity.

use crate::case::Case;
use crate::diff::{ref_geometry, LaneBox};
use crate::generate::{generate, BOX_RFHS, BOX_VRFS};
use mastodon::{Redundancy, SimConfig, StuckLane, System};
use mpu_isa::Program;
use pum_backend::DatapathKind;
use refmodel::RefSystem;
use std::fmt::Write as _;

/// Registers compared against the oracle (the division scratch registers
/// `r14`/`r15` are implementation-defined and excluded, matching the
/// differential harness).
const CMP_REGS: u8 = 14;

/// The recovery policy a sweep runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Faults injected, no detection or recovery: measures the raw SDC
    /// rate of the fault model (every surviving fault is silent).
    Inject,
    /// Dual modular redundancy with bounded retry, then escalation.
    Dmr,
    /// Triple modular redundancy with bitwise majority voting.
    Tmr,
}

impl PolicyKind {
    /// All sweepable policies, in report order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Inject, PolicyKind::Dmr, PolicyKind::Tmr];

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Inject => "inject",
            PolicyKind::Dmr => "dmr",
            PolicyKind::Tmr => "tmr",
        }
    }

    fn apply(self, config: &mut SimConfig) {
        match self {
            PolicyKind::Inject => {}
            PolicyKind::Dmr => {
                config.recovery.redundancy = Redundancy::Dmr;
                config.recovery.max_retries = 4;
            }
            PolicyKind::Tmr => {
                config.recovery.redundancy = Redundancy::Tmr;
            }
        }
    }
}

/// Parameters of one fault-coverage sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Backend the cases run on.
    pub backend: DatapathKind,
    /// Base seed; trial `t` uses case seed `seed + t` and arms the fault
    /// layer with the same value.
    pub seed: u64,
    /// Per-micro-op transient flip rate.
    pub rate: f64,
    /// Number of generated cases to run.
    pub trials: u64,
    /// Recovery policy under test.
    pub policy: PolicyKind,
}

/// Aggregated outcome of a sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Trials that ran to classification (incomparable cases are skipped).
    pub trials: u64,
    /// Generated cases skipped because the reference model rejects them.
    pub skipped: u64,
    /// Total transient faults that landed (sum of `stats.faults.injected`
    /// over successful runs; aborted runs don't report stats).
    pub injected: u64,
    /// Trials whose successful run reported at least one landed fault.
    pub faulty_trials: u64,
    /// Faults detected by the policy (sum of `stats.faults.detected`).
    pub detected: u64,
    /// Faults corrected by the policy (sum of `stats.faults.corrected`).
    pub corrected: u64,
    /// Trials that finished with every register matching the oracle.
    pub correct_trials: u64,
    /// Trials that finished with a register mismatch (silent corruption).
    pub sdc_trials: u64,
    /// Trials aborted by the policy after detection (safe failure).
    pub due_trials: u64,
    /// Trials whose run raised at least one detection event (aborted
    /// trials count separately as [`SweepReport::due_trials`]).
    pub detected_trials: u64,
}

impl SweepReport {
    /// Fraction of affected trials the policy detected, in `[0, 1]`
    /// (1.0 when no trial was affected).
    pub fn detection_rate(&self) -> f64 {
        let affected = self.sdc_trials + self.due_trials + self.detected_trials;
        if affected == 0 {
            1.0
        } else {
            (self.detected_trials + self.due_trials) as f64 / affected as f64
        }
    }

    /// Fraction of classified trials that ended in silent corruption.
    pub fn sdc_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.sdc_trials as f64 / self.trials as f64
        }
    }
}

fn oracle_boxes(backend: DatapathKind, case: &Case, programs: &[Program]) -> Option<Vec<LaneBox>> {
    let mut sys = RefSystem::new(ref_geometry(backend), case.mpus.len());
    for (id, (mpu, program)) in case.mpus.iter().zip(programs).enumerate() {
        sys.set_program(id, program.clone());
        for input in &mpu.inputs {
            sys.mpu_mut(id).write_register(input.rfh, input.vrf, input.reg, &input.values);
        }
    }
    sys.run().ok()?;
    Some(
        (0..case.mpus.len())
            .map(|id| {
                box_keys()
                    .map(|key| (key, sys.mpu_mut(id).read_register(key.0, key.1, key.2)))
                    .collect()
            })
            .collect(),
    )
}

fn box_keys() -> impl Iterator<Item = (u16, u16, u8)> {
    (0..BOX_RFHS).flat_map(|rfh| {
        (0..BOX_VRFS).flat_map(move |vrf| (0..CMP_REGS).map(move |reg| (rfh, vrf, reg)))
    })
}

/// Runs one fault-coverage sweep and aggregates the per-trial outcomes.
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for t in 0..cfg.trials {
        let trial_seed = cfg.seed.wrapping_add(t);
        let case = generate(trial_seed);
        let programs = match case.programs() {
            Ok(p) => p,
            Err(_) => {
                report.skipped += 1;
                continue;
            }
        };
        let Some(oracle) = oracle_boxes(cfg.backend, &case, &programs) else {
            report.skipped += 1;
            continue;
        };

        let mut config = SimConfig::mpu(cfg.backend);
        config.fault.seed = Some(trial_seed);
        config.fault.transient_rate = cfg.rate;
        // A flip that lands in a loop-counter register can turn a bounded
        // loop into a runaway one; the watchdog bounds every trial. Its
        // aborts classify as DUE (the hang is detected, not silent).
        config.recovery.watchdog_instructions = Some(100_000);
        cfg.policy.apply(&mut config);

        let mut sys = System::new(config, case.mpus.len());
        let mut loaded = true;
        for (id, (mpu, program)) in case.mpus.iter().zip(&programs).enumerate() {
            sys.set_program(id, program.clone());
            for input in &mpu.inputs {
                loaded &= sys
                    .mpu_mut(id)
                    .write_register(input.rfh, input.vrf, input.reg, &input.values)
                    .is_ok();
            }
        }
        if !loaded {
            report.skipped += 1;
            continue;
        }
        report.trials += 1;
        match sys.run() {
            Err(_) => {
                // The policy detected a fault and escalated: safe failure.
                report.due_trials += 1;
            }
            Ok(stats) => {
                report.injected += stats.faults.injected;
                report.detected += stats.faults.detected;
                report.corrected += stats.faults.corrected;
                if stats.faults.injected > 0 {
                    report.faulty_trials += 1;
                }
                if stats.faults.detected > 0 {
                    report.detected_trials += 1;
                }
                let mut matches = true;
                'cmp: for (id, oracle_box) in oracle.iter().enumerate() {
                    for ((rfh, vrf, reg), want) in oracle_box {
                        match sys.mpu_mut(id).read_register(*rfh, *vrf, *reg) {
                            Ok(got) if &got == want => {}
                            _ => {
                                matches = false;
                                break 'cmp;
                            }
                        }
                    }
                }
                if matches {
                    report.correct_trials += 1;
                } else {
                    report.sdc_trials += 1;
                }
            }
        }
    }
    report
}

/// Renders a sweep report as the text block the `fault_sweep` binary
/// prints and uploads.
pub fn render_report(cfg: &SweepConfig, report: &SweepReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy={} backend={:?} seed={:#x} rate={:e} trials={}",
        cfg.policy.name(),
        cfg.backend,
        cfg.seed,
        cfg.rate,
        cfg.trials
    );
    let _ = writeln!(
        out,
        "  classified={} skipped={} faulty={} injected={} detected={} corrected={}",
        report.trials,
        report.skipped,
        report.faulty_trials,
        report.injected,
        report.detected,
        report.corrected
    );
    let _ = writeln!(
        out,
        "  correct={} sdc={} due={} detection_rate={:.4} sdc_rate={:.4}",
        report.correct_trials,
        report.sdc_trials,
        report.due_trials,
        report.detection_rate(),
        report.sdc_rate()
    );
    out
}

/// Proves permanent-fault recovery: a stuck-at lane plus spare-lane
/// remapping must reproduce the fault-free reference result at the
/// reduced logical capacity.
///
/// # Errors
///
/// Returns a description of the first divergence (or simulator error).
pub fn remap_recovers(backend: DatapathKind, seed: u64) -> Result<(), String> {
    let geometry = ref_geometry(backend);
    let lanes = geometry.lanes_per_vrf;
    let spare_lanes = 4usize;
    let logical = lanes - spare_lanes;
    let stuck_lane = (seed as usize) % lanes;

    let program =
        Program::parse_asm("COMPUTE h0 v0\nADD r0 r1 r2\nMUL r2 r1 r3\nSUB r3 r0 r4\nCOMPUTE_DONE")
            .map_err(|e| e.to_string())?;
    let a: Vec<u64> = (0..logical as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
    let b: Vec<u64> = (0..logical as u64).map(|i| i.wrapping_add(3)).collect();

    // Oracle: fault-free reference model over the logical lanes.
    let mut reference = refmodel::RefMpu::new(geometry, 0);
    reference.write_register(0, 0, 0, &a);
    reference.write_register(0, 0, 1, &b);
    reference.run(&program).map_err(|e| e.to_string())?;

    let mut config = SimConfig::mpu(backend);
    config.fault.seed = Some(seed);
    config.fault.stuck_lanes =
        vec![StuckLane { mpu: 0, rfh: 0, vrf: 0, lane: stuck_lane, value: (seed & 1) != 0 }];
    config.recovery.remap = true;
    config.recovery.spare_lanes = spare_lanes;
    let inputs = [((0u16, 0u16, 0u8), a), ((0, 0, 1), b)];
    let (stats, mut mpu) =
        mastodon::run_single(config, &program, &inputs).map_err(|e| e.to_string())?;
    if stats.faults.dead_lanes == 0 {
        return Err(format!("stuck lane {stuck_lane} was not flagged by the boot self-test"));
    }
    for reg in [2u8, 3, 4] {
        let want = reference.read_register(0, 0, reg);
        let got = mpu.read_register(0, 0, reg).map_err(|e| e.to_string())?;
        if got.len() != logical {
            return Err(format!(
                "r{reg}: expected {logical} logical lanes, simulator returned {}",
                got.len()
            ));
        }
        if got[..] != want[..logical] {
            let lane = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
            return Err(format!(
                "r{reg} lane {lane}: reference {:#x}, remapped simulator {:#x}",
                want[lane], got[lane]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_only_shows_silent_corruption() {
        let report = run_sweep(&SweepConfig {
            backend: DatapathKind::Racer,
            seed: 0x5EED,
            rate: 1e-3,
            trials: 8,
            policy: PolicyKind::Inject,
        });
        assert!(report.trials > 0);
        assert!(report.faulty_trials > 0, "rate 1e-3 must land faults: {report:?}");
        assert!(report.sdc_trials > 0, "inject-only must show SDC: {report:?}");
        assert_eq!(report.detected, 0, "no detection machinery under inject-only");
    }

    #[test]
    fn tmr_eliminates_sdc_on_the_smoke_corpus() {
        let report = run_sweep(&SweepConfig {
            backend: DatapathKind::Racer,
            seed: 0x5EED,
            rate: 1e-4,
            trials: 8,
            policy: PolicyKind::Tmr,
        });
        assert_eq!(report.sdc_trials, 0, "TMR must vote out transients: {report:?}");
        assert!(report.trials > 0);
    }

    #[test]
    fn dmr_detects_what_it_cannot_correct() {
        let report = run_sweep(&SweepConfig {
            backend: DatapathKind::Racer,
            seed: 0x5EED,
            rate: 1e-4,
            trials: 8,
            policy: PolicyKind::Dmr,
        });
        assert!(report.detection_rate() >= 0.99, "DMR detection: {report:?}");
        assert_eq!(report.sdc_trials, 0, "DMR + retry must not pass corrupted data: {report:?}");
    }

    #[test]
    fn remap_reproduces_the_reference_at_reduced_capacity() {
        for seed in [1u64, 2, 7] {
            remap_recovers(DatapathKind::Racer, seed).unwrap();
        }
    }
}
