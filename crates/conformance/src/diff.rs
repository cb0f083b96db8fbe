//! The differential runner: one case, executed by the word-level reference
//! model and by the cycle-accurate simulator on every shipped backend
//! (bit-serial NOR/MAJ/bitline, pLUTo LUT queries, word-serial DPU) over
//! both execution tiers (compiled one-instruction blocks, multi-instruction
//! blocks), compared
//! lane-exactly plus over the architectural counters the reference model
//! defines — and cross-tier over the full statistics.

use crate::case::Case;
use crate::generate::{BOX_RFHS, BOX_VRFS};
use mastodon::{ExecutionMode, RecipePool, SimConfig, Stats, System};
use mpu_isa::Program;
use pum_backend::{DatapathKind, DatapathModel};
use refmodel::{RefGeometry, RefSystem, RefTrace};
use std::sync::Arc;

/// Registers compared (the division scratch registers `r14`/`r15` hold
/// implementation-defined values and are excluded; the mask-save registers
/// `r10..r13` are deterministic and included).
const CMP_REGS: u8 = 14;

/// One MPU's comparison box: lane values for every `(rfh, vrf, reg)` the
/// generator can touch.
pub type LaneBox = Vec<((u16, u16, u8), Vec<u64>)>;

/// Derives the reference geometry for a backend from its datapath model.
pub fn ref_geometry(model: &DatapathModel) -> RefGeometry {
    let g = model.geometry();
    RefGeometry {
        lanes_per_vrf: g.lanes_per_vrf,
        regs_per_vrf: g.regs_per_vrf,
        vrfs_per_rfh: g.vrfs_per_rfh,
        rfhs_per_mpu: g.rfhs_per_mpu,
        active_vrfs_per_rfh: g.active_vrfs_per_rfh,
        mpus_per_chip: g.mpus_per_chip,
        reserved_temps: model.recipe_ctx().reserved_temps(),
    }
}

fn box_keys() -> impl Iterator<Item = (u16, u16, u8)> {
    (0..BOX_RFHS).flat_map(|rfh| {
        (0..BOX_VRFS).flat_map(move |vrf| (0..CMP_REGS).map(move |reg| (rfh, vrf, reg)))
    })
}

fn run_reference(
    model: &DatapathModel,
    case: &Case,
    programs: &[Program],
) -> Result<(Vec<LaneBox>, RefTrace), String> {
    let mut sys = RefSystem::new(ref_geometry(model), case.mpus.len());
    for (id, (mpu, program)) in case.mpus.iter().zip(programs).enumerate() {
        sys.set_program(id, program.clone());
        for input in &mpu.inputs {
            sys.mpu_mut(id).write_register(input.rfh, input.vrf, input.reg, &input.values);
        }
    }
    sys.run().map_err(|e| e.to_string())?;
    let boxes = (0..case.mpus.len())
        .map(|id| {
            box_keys()
                .map(|key| (key, sys.mpu_mut(id).read_register(key.0, key.1, key.2)))
                .collect()
        })
        .collect();
    Ok((boxes, sys.total_trace()))
}

/// One execution tier of the simulator's compute path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One instruction per block: geometry-compiled recipes, dispatched
    /// per instruction (`trace_ensembles = false`).
    Compiled,
    /// Multi-instruction blocks: runs of compute steps execute in one
    /// pass over the whole wave.
    Block,
}

/// Every tier the differential matrix covers.
pub const TIERS: [Tier; 2] = [Tier::Compiled, Tier::Block];

impl Tier {
    /// Short label used in mismatch reports.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Compiled => "compiled",
            Tier::Block => "block",
        }
    }
}

fn run_simulator(
    model: &DatapathModel,
    tier: Tier,
    case: &Case,
    programs: &[Program],
    pool: Option<&Arc<RecipePool>>,
) -> Result<(Vec<LaneBox>, Stats), String> {
    let mut config = SimConfig::new(model.clone(), ExecutionMode::Mpu);
    // Pin the tier knob explicitly: the compiled tier must not silently
    // ride the block tier (whose default is on).
    config.trace_ensembles = tier == Tier::Block;
    let mut sys = match pool {
        Some(pool) => System::new_pooled(config, case.mpus.len(), pool),
        None => System::new(config, case.mpus.len()),
    };
    for (id, (mpu, program)) in case.mpus.iter().zip(programs).enumerate() {
        sys.set_program(id, program.clone());
        for input in &mpu.inputs {
            sys.mpu_mut(id)
                .write_register(input.rfh, input.vrf, input.reg, &input.values)
                .map_err(|e| e.to_string())?;
        }
    }
    let stats = sys.run().map_err(|e| e.to_string())?;
    let mut boxes = Vec::with_capacity(case.mpus.len());
    for id in 0..case.mpus.len() {
        boxes.push(
            box_keys()
                .map(|key| {
                    sys.mpu_mut(id)
                        .read_register(key.0, key.1, key.2)
                        .map(|v| (key, v))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<LaneBox, String>>()?,
        );
    }
    Ok((boxes, stats))
}

/// The reference model's comparison box for a case, or `None` if the case
/// doesn't lower or the reference run fails (shrinker artifacts). Used for
/// the cross-geometry agreement check.
pub fn reference_lanes(model: &DatapathModel, case: &Case) -> Option<Vec<LaneBox>> {
    let programs = case.programs().ok()?;
    run_reference(model, case, &programs).ok().map(|(boxes, _)| boxes)
}

/// Differentially checks one case on one backend, optionally against a
/// shared (possibly deliberately corrupted) recipe pool.
///
/// Returns `Some(description)` on the first divergence between the
/// reference model and the simulator (on either tier), or between the
/// block and compiled tiers' statistics. Returns `None` when all
/// agree — or when the reference model itself rejects the case (which
/// makes the case incomparable, not a simulator defect; the shrinker
/// relies on this to discard reductions that break program validity).
pub fn check_case_on(
    model: &DatapathModel,
    case: &Case,
    pool: Option<&Arc<RecipePool>>,
) -> Option<String> {
    let programs = match case.programs() {
        Ok(p) => p,
        Err(_) => return None,
    };
    let backend = model.name();
    let (ref_boxes, ref_trace) = match run_reference(model, case, &programs) {
        Ok(v) => v,
        Err(_) => return None,
    };
    let mut compiled_stats: Option<Stats> = None;
    for tier in TIERS {
        let path = tier.label();
        let (boxes, stats) = match run_simulator(model, tier, case, &programs, pool) {
            Ok(v) => v,
            Err(e) => {
                return Some(format!(
                    "{backend}/{path}: simulator error `{e}` where the reference model succeeded"
                ))
            }
        };
        for (id, (ref_box, sim_box)) in ref_boxes.iter().zip(&boxes).enumerate() {
            for (((rfh, vrf, reg), want), (_, got)) in ref_box.iter().zip(sim_box) {
                if want != got {
                    let lane = want.iter().zip(got).position(|(a, b)| a != b).unwrap_or(0);
                    return Some(format!(
                        "{backend}/{path}: mpu{id} h{rfh}.v{vrf}.r{reg} lane {lane}: \
                         reference {:#x}, simulator {:#x}",
                        want.get(lane).copied().unwrap_or(0),
                        got.get(lane).copied().unwrap_or(0),
                    ));
                }
            }
        }
        let counters = [
            ("instructions", ref_trace.instructions, stats.instructions),
            ("scheduler_waves", ref_trace.scheduler_waves, stats.scheduler_waves),
            ("messages_sent", ref_trace.messages_sent, stats.messages_sent),
            ("noc_bytes", ref_trace.noc_bytes, stats.noc_bytes),
        ];
        for (name, want, got) in counters {
            if want != got {
                return Some(format!(
                    "{backend}/{path}: architectural counter {name}: reference {want}, \
                     simulator {got}"
                ));
            }
        }
        match compiled_stats {
            None => compiled_stats = Some(stats),
            Some(prev) if prev != stats => {
                return Some(format!(
                    "{backend}: the {path} tier disagrees with the compiled tier on \
                     statistics:\n  compiled: {prev:?}\n  {path}: {stats:?}"
                ));
            }
            Some(_) => {}
        }
    }
    None
}

/// The full differential check: every backend via [`check_case_on`], plus
/// cross-geometry agreement of the reference model on the 64-lane common
/// prefix (inputs only populate 64 lanes; the extra lanes of the wider
/// geometries compute on zeros and never feed back into the prefix).
pub fn check_case(case: &Case) -> Option<String> {
    let models = DatapathKind::ALL.map(DatapathModel::for_kind);
    for model in &models {
        if let Some(mismatch) = check_case_on(model, case, None) {
            return Some(mismatch);
        }
    }
    let mut baseline: Option<(&str, Vec<LaneBox>)> = None;
    for model in &models {
        let boxes = reference_lanes(model, case)?;
        match &baseline {
            None => baseline = Some((model.name(), boxes)),
            Some((name0, base)) => {
                for (id, (a, b)) in base.iter().zip(&boxes).enumerate() {
                    for (((rfh, vrf, reg), va), (_, vb)) in a.iter().zip(b) {
                        let pa = &va[..64.min(va.len())];
                        let pb = &vb[..64.min(vb.len())];
                        if pa != pb {
                            let lane = pa.iter().zip(pb).position(|(x, y)| x != y).unwrap_or(0);
                            return Some(format!(
                                "reference model disagrees across geometries \
                                 ({name0} vs {}): mpu{id} h{rfh}.v{vrf}.r{reg} \
                                 lane {lane}: {:#x} vs {:#x}",
                                model.name(),
                                pa[lane],
                                pb[lane]
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// Runs one case on one backend (compiled path, no pool) and returns its
/// statistics — the golden-snapshot probe.
///
/// # Errors
///
/// Returns a description if the case fails to lower or the run fails.
pub fn simulate(model: &DatapathModel, case: &Case) -> Result<Stats, String> {
    let programs = case.programs().map_err(|e| e.to_string())?;
    run_simulator(model, Tier::Compiled, case, &programs, None).map(|(_, stats)| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{MpuCase, Stmt, Top};
    use crate::generate::generate;
    use mpu_isa::{BinaryOp, Instruction, RegId};

    #[test]
    fn a_handwritten_case_passes_on_every_backend() {
        let case = Case {
            mpus: vec![MpuCase {
                tops: vec![Top::Ensemble {
                    members: vec![(0, 0)],
                    body: vec![Stmt::Op(Instruction::Binary {
                        op: BinaryOp::Add,
                        rs: RegId(0),
                        rt: RegId(1),
                        rd: RegId(2),
                    })],
                }],
                inputs: vec![
                    crate::case::Input { rfh: 0, vrf: 0, reg: 0, values: vec![40; 64] },
                    crate::case::Input { rfh: 0, vrf: 0, reg: 1, values: vec![2; 64] },
                ],
            }],
        };
        assert_eq!(check_case(&case), None);
    }

    #[test]
    fn a_small_generated_sample_passes() {
        // The broader sweep lives in tests/; this is the in-crate smoke.
        for seed in 0..4 {
            let case = generate(seed);
            if let Some(m) = check_case(&case) {
                panic!("seed {seed}: {m}\n{}", crate::case::reproducer_text(&case, &m));
            }
        }
    }

    #[test]
    fn unlowerable_cases_are_incomparable_not_failures() {
        // An orphan RECV deadlocks in the reference model too: no mismatch.
        let case = Case {
            mpus: vec![
                MpuCase { tops: vec![Top::Recv { src: 1 }], inputs: vec![] },
                MpuCase { tops: vec![Top::Sync], inputs: vec![] },
            ],
        };
        assert_eq!(check_case_on(&DatapathModel::racer(), &case, None), None);
    }
}
