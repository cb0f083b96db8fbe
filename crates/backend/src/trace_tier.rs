//! The ensemble trace tier: a straight-line compute-ensemble body fused
//! into one flat, branch-free sequence of resolved word-loop ops plus
//! precomputed costs.
//!
//! [`crate::CompiledRecipe`] removed per-micro-op plane resolution, and
//! each compiled template carries its [`RecipeCost`], computed once. The
//! simulator still pays per-instruction overhead on every thermal-wave
//! replay: a recipe-cache probe and the fetch/dispatch loop itself.
//!
//! [`fuse_ensemble_with`] hoists the rest to synthesis time. A straight-line
//! body (compute instructions, mask writes, and NOPs, with no
//! data-dependent control flow) becomes an [`EnsembleTrace`]:
//!
//! * every instruction's compiled ops concatenated into one flat vector,
//!   executed by the same word-loop core as [`crate::CompiledRecipe`]
//!   (so plane writes and fault-site draws are byte-identical);
//! * per-step issue cycles precomputed, including the bit-pipelining
//!   schedule — within a wave the first compute instruction pays serial
//!   latency and later ones their stage time, which is statically known
//!   for a straight-line body;
//! * per-step energy as whole femtojoules per enabled lane. The ledger is
//!   integer, so a run of steps under one lane mask costs
//!   `Σ fJ/lane × enabled` in one product, equal to the per-step charges.
//!
//! The trace is a pure function of `(recipe context, encoded body,
//! geometry)` and is cached by the simulator's recipe pool/cache under
//! exactly that key; the context names every cost the trace stores. It
//! carries *costs*, not charges: the simulator replays the steps and
//! applies the same `Stats` the per-instruction tier would, so
//! architectural counters never depend on which tier executed a body.

use crate::bitplane::{BitPlaneVrf, SCRATCH_PLANES};
use crate::compiled::{self, CompiledOp, CompiledRecipe};
use crate::datapath::{DatapathModel, RecipeCost};
use crate::recipe::Recipe;
use crate::DATA_BITS;
use mpu_isa::{Instruction, RegId};
use std::ops::Range;
use std::sync::Arc;

/// One body instruction of a fused ensemble trace.
#[derive(Debug, Clone)]
pub enum EnsembleStep {
    /// A compute instruction: its fused ops plus precomputed costs.
    Compute {
        /// The source instruction (recipe-cache accounting, mnemonics).
        instr: Instruction,
        /// Issue cycles for this step's position in the body: serial
        /// latency for the first compute instruction of a wave, stage
        /// time for later ones on bit-pipelined backends.
        cycles: u64,
        /// Micro-op count of the underlying recipe.
        uops: u32,
        /// Micro-ops the recipe optimizer removed from this step's recipe
        /// ([`crate::Recipe::saved_uops`]), carried so the fused tier
        /// charges the same `uops_saved` statistics as the other tiers.
        saved: u32,
        /// This step's slice of [`EnsembleTrace`]'s flat op vector.
        ops: Range<u32>,
        /// Recipe energy per enabled lane, femtojoules
        /// ([`RecipeCost::fj_per_lane`]).
        fj_per_lane: u64,
    },
    /// `SETMASK rs`: load the lane mask from a register (or `COND`).
    SetMask {
        /// Source register (`COND_REG` selects the condition plane).
        rs: RegId,
    },
    /// `UNMASK`: re-enable every lane.
    Unmask,
    /// `NOP`: a control bubble.
    Nop,
}

/// A compute-ensemble body fused into a flat, branch-free word-loop
/// program over the VRF storage buffer, with all cost-model work
/// precomputed. Built by [`fuse_ensemble_with`]; executed via
/// [`EnsembleTrace::run_steps`].
#[derive(Debug, Clone)]
pub struct EnsembleTrace {
    steps: Vec<EnsembleStep>,
    ops: Vec<CompiledOp>,
    lanes: usize,
    regs: usize,
    /// Fusion proved every post-write bookkeeping step is a no-op for this
    /// op stream (`lanes % 64 == 0`, no mask-plane writes), so fault-free
    /// replay may use the bookkeeping-free word loop
    /// (`compiled::run_ops_fast`).
    fast: bool,
}

impl EnsembleTrace {
    /// The fused body steps, in program order (the terminating
    /// `COMPUTE_DONE` is not a step).
    pub fn steps(&self) -> &[EnsembleStep] {
        &self.steps
    }

    /// Lane count the trace was fused for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Architectural register count the trace was fused for.
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// True when fusion proved the op stream never writes the mask plane
    /// and the geometry has no padding bits. Replay may then batch a
    /// contiguous run of compute steps into one word-loop pass per VRF
    /// (the lane mask — and with it every step's enabled count — is
    /// invariant across the run) and use the bookkeeping-free fast loop.
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Executes the fused ops of a contiguous range of *compute* steps
    /// over one VRF in a single word-loop pass (the per-step op slices are
    /// adjacent in the flat op vector, so a one-step range runs one step).
    ///
    /// Replay assumes the ensemble-start invariant the simulator
    /// establishes before the first step: the lane mask is full. Fusion
    /// statically tracks the mask from that state (`SETMASK` makes it
    /// unknown, `UNMASK` restores it), which is what lets known-full mask
    /// merges be dropped at fuse time.
    ///
    /// When fusion proved the bookkeeping-free fast loop sound and the VRF
    /// is fault-free with mask-honouring enabled, the ops run through
    /// [`compiled::run_ops_fast`]; otherwise through the general word-loop
    /// core. Both perform the identical plane writes.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, contains a non-compute step, or the
    /// VRF geometry differs from the trace's.
    pub fn run_steps(&self, range: Range<usize>, vrf: &mut BitPlaneVrf) {
        assert_eq!(
            (self.lanes, self.regs),
            (vrf.lanes(), vrf.regs()),
            "ensemble trace targets a different VRF geometry"
        );
        let compute_ops = |i: usize| match &self.steps[i] {
            EnsembleStep::Compute { ops, .. } => ops.clone(),
            step => panic!("run_steps spans a non-compute step: {step:?}"),
        };
        let start = compute_ops(range.start).start as usize;
        let end = compute_ops(range.end - 1).end as usize;
        debug_assert!(range.clone().all(|i| matches!(self.steps[i], EnsembleStep::Compute { .. })));
        let ops = &self.ops[start..end];
        if self.fast && vrf.fault_model().is_none() && vrf.mask_enabled() {
            compiled::run_ops_fast(vrf, ops);
        } else {
            compiled::run_ops(vrf, ops);
        }
    }
}

/// Fuses a straight-line ensemble body into an [`EnsembleTrace`],
/// resolving each compute instruction to its `(recipe, compiled, cost)`
/// triple via `synth` (the simulator passes its recipe pool here so fusion
/// concatenates exactly the already-compiled templates the
/// per-instruction tiers would execute — including deliberately corrupted
/// preloads — without re-synthesizing or re-compiling anything). Returns
/// `None` if any instruction is outside the fusable set: compute classes,
/// `SETMASK`, `UNMASK`, and `NOP`. Control transfers (`JUMP`,
/// `JUMP_COND`, `RETURN`) and the mid-body mask readout (`GETMASK`) are
/// data-dependent and must take the slow path.
pub fn fuse_ensemble_with(
    datapath: &DatapathModel,
    body: &[Instruction],
    mut synth: impl FnMut(
        &DatapathModel,
        &Instruction,
    ) -> Option<(Arc<Recipe>, Arc<CompiledRecipe>, RecipeCost)>,
) -> Option<EnsembleTrace> {
    let g = datapath.geometry();
    let (lanes, regs) = (g.lanes_per_vrf, g.regs_per_vrf);
    let mut steps = Vec::with_capacity(body.len());
    let mut ops: Vec<CompiledOp> = Vec::new();
    // Mirrors the compiled tier's per-wave `pipeline_warm` flag: for a
    // straight-line body the warm/cold schedule is statically known.
    let mut pipeline_warm = false;
    // Static mask tracking from the ensemble-start invariant (mask full):
    // while the mask is known full, a masked write equals an unmasked one
    // (plus `finish_write`'s padding-bit zeroing, which is preserved on
    // every path), so the merge is dropped at fuse time. `SETMASK` makes
    // the mask data-dependent; `UNMASK` restores the known-full state.
    let mut mask_full = true;
    // Word offset of the mask plane (mirrors `BitPlaneVrf`'s layout): an
    // op stream that writes it would invalidate both the static mask
    // tracking and the cached popcount, so it forfeits the fast loop.
    let mask_base = (regs * DATA_BITS as usize + SCRATCH_PLANES + 1) * lanes.div_ceil(64);
    let mut writes_mask = false;
    // Word-serial ops transpose whole lane values through the VRF and
    // consult the mask plane dynamically; they are correct on the general
    // word-loop core but excluded from the bookkeeping-free fast loop.
    let mut has_word = false;
    for instr in body {
        match instr {
            Instruction::Binary { .. }
            | Instruction::Unary { .. }
            | Instruction::Compare { .. }
            | Instruction::Fuzzy { .. }
            | Instruction::Cas { .. }
            | Instruction::Init { .. } => {
                let (recipe, compiled, cost) = synth(datapath, instr)?;
                // Stage time equals serial time off a bit-pipeline.
                let cycles = if pipeline_warm { cost.stage_cycles } else { cost.cycles };
                pipeline_warm = true;
                let op_start = ops.len() as u32;
                for &op in compiled.ops() {
                    if op_writes(op, mask_base as u32) {
                        writes_mask = true;
                        mask_full = false;
                    }
                    if matches!(op, CompiledOp::Word { .. }) {
                        has_word = true;
                    }
                    ops.push(if mask_full { drop_mask_merge(op) } else { op });
                }
                steps.push(EnsembleStep::Compute {
                    instr: *instr,
                    cycles,
                    uops: recipe.len() as u32,
                    saved: recipe.saved_uops(),
                    ops: op_start..ops.len() as u32,
                    fj_per_lane: cost.fj_per_lane,
                });
            }
            Instruction::SetMask { rs } => {
                mask_full = false;
                steps.push(EnsembleStep::SetMask { rs: *rs });
            }
            Instruction::Unmask => {
                mask_full = !writes_mask;
                steps.push(EnsembleStep::Unmask);
            }
            Instruction::Nop => steps.push(EnsembleStep::Nop),
            _ => return None,
        }
    }
    let fast = lanes % 64 == 0 && !writes_mask && !has_word;
    Some(EnsembleTrace { steps, ops, lanes, regs, fast })
}

/// True if `op` writes the plane at word offset `base`.
fn op_writes(op: CompiledOp, base: u32) -> bool {
    match op {
        CompiledOp::Gate { out, .. } => out == base,
        CompiledOp::FullAdd { carry, sum, latch, .. } => {
            carry == base || sum == base || latch == base
        }
        // Word ops write register (and condition) planes only, never the
        // mask plane.
        CompiledOp::Word { .. } => false,
    }
}

/// Rewrites `op` with its mask-merge flags cleared — sound only when the
/// mask is statically known to be full at this point of the op stream.
fn drop_mask_merge(op: CompiledOp) -> CompiledOp {
    match op {
        CompiledOp::Gate { kind, func, a, b, c, out, .. } => {
            CompiledOp::Gate { kind, func, a, b, c, out, masked: false }
        }
        CompiledOp::FullAdd { a, b, carry, sum, latch, .. } => {
            CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked: false, sum_masked: false }
        }
        // Word ops consult the mask plane dynamically; with a full mask the
        // merge is already the identity, so there is nothing to drop.
        op @ CompiledOp::Word { .. } => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatapathKind;
    use mpu_isa::{BinaryOp, CompareOp, UnaryOp, COND_REG};

    /// Fuses `body` with recipes synthesized and compiled directly from
    /// `datapath` (no pool).
    fn fuse_ensemble(datapath: &DatapathModel, body: &[Instruction]) -> Option<EnsembleTrace> {
        let g = datapath.geometry();
        fuse_ensemble_with(datapath, body, |dp, instr| {
            let recipe = dp.recipe(instr)?;
            let compiled = Arc::new(recipe.compile(g.lanes_per_vrf, g.regs_per_vrf));
            let cost = dp.recipe_cost(&recipe);
            Some((Arc::new(recipe), compiled, cost))
        })
    }

    fn add(rd: u16) -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(rd) }
    }

    fn body() -> Vec<Instruction> {
        vec![
            add(2),
            Instruction::Compare { op: CompareOp::Lt, rs: RegId(2), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Unary { op: UnaryOp::Inv, rs: RegId(0), rd: RegId(3) },
            Instruction::Nop,
            Instruction::Unmask,
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(3), rt: RegId(1), rd: RegId(4) },
        ]
    }

    #[test]
    fn fused_compute_steps_match_interpreted_recipes() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let g = dp.geometry();
            let trace = fuse_ensemble(&dp, &body()).expect("straight-line body fuses");
            assert_eq!(trace.steps().len(), body().len());

            let mut a = BitPlaneVrf::new(g.lanes_per_vrf, g.regs_per_vrf);
            let xs: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 3 + 1).collect();
            let ys: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 7 + 2).collect();
            a.write_lane_values(0, &xs);
            a.write_lane_values(1, &ys);
            let mut b = a.clone();

            // a: apply every recipe op by op (the oracle); b: replay the
            // fused trace. The control-path steps apply the same plane
            // effects on both.
            for (i, instr) in body().into_iter().enumerate() {
                match instr {
                    Instruction::SetMask { .. } => {
                        for v in [&mut a, &mut b] {
                            v.copy_plane(crate::Plane::Cond, crate::Plane::Mask);
                        }
                    }
                    Instruction::Unmask => {
                        for v in [&mut a, &mut b] {
                            v.fill_plane(crate::Plane::Mask, true);
                        }
                    }
                    Instruction::Nop => {}
                    ref compute => {
                        let recipe = dp.recipe(compute).expect("compute instruction");
                        for op in recipe.ops() {
                            op.apply(&mut a);
                        }
                        trace.run_steps(i..i + 1, &mut b);
                    }
                }
            }
            assert_eq!(a, b, "{kind:?}: fused trace diverged from the op-by-op oracle");
        }
    }

    #[test]
    fn step_costs_match_the_cost_model() {
        let dp = DatapathModel::racer();
        let trace = fuse_ensemble(&dp, &[add(2), add(3), add(4)]).unwrap();
        let cost = dp.recipe_cost(&dp.recipe(&add(2)).unwrap());
        assert!(cost.stage_cycles < cost.cycles, "RACER is bit-pipelined");
        let steps: Vec<(u64, u64)> = trace
            .steps()
            .iter()
            .map(|s| match s {
                EnsembleStep::Compute { cycles, fj_per_lane, .. } => (*cycles, *fj_per_lane),
                _ => (0, 0),
            })
            .collect();
        let (cold, warm, fj) = (cost.cycles, cost.stage_cycles, cost.fj_per_lane);
        assert_eq!(steps, vec![(cold, fj), (warm, fj), (warm, fj)], "first step cold, rest warm");
    }

    #[test]
    fn word_traces_forfeit_the_fast_loop() {
        let trace = fuse_ensemble(&DatapathModel::dpu(), &[add(2)]).unwrap();
        assert!(!trace.fast(), "word-serial ops must take the general word loop");
        let trace = fuse_ensemble(&DatapathModel::pluto(), &[add(2)]).unwrap();
        assert!(trace.fast(), "pLUTo bit-plane traces keep the fast loop");
    }

    #[test]
    fn non_straight_line_bodies_do_not_fuse() {
        let dp = DatapathModel::racer();
        let jump_cond = Instruction::JumpCond { target: mpu_isa::LineNum(0) };
        let get_mask = Instruction::GetMask { rd: RegId(5) };
        for poison in [jump_cond, get_mask, Instruction::Return] {
            let mut b = vec![add(2)];
            b.push(poison);
            assert!(fuse_ensemble(&dp, &b).is_none(), "{poison:?} must not fuse");
        }
    }
}
