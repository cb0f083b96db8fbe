//! Differential properties for the two non-paper substrates.
//!
//! The pLUTo LUT family and the UPMEM-style word-serial family must be
//! *architecturally indistinguishable* from the proven bit-serial
//! families: the same instruction on the same register file contents
//! leaves the same register/condition state, lane-exact, across random
//! masks, aliased destinations, and lane counts that are not multiples of
//! 64. Every family's geometry-compiled form must leave the same full VRF
//! as applying its micro-ops one by one. The optimizer must also be
//! invisible on both new backends (optimizer-on ≡ optimizer-off on all
//! architectural state).

use proptest::prelude::*;
use pum_backend::{
    build_recipe, BitPlaneVrf, DatapathModel, LogicFamily, OptConfig, Plane, RecipeCtx,
};

use mpu_isa::{BinaryOp, CompareOp, Instruction, RegId, UnaryOp};

fn ctx(family: LogicFamily) -> RecipeCtx {
    RecipeCtx { family, temp_regs: (14, 15), opt: Default::default() }
}

/// Compute instructions exercising every word class, including aliased
/// destinations where synthesis permits them (`rd == rs` on commutative
/// and in-place-safe ops; multiply/divide reject aliasing by contract).
fn instrs(alias: bool) -> Vec<Instruction> {
    let rd = if alias { RegId(0) } else { RegId(2) };
    let mut v = vec![
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd },
        Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(1), rd },
        Instruction::Binary { op: BinaryOp::Xor, rs: RegId(0), rt: RegId(1), rd },
        Instruction::Binary { op: BinaryOp::Nand, rs: RegId(0), rt: RegId(1), rd },
        Instruction::Binary { op: BinaryOp::Max, rs: RegId(0), rt: RegId(1), rd },
        Instruction::Unary { op: UnaryOp::Inc, rs: RegId(0), rd },
        Instruction::Unary { op: UnaryOp::Popc, rs: RegId(0), rd },
        Instruction::Compare { op: CompareOp::Lt, rs: RegId(0), rt: RegId(1) },
        Instruction::Compare { op: CompareOp::Eq, rs: RegId(0), rt: RegId(1) },
        Instruction::Fuzzy { rs: RegId(0), rt: RegId(1), rd },
        Instruction::Cas { rs: RegId(0), rt: RegId(1) },
    ];
    if !alias {
        v.extend([
            // Mux and MAC read `rd` as a third input; Mul/Div reject
            // aliasing by contract — all four run destination-distinct.
            Instruction::Binary { op: BinaryOp::Mux, rs: RegId(0), rt: RegId(1), rd },
            Instruction::Binary { op: BinaryOp::Mul, rs: RegId(0), rt: RegId(1), rd },
            Instruction::Binary { op: BinaryOp::Mac, rs: RegId(0), rt: RegId(1), rd },
            Instruction::Binary { op: BinaryOp::QDiv, rs: RegId(0), rt: RegId(1), rd },
            Instruction::Binary { op: BinaryOp::QRDiv, rs: RegId(0), rt: RegId(1), rd },
        ]);
    }
    v
}

fn seeded_vrf(lanes: usize, seed: u64, mask: &[u64]) -> BitPlaneVrf {
    let mut vrf = BitPlaneVrf::new(lanes, 16);
    for reg in 0..4u8 {
        let values: Vec<u64> = (0..lanes as u64)
            .map(|i| (i + 1).wrapping_mul(seed | 1).wrapping_add(reg as u64) ^ (seed >> 9))
            .collect();
        vrf.write_lane_values(reg, &values);
    }
    let words = lanes.div_ceil(64);
    let mask_words: Vec<u64> = (0..words).map(|w| mask[w % mask.len()]).collect();
    vrf.set_plane_words(Plane::Mask, &mask_words);
    vrf
}

/// Registers + conditional plane: everything architecturally observable.
/// The divide scratch registers `r14`/`r15` hold implementation-defined
/// values (bit-serial restoring division clobbers them; word-serial
/// division does not) and are excluded, matching the conformance oracle.
fn arch_state(vrf: &BitPlaneVrf) -> (Vec<Vec<u64>>, Vec<u64>) {
    let regs = (0..14).map(|r| vrf.read_lane_values(r)).collect();
    (regs, vrf.plane_words(Plane::Cond).to_vec())
}

/// Applies `instr`'s `family` recipe to `vrf` one micro-op at a time (the
/// oracle) and returns a copy of the starting VRF that ran the recipe's
/// geometry-compiled form instead.
fn run_family(family: LogicFamily, instr: &Instruction, vrf: &mut BitPlaneVrf) -> BitPlaneVrf {
    let recipe = build_recipe(ctx(family), instr).expect("compute instruction");
    let mut compiled = vrf.clone();
    compiled.run_compiled(&recipe.compile(vrf.lanes(), vrf.regs()));
    for op in recipe.ops() {
        op.apply(vrf);
    }
    compiled
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LUT-query recipes and word-serial recipes leave the same
    /// architectural state as NOR and MAJ recipes, lane-exact, across
    /// random masks, aliasing, and non-×64 lane counts; and in every
    /// family the compiled form matches op-by-op application on the full
    /// VRF, scratch planes included.
    #[test]
    fn new_families_match_proven_families(
        lanes in prop::sample::select(vec![64usize, 65, 100, 127, 128, 130, 512]),
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<u64>(), 8),
        alias in prop::bool::ANY,
    ) {
        for instr in instrs(alias) {
            let mut expect = None;
            for family in
                [LogicFamily::Nor, LogicFamily::Maj, LogicFamily::Lut, LogicFamily::WordSerial]
            {
                let mut vrf = seeded_vrf(lanes, seed, &mask);
                let compiled = run_family(family, &instr, &mut vrf);
                prop_assert!(
                    compiled == vrf,
                    "{:?}: compiled form diverged from op-by-op apply on {} (lanes={}, alias={})",
                    family,
                    instr.mnemonic(),
                    lanes,
                    alias
                );
                let state = arch_state(&vrf);
                let expect = expect.get_or_insert_with(|| state.clone());
                prop_assert_eq!(
                    &state,
                    &*expect,
                    "{:?} diverged from NOR on {} (lanes={}, alias={})",
                    family,
                    instr.mnemonic(),
                    lanes,
                    alias
                );
            }
        }
    }

    /// The optimizer is architecturally invisible on both new backends.
    #[test]
    fn optimizer_is_invisible_on_new_backends(
        lanes_sel in prop::sample::select(vec![0usize, 1]),
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<u64>(), 8),
    ) {
        for dp in [DatapathModel::pluto(), DatapathModel::dpu()] {
            let g = dp.geometry();
            // Native geometry and a deliberately odd lane count.
            let lanes = [g.lanes_per_vrf, 100][lanes_sel];
            let off = dp.clone().with_opt_config(OptConfig::disabled());
            for instr in instrs(false) {
                let optimized = dp.recipe(&instr).expect("compute instruction");
                let template = off.recipe(&instr).expect("compute instruction");
                let mut a = seeded_vrf(lanes, seed, &mask);
                let mut b = seeded_vrf(lanes, seed, &mask);
                for op in optimized.ops() {
                    op.apply(&mut a);
                }
                for op in template.ops() {
                    op.apply(&mut b);
                }
                prop_assert_eq!(
                    arch_state(&a),
                    arch_state(&b),
                    "{}: optimizer changed architectural state on {}",
                    dp.name(),
                    instr.mnemonic()
                );
            }
        }
    }
}
