use super::pass::{run, MAX_ROUNDS};
use super::{optimize, OptConfig, OptRule, OptStats};
use crate::bitplane::{BitPlaneVrf, Plane};
use crate::datapath::{DatapathKind, DatapathModel};
use crate::microop::{MicroOp, MicroOpKind};
use crate::recipe::{build_recipe, Recipe};
use mpu_isa::{BinaryOp, CompareOp, Instruction, RegId, UnaryOp};

fn binary(op: BinaryOp) -> Instruction {
    Instruction::Binary { op, rs: RegId(0), rt: RegId(1), rd: RegId(2) }
}

fn smoke_instrs() -> Vec<Instruction> {
    vec![
        binary(BinaryOp::Add),
        binary(BinaryOp::Sub),
        binary(BinaryOp::Mul),
        Instruction::Unary { op: UnaryOp::Inc, rs: RegId(0), rd: RegId(2) },
        Instruction::Unary { op: UnaryOp::Popc, rs: RegId(0), rd: RegId(2) },
        Instruction::Compare { op: CompareOp::Lt, rs: RegId(0), rt: RegId(1) },
        Instruction::Cas { rs: RegId(0), rt: RegId(1) },
    ]
}

fn seeded_vrf(mask: u64) -> BitPlaneVrf {
    let mut vrf = BitPlaneVrf::new(64, 16);
    for reg in 0..4u8 {
        let vals: Vec<u64> = (0..64u64)
            .map(|l| {
                (l ^ (u64::from(reg) << 7))
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(reg as u32 + 1)
            })
            .collect();
        vrf.write_lane_values(reg, &vals);
    }
    vrf.set_plane_words(Plane::Mask, &[mask]);
    vrf
}

fn run_recipe(recipe: &Recipe, vrf: &mut BitPlaneVrf) {
    for op in recipe.ops() {
        op.apply(vrf);
    }
}

/// Registers + conditional plane: everything architecturally observable.
fn arch_state(vrf: &BitPlaneVrf) -> (Vec<Vec<u64>>, Vec<u64>) {
    let regs = (0..16).map(|r| vrf.read_lane_values(r)).collect();
    (regs, vrf.plane_words(Plane::Cond).to_vec())
}

fn all_backends() -> [DatapathModel; 5] {
    [
        DatapathModel::racer(),
        DatapathModel::mimdram(),
        DatapathModel::duality_cache(),
        DatapathModel::pluto(),
        DatapathModel::dpu(),
    ]
}

#[test]
fn optimized_matches_template_across_backends_and_masks() {
    for dp in all_backends() {
        for instr in smoke_instrs() {
            for mask in [u64::MAX, 0x0f0f_0f0f_0f0f_0f0f, 0x8000_0000_0000_0001] {
                let template = build_recipe(dp.recipe_ctx(), &instr).expect("compute instr");
                let (optimized, stats) = dp.recipe_with_stats(&instr).expect("compute instr");
                assert!(
                    optimized.len() <= template.len(),
                    "{} on {}: optimizer grew the recipe",
                    instr.mnemonic(),
                    dp.name()
                );
                assert_eq!(
                    u64::from(optimized.saved_uops()),
                    stats.saved_uops(),
                    "saved_uops bookkeeping out of sync"
                );
                let mut a = seeded_vrf(mask);
                let mut b = seeded_vrf(mask);
                run_recipe(&template, &mut a);
                run_recipe(&optimized, &mut b);
                assert_eq!(
                    arch_state(&a),
                    arch_state(&b),
                    "{} on {} mask {mask:#x}: optimized recipe diverged",
                    instr.mnemonic(),
                    dp.name()
                );
            }
        }
    }
}

#[path = "../../tests/opt_corpus/mod.rs"]
mod opt_corpus;

/// The fixpoint cap must never be what stops the pass: every recipe of
/// the `opt_golden` corpus reaches a round that changes nothing within
/// [`MAX_ROUNDS`], on every substrate. A rule change that needs one more
/// round would otherwise be cut off silently.
#[test]
fn every_corpus_recipe_converges_within_max_rounds() {
    let mut cut_off = Vec::new();
    let mut last_round = 0;
    for kind in DatapathKind::ALL {
        let dp = DatapathModel::for_kind(kind);
        for instr in opt_corpus::corpus() {
            let template = build_recipe(dp.recipe_ctx(), &instr).expect("compute instruction");
            let cost = |k| dp.opt_cost(k);
            match run(&template, dp.family(), dp.opt_config(), &cost) {
                (_, _, Some(round)) => last_round = last_round.max(round),
                (_, _, None) => cut_off.push(format!("{} on {}", instr, dp.name())),
            }
        }
    }
    assert!(cut_off.is_empty(), "still changing after {MAX_ROUNDS} rounds: {cut_off:?}");
    assert!(last_round > 1, "the corpus should exercise more than one round");
}

#[test]
fn racer_add_saves_at_least_ten_percent() {
    let dp = DatapathModel::racer();
    let add = binary(BinaryOp::Add);
    let template = build_recipe(dp.recipe_ctx(), &add).expect("ADD");
    let optimized = dp.recipe(&add).expect("ADD");
    assert!(
        optimized.len() * 10 <= template.len() * 9,
        "expected >= 10% uop reduction on RACER ADD, got {} -> {}",
        template.len(),
        optimized.len()
    );
    assert_eq!(optimized.saved_uops() as usize, template.len() - optimized.len());
}

#[test]
fn disabled_optimizer_is_identity() {
    let dp = DatapathModel::racer().with_opt_config(OptConfig::disabled());
    let add = binary(BinaryOp::Add);
    let template = build_recipe(dp.recipe_ctx(), &add).expect("ADD");
    let recipe = dp.recipe(&add).expect("ADD");
    assert_eq!(recipe.ops(), template.ops());
    assert_eq!(recipe.saved_uops(), 0);
}

#[test]
fn optimized_kinds_stay_inside_the_family() {
    for dp in all_backends() {
        for instr in smoke_instrs() {
            let recipe = dp.recipe(&instr).expect("compute instr");
            for op in recipe.ops() {
                assert!(
                    dp.family().supports(op.kind()),
                    "{} emitted {} for {}",
                    dp.name(),
                    op.kind(),
                    instr.mnemonic()
                );
            }
        }
    }
}

#[test]
fn rule_bitmask_gates_every_family() {
    let dp = DatapathModel::racer();
    let add = binary(BinaryOp::Add);
    let (_, all_stats) = dp.recipe_with_stats(&add).expect("ADD");
    assert!(all_stats.rule(OptRule::CopyProp).fires > 0, "NOR ADD must exercise copy-prop");
    assert!(all_stats.saved_uops() > 0);

    let only_dead = dp.with_opt_config(OptConfig::with_rules(OptRule::DeadPlane.bit()));
    let (_, stats) = only_dead.recipe_with_stats(&add).expect("ADD");
    for rule in
        [OptRule::CopyProp, OptRule::ConstFold, OptRule::ChainCollapse, OptRule::MaskStrength]
    {
        assert_eq!(stats.rule(rule).fires, 0, "{} fired while masked off", rule.name());
    }
}

#[test]
fn canary_config_produces_wrong_lanes() {
    let dp = DatapathModel::racer();
    let canary = dp.clone().with_opt_config(OptConfig { canary: true, ..OptConfig::default() });
    let add = binary(BinaryOp::Add);
    let good = dp.recipe(&add).expect("ADD");
    let bad = canary.recipe(&add).expect("ADD");
    let mut a = seeded_vrf(u64::MAX);
    let mut b = seeded_vrf(u64::MAX);
    run_recipe(&good, &mut a);
    run_recipe(&bad, &mut b);
    assert_ne!(
        a.read_lane_values(2),
        b.read_lane_values(2),
        "the injected unsound rewrite must be lane-visible"
    );
}

#[test]
fn memo_key_hash_distinguishes_configs() {
    let on = OptConfig::default();
    let off = OptConfig::disabled();
    let partial = OptConfig::with_rules(OptRule::DeadPlane.bit());
    let canary = OptConfig { canary: true, ..OptConfig::default() };
    let hashes = [on.key_hash(), off.key_hash(), partial.key_hash(), canary.key_hash()];
    for i in 0..hashes.len() {
        for j in i + 1..hashes.len() {
            assert_ne!(hashes[i], hashes[j], "configs {i} and {j} collide");
        }
    }
}

// --- synthetic-sequence rule tests (uniform costs: removals only) ---

fn flat_cost(_: MicroOpKind) -> Option<(u64, f64)> {
    Some((2, 0.02))
}

fn rb(reg: u8, bit: u8) -> Plane {
    Plane::Reg { reg, bit }
}

#[test]
fn double_negation_collapses_to_copy_prop() {
    // !!x recomputed through two NORs, then copied out: the whole chain
    // folds to a single copy of the original plane.
    let ops = vec![
        MicroOp::Nor { a: rb(0, 0), b: rb(0, 0), out: Plane::Scratch(0) },
        MicroOp::Nor { a: Plane::Scratch(0), b: Plane::Scratch(0), out: Plane::Scratch(1) },
        MicroOp::Copy { a: Plane::Scratch(1), out: rb(1, 0) },
    ];
    let recipe = Recipe::from_ops(ops);
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &flat_cost);
    assert_eq!(opt.ops(), &[MicroOp::Copy { a: rb(0, 0), out: rb(1, 0) }]);
    assert_eq!(opt.saved_uops(), 2);
    assert!(
        stats.rule(OptRule::ChainCollapse).removed_uops
            + stats.rule(OptRule::DeadPlane).removed_uops
            == 2
    );
}

#[test]
fn dead_masked_store_attributed_to_mask_strength() {
    // The first masked store's enabled lanes are overwritten before any
    // read; only the mask-disabled lanes survive — which deleting the
    // store preserves exactly.
    let ops = vec![
        MicroOp::Set { out: rb(0, 0), value: true },
        MicroOp::Set { out: rb(0, 0), value: false },
    ];
    let recipe = Recipe::from_ops(ops);
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &flat_cost);
    assert_eq!(opt.ops(), &[MicroOp::Set { out: rb(0, 0), value: false }]);
    assert_eq!(stats.rule(OptRule::MaskStrength).removed_uops, 1);
}

#[test]
fn repeated_masked_store_is_a_no_op() {
    // merge(merge(old, x), x) = merge(old, x): the second copy is removed
    // even though the destination is masked.
    let ops = vec![
        MicroOp::Copy { a: rb(0, 0), out: rb(1, 0) },
        MicroOp::Copy { a: rb(0, 0), out: rb(1, 0) },
    ];
    let recipe = Recipe::from_ops(ops);
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &flat_cost);
    assert_eq!(opt.len(), 1);
    assert_eq!(stats.rule(OptRule::MaskStrength).removed_uops, 1);
}

#[test]
fn constant_result_strength_reduces_to_set_when_cheaper() {
    let cheap_set =
        |kind: MicroOpKind| Some(if kind == MicroOpKind::Set { (1, 0.01) } else { (2, 0.02) });
    // NOR of a plane holding 0 with itself = constant 1.
    let ops = vec![
        MicroOp::Set { out: Plane::Scratch(0), value: false },
        MicroOp::Nor { a: Plane::Scratch(0), b: Plane::Scratch(0), out: rb(0, 0) },
    ];
    let recipe = Recipe::from_ops(ops);
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &cheap_set);
    assert_eq!(opt.ops(), &[MicroOp::Set { out: rb(0, 0), value: true }]);
    assert!(stats.rule(OptRule::ConstFold).fires > 0);
}

#[test]
fn compute_into_scratch_then_copy_coalesces() {
    let ops = vec![
        MicroOp::Nor { a: rb(0, 0), b: rb(1, 0), out: Plane::Scratch(0) },
        MicroOp::Copy { a: Plane::Scratch(0), out: rb(2, 0) },
    ];
    let recipe = Recipe::from_ops(ops);
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &flat_cost);
    assert_eq!(opt.ops(), &[MicroOp::Nor { a: rb(0, 0), b: rb(1, 0), out: rb(2, 0) }]);
    assert_eq!(stats.rule(OptRule::CopyProp).removed_uops, 1);
}

#[test]
fn mask_plane_writes_bail_to_identity() {
    // `Recipe::from_ops` sequences may write the mask plane; the merge
    // model would be unsound there, so the pass must pass them through.
    let ops = vec![
        MicroOp::Set { out: Plane::Mask, value: true },
        MicroOp::Set { out: Plane::Scratch(0), value: true },
    ];
    let recipe = Recipe::from_ops(ops.clone());
    let (opt, stats) = optimize(&recipe, crate::LogicFamily::Nor, OptConfig::default(), &flat_cost);
    assert_eq!(opt.ops(), ops.as_slice());
    assert_eq!(stats, OptStats::default());
}

#[test]
fn family_soundness_declarations_gate_rules() {
    for rule in OptRule::ALL {
        assert!(rule.sound_for(crate::LogicFamily::Nor));
        assert!(rule.sound_for(crate::LogicFamily::Maj));
        assert!(rule.sound_for(crate::LogicFamily::Bitline));
        assert_eq!(
            rule.sound_for(crate::LogicFamily::Lut),
            rule != OptRule::ChainCollapse,
            "{} on LUT",
            rule.name()
        );
        assert!(!rule.sound_for(crate::LogicFamily::WordSerial), "{} on DPU", rule.name());
    }
}

#[test]
fn word_recipes_pass_through_unmodified() {
    let dp = DatapathModel::dpu();
    for instr in smoke_instrs() {
        let template = build_recipe(dp.recipe_ctx(), &instr).expect("compute instr");
        let (optimized, stats) = dp.recipe_with_stats(&instr).expect("compute instr");
        assert_eq!(optimized.ops(), template.ops(), "{}", instr.mnemonic());
        assert_eq!(optimized.saved_uops(), 0);
        assert_eq!(stats, OptStats::default());
    }
}

#[test]
fn lut_recipes_optimize_without_chain_collapse() {
    let dp = DatapathModel::pluto();
    let add = binary(BinaryOp::Add);
    let template = build_recipe(dp.recipe_ctx(), &add).expect("ADD");
    let (optimized, stats) = dp.recipe_with_stats(&add).expect("ADD");
    assert!(optimized.len() <= template.len());
    assert_eq!(stats.rule(OptRule::ChainCollapse).fires, 0, "withheld rule must not fire");
}

#[test]
fn merged_stats_accumulate() {
    let dp = DatapathModel::racer();
    let (_, a) = dp.recipe_with_stats(&binary(BinaryOp::Add)).expect("ADD");
    let (_, b) = dp.recipe_with_stats(&binary(BinaryOp::Sub)).expect("SUB");
    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged.saved_uops(), a.saved_uops() + b.saved_uops());
    assert_eq!(merged.total_fires(), a.total_fires() + b.total_fires());
}
