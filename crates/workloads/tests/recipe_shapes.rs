//! A `RecipePool` synthesizes, optimizes and compiles each register-renamed
//! instruction shape once, then binds each instruction's template by
//! relocating the shape's compiled form to the instruction's registers.
//! The bound template must equal direct synthesis —
//! `DatapathModel::recipe_with_stats` of the instruction itself — compiled
//! for the datapath's geometry: resolved ops, length, micro-op mix, fast
//! flag and saved micro-op count. Its cost must equal the direct recipe's,
//! and the pool's optimizer attribution must equal the sum of the direct
//! passes.
//!
//! Covered: every recipe-bearing instruction of the 28 kernels on the 5
//! substrates, and random operands including `rs == rt`, `rd == rs`, the
//! recipe temp registers and registers at or above the VRF's register
//! count. An instruction direct synthesis or its compile rejects
//! (aliasing, temp-register collisions, registers out of range) must be
//! rejected by the pool with the same panic message.

use mastodon::{RecipePool, SimConfig};
use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp};
use proptest::prelude::*;
use pum_backend::{DatapathKind, DatapathModel, OptStats};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use workloads::{all_kernels, run_kernel_pooled};

fn datapaths() -> Vec<DatapathModel> {
    DatapathKind::ALL.iter().map(|&kind| SimConfig::mpu(kind).datapath).collect()
}

/// The panic message of `f`, or its value.
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// Runs `instrs` through one fresh pool on `dp` and checks every template
/// and the pool's summed optimizer attribution against direct synthesis.
/// Returns the pool's `(misses, shape_misses)`.
fn assert_pool_matches_direct(dp: &DatapathModel, instrs: &[Instruction]) -> (u64, u64) {
    let pool = RecipePool::new();
    let g = dp.geometry();
    let mut direct_opt = OptStats::default();
    // Words whose template compiles directly, so the pool keeps it.
    let mut kept = HashSet::new();
    for instr in instrs {
        let name = format!("{} `{instr}`", dp.name());
        let synthesized = outcome(|| dp.recipe_with_stats(instr));
        // Each template the pool builds merges its shape's optimizer
        // attribution: once per kept word, and on every probe of a word
        // whose registers fail to resolve, as that template is never kept.
        if let (Ok(Some((_, opt))), false) = (&synthesized, kept.contains(&instr.encode())) {
            direct_opt.merge(opt);
        }
        let pooled = outcome(|| pool.get_or_build_compiled(dp, instr));
        let direct = synthesized.and_then(|built| match built {
            Some((recipe, _)) => outcome(|| {
                let compiled = recipe.compile_for(&g);
                Some((recipe, compiled))
            }),
            None => Ok(None),
        });
        if let Ok(Some(_)) = &direct {
            kept.insert(instr.encode());
        }
        match (direct, pooled) {
            (Ok(Some((want, compiled))), Ok(Some(got))) => {
                assert!(*got.compiled == compiled, "{name}: compiled template");
                assert_eq!(got.compiled.mix(), compiled.mix(), "{name}: micro-op mix");
                assert_eq!(got.compiled.fast(), compiled.fast(), "{name}: fast flag");
                assert_eq!(got.compiled.saved_uops(), want.saved_uops(), "{name}: saved");
                assert_eq!(got.cost, dp.recipe_cost(&want), "{name}: cost");
            }
            (Ok(None), Ok(None)) => {}
            (Err(want), Err(got)) => assert_eq!(got, want, "{name}: rejection message"),
            (want, got) => panic!(
                "{name}: direct {:?} but pooled {:?}",
                want.map(|r| r.is_some()),
                got.map(|r| r.is_some())
            ),
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.opt, direct_opt, "{}: summed optimizer attribution", dp.name());
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert!(stats.shape_misses <= stats.misses);
    (stats.misses, stats.shape_misses)
}

#[test]
fn every_kernel_instruction_matches_direct_synthesis() {
    let kernels = all_kernels();
    for dp in datapaths() {
        let g = dp.geometry();
        // The workloads harness's wave: one VRF per RFH, up to eight,
        // leaving `vrf + 1` for stencil staging.
        let members: Vec<(u16, u16)> = (0..8.min(g.max_active_vrfs_per_mpu()).max(1))
            .map(|i| ((i % g.rfhs_per_mpu) as u16, ((i / g.rfhs_per_mpu) * 2) as u16))
            .collect();
        let mut seen = HashSet::new();
        let instrs: Vec<Instruction> = kernels
            .iter()
            .flat_map(|k| k.build(&g, &members, 42).program.instructions().to_vec())
            .filter(|instr| seen.insert(instr.encode()))
            .collect();
        let (misses, shape_misses) = assert_pool_matches_direct(&dp, &instrs);
        assert!(misses > 0, "{}: the kernels carry compute instructions", dp.name());
        assert!(
            shape_misses < misses,
            "{}: {shape_misses} shapes for {misses} templates",
            dp.name()
        );
    }
}

/// Register operands drawn from a few low ids, the two temp registers, the
/// highest usable register, the first one past the VRF and the highest
/// encodable one, so repeats (`rs == rt`, `rd == rs`), temp collisions and
/// out-of-range registers are common.
fn reg(pick: u16, temps: (u8, u8), regs: usize) -> RegId {
    RegId(match pick {
        0..=4 => pick,
        5 => u16::from(temps.0),
        6 => u16::from(temps.1),
        7 => u16::from(temps.0) - 1,
        8 => regs as u16,
        _ => 63,
    })
}

fn instruction(kind: u16, op: usize, r: [u16; 3], temps: (u8, u8), regs: usize) -> Instruction {
    let [rs, rt, rd] = r.map(|p| reg(p, temps, regs));
    match kind {
        0 => Instruction::Binary { op: BinaryOp::ALL[op % BinaryOp::ALL.len()], rs, rt, rd },
        1 => Instruction::Unary { op: UnaryOp::ALL[op % UnaryOp::ALL.len()], rs, rd },
        2 => Instruction::Compare { op: CompareOp::ALL[op % CompareOp::ALL.len()], rs, rt },
        3 => Instruction::Fuzzy { rs, rt, rd },
        4 => Instruction::Cas { rs, rt },
        _ => Instruction::Init { value: [InitValue::Zero, InitValue::One][op % 2], rd },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_operands_match_direct_synthesis(
        picks in prop::collection::vec((0u16..6, 0usize..16, 0u16..10, 0u16..10, 0u16..10), 6),
    ) {
        for dp in datapaths() {
            let (temps, regs) = (dp.recipe_ctx().temp_regs, dp.geometry().regs_per_vrf);
            let instrs: Vec<Instruction> = picks
                .iter()
                .map(|&(kind, op, rs, rt, rd)| instruction(kind, op, [rs, rt, rd], temps, regs))
                .collect();
            // Twice over: a repeat hits its kept template, and re-probes
            // one whose registers failed to resolve.
            assert_pool_matches_direct(&dp, &instrs.repeat(2));
        }
    }
}

#[test]
fn rejected_operands_keep_their_messages() {
    let binary =
        |op, rs, rt, rd| Instruction::Binary { op, rs: RegId(rs), rt: RegId(rt), rd: RegId(rd) };
    for dp in datapaths() {
        let (ta, _) = dp.recipe_ctx().temp_regs;
        let mut rejected = vec![
            binary(BinaryOp::Mul, 7, 3, 7),
            binary(BinaryOp::Mac, 3, 9, 9),
            binary(BinaryOp::RDiv, 5, 5, 5),
        ];
        if dp.family() != pum_backend::LogicFamily::WordSerial {
            // Only bit-serial division uses the temp registers.
            rejected.push(binary(BinaryOp::QDiv, u16::from(ta), 1, 2));
        }
        for instr in &rejected {
            assert!(outcome(|| dp.recipe(instr)).is_err(), "{} `{instr}` is rejected", dp.name());
        }
        assert_pool_matches_direct(&dp, &rejected);

        // `ADD r0 r1 r16` and `POPC r20 r1` on a 16-register VRF: a
        // bit-serial template cannot resolve the register's planes; a
        // word-serial one reads registers only when it runs.
        let regs = dp.geometry().regs_per_vrf as u16;
        let popc = Instruction::Unary { op: UnaryOp::Popc, rs: RegId(regs + 4), rd: RegId(1) };
        let out_of_range = [(binary(BinaryOp::Add, 0, 1, regs), regs), (popc, regs + 4)];
        for (instr, reg) in out_of_range {
            let got = outcome(|| RecipePool::new().get_or_build_compiled(&dp, &instr).is_some());
            let want = if dp.family() == pum_backend::LogicFamily::WordSerial {
                Ok(true)
            } else {
                Err(format!("register {reg} out of range (VRF has {regs})"))
            };
            assert_eq!(got, want, "{} `{instr}`", dp.name());
        }
        // With two registers out of range, the one reported is the first
        // the compiled ops resolve, in op and field order.
        let mut instrs: Vec<Instruction> = out_of_range.iter().map(|&(instr, _)| instr).collect();
        instrs.extend([binary(BinaryOp::Add, regs, 1, 63), binary(BinaryOp::Sub, 63, 2, regs + 1)]);
        assert_pool_matches_direct(&dp, &instrs);
    }
}

/// The 28-kernel x 5-substrate sweep at seed 42 on one fresh pool: its
/// 940 templates fall into 135 register-renamed shapes, so the pool runs
/// 135 optimizer passes where a per-instruction memo ran 940.
#[test]
fn a_fresh_pool_sweep_pass_optimizes_each_shape_once() {
    let pool = Arc::new(RecipePool::new());
    for kernel in all_kernels() {
        for kind in DatapathKind::ALL {
            run_kernel_pooled(kernel.as_ref(), &SimConfig::mpu(kind), 4096, 42, Some(&pool))
                .expect("kernel runs");
        }
    }
    let s = pool.stats();
    assert_eq!((s.lookups, s.hits, s.misses), (1200, 260, 940), "template traffic");
    assert_eq!(s.shape_misses, 135, "optimizer passes");
}
