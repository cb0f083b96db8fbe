//! A `RecipePool` synthesizes and optimizes each register-renamed
//! instruction shape once, then fills each instruction's registers into the
//! shape's recipe. The filled template must equal direct synthesis —
//! `DatapathModel::recipe_with_stats` of the instruction itself — in its
//! micro-ops, saved micro-op count and scratch high-water mark, and the
//! pool's optimizer attribution must equal the sum of the direct passes.
//!
//! Covered: every recipe-bearing instruction of the 28 kernels on the 5
//! substrates, and random operands including `rs == rt`, `rd == rs` and
//! the recipe temp registers. An instruction direct synthesis rejects
//! (aliasing, temp-register collisions) must be rejected by the pool with
//! the same panic message.

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
    let mut direct_opt = OptStats::default();
    for instr in instrs {
        let direct = outcome(|| dp.recipe_with_stats(instr));
        let pooled = outcome(|| pool.get_or_build_compiled(dp, instr));
        match (direct, pooled) {
            (Ok(Some((want, opt))), Ok(Some(got))) => {
                let got = &*got.recipe;
                let name = format!("{} `{instr}`", dp.name());
                assert_eq!(got.ops(), want.ops(), "{name}: micro-ops");
                assert_eq!(got.saved_uops(), want.saved_uops(), "{name}: saved micro-ops");
                assert_eq!(
                    got.scratch_high_water(),
                    want.scratch_high_water(),
                    "{name}: scratch high water"
                );
                direct_opt.merge(&opt);
            }
            (Ok(None), Ok(None)) => {}
            (Err(want), Err(got)) => {
                assert_eq!(got, want, "{} `{instr}`: rejection message", dp.name());
            }
            (want, got) => panic!(
                "{} `{instr}`: direct {:?} but pooled {:?}",
                dp.name(),
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

/// Register operands drawn from a few low ids, the two temp registers and
/// the highest usable register, so repeats (`rs == rt`, `rd == rs`) and
/// temp collisions are common.
fn reg(pick: u16, temps: (u8, u8)) -> RegId {
    RegId(match pick {
        0..=4 => pick,
        5 => u16::from(temps.0),
        6 => u16::from(temps.1),
        _ => u16::from(temps.0) - 1,
    })
}

fn instruction(kind: u16, op: usize, r: [u16; 3], temps: (u8, u8)) -> Instruction {
    let [rs, rt, rd] = r.map(|p| reg(p, temps));
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
        picks in prop::collection::vec((0u16..6, 0usize..16, 0u16..8, 0u16..8, 0u16..8), 6),
    ) {
        for dp in datapaths() {
            let temps = dp.recipe_ctx().temp_regs;
            let instrs: Vec<Instruction> = picks
                .iter()
                .map(|&(kind, op, rs, rt, rd)| instruction(kind, op, [rs, rt, rd], temps))
                .collect();
            assert_pool_matches_direct(&dp, &instrs);
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
