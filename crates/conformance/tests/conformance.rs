//! The bounded conformance suite:
//!
//! * a differential sweep of generated cases across all backends and both
//!   recipe paths (`CONFORMANCE_CASES` overrides the case count — CI runs
//!   it large, the default keeps `cargo test` quick);
//! * a proptest-driven builder → text → parser round-trip property;
//! * the injected-bug canary: a deliberately corrupted MAJ adder recipe
//!   must be caught and shrunk to a ≤ 10-instruction reproducer;
//! * golden statistics snapshots pinning cycle/energy counters for a
//!   fixed corpus (re-bless with `MPU_BLESS=1`).

use conformance::{
    check_case, check_case_on, generate, generate_pipeline_case, reproducer_text, shrink, simulate,
};
use conformance::{Case, Stmt, Top};
use mastodon::RecipePool;
use mpu_isa::{BinaryOp, Instruction, RegId};
use pum_backend::{build_recipe, DatapathKind, DatapathModel, MicroOp, OptConfig, Recipe};
use std::sync::Arc;

#[test]
fn bounded_differential_suite() {
    let cases: u64 =
        std::env::var("CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40);
    for seed in 1000..1000 + cases {
        let case = generate(seed);
        if let Some(mismatch) = check_case(&case) {
            let (small, m) = shrink(&case, check_case);
            panic!("seed {seed}: {mismatch}\n{}", reproducer_text(&small, &m));
        }
    }
}

/// The dpapi-pipeline case family: lowered data-parallel pipelines run
/// through the same reference-model-vs-every-backend/tier differential
/// machinery as the free-form generated corpus, over inputs (including
/// lane validity patterns) the frontend's own runtime would never load.
#[test]
fn dpapi_pipeline_differential_suite() {
    let cases: u64 =
        std::env::var("CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    for seed in 0..cases {
        let case = generate_pipeline_case(seed);
        if let Some(mismatch) = check_case(&case) {
            let (small, m) = shrink(&case, check_case);
            panic!("pipeline seed {seed}: {mismatch}\n{}", reproducer_text(&small, &m));
        }
    }
}

mod round_trip {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Builder → ezpim text → parser → assemble reproduces the exact
        /// program for arbitrary generator seeds.
        #[test]
        fn ezpim_text_round_trips(seed in any::<u64>()) {
            let case = conformance::generate(seed);
            for (id, mpu) in case.mpus.iter().enumerate() {
                let direct = conformance::case::lower(mpu).expect("lower");
                let text = conformance::case::print_mpu(mpu);
                let reparsed = ezpim::parse(&text)
                    .map_err(|e| TestCaseError::fail(format!("seed {seed} mpu {id}: {e}")))?
                    .assemble()
                    .expect("assemble");
                prop_assert_eq!(direct, reparsed, "seed {} mpu {}\n{}", seed, id, text);
            }
        }
    }
}

/// Flips the carry chain of a MAJ-family adder recipe: after the first
/// `TRA` (which computes the new carry), invert the carry plane in place.
fn flip_carry(recipe: &Recipe) -> Recipe {
    let mut ops = recipe.ops().to_vec();
    let pos = ops.iter().position(|op| matches!(op, MicroOp::Tra { .. }));
    match pos {
        Some(i) => {
            let out = match ops[i] {
                MicroOp::Tra { out, .. } => out,
                _ => unreachable!(),
            };
            ops.insert(i + 1, MicroOp::Not { a: out, out });
        }
        None => {
            // Fallback for non-MAJ families: corrupt the final written plane.
            if let Some(MicroOp::FullAdd { carry, .. }) = ops.first().copied() {
                ops.insert(1, MicroOp::Not { a: carry, out: carry });
            }
        }
    }
    Recipe::from_ops(ops)
}

fn contains_add(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Op(Instruction::Binary { op: BinaryOp::Add, .. }) => true,
        Stmt::Op(_) => false,
        Stmt::If { then, .. } => contains_add(then),
        Stmt::IfElse { then, otherwise, .. } => contains_add(then) || contains_add(otherwise),
        Stmt::While { body, .. } | Stmt::For { body, .. } => contains_add(body),
    })
}

fn case_has_add(case: &Case) -> bool {
    case.mpus
        .iter()
        .flat_map(|m| &m.tops)
        .any(|t| matches!(t, Top::Ensemble { body, .. } if contains_add(body)))
}

#[test]
fn injected_carry_bug_is_caught_and_shrunk() {
    // Corrupt the ADD recipe for every operand combination the generator
    // can emit and plant it in a shared recipe pool.
    let model = DatapathModel::for_kind(DatapathKind::Mimdram);
    let ctx = model.recipe_ctx();
    let pool = Arc::new(RecipePool::new());
    for rs in 0..14u16 {
        for rt in 0..14u16 {
            for rd in 0..10u16 {
                let instr = Instruction::Binary {
                    op: BinaryOp::Add,
                    rs: RegId(rs),
                    rt: RegId(rt),
                    rd: RegId(rd),
                };
                let recipe = build_recipe(ctx, &instr).expect("ADD recipe");
                pool.preload(ctx, &instr, flip_carry(&recipe));
            }
        }
    }

    let predicate = |case: &Case| check_case_on(&model, case, Some(&pool));

    // Find a generated case that actually exercises an ADD and diverges.
    let mut caught = None;
    for seed in 0..200u64 {
        let case = generate(seed);
        if !case_has_add(&case) {
            continue;
        }
        if predicate(&case).is_some() {
            caught = Some((seed, case));
            break;
        }
    }
    let (seed, case) = caught.expect("no generated case tripped the corrupted adder in 200 seeds");

    let (small, mismatch) = shrink(&case, predicate);
    let len = small.lowered_len().expect("shrunk case must lower");
    assert!(
        len <= 10,
        "seed {seed}: reproducer not small enough ({len} instructions):\n{}",
        reproducer_text(&small, &mismatch)
    );
    assert!(case_has_add(&small), "shrunk reproducer lost the ADD:\n{}", small.to_text());
    // The clean pool-less run must still pass: the defect is in the
    // injected recipe, not the stack.
    assert_eq!(check_case_on(&model, &small, None), None);
}

/// Corrupts one LUT table entry of a pLUTo recipe — the in-memory analog
/// of a mis-programmed LUT row. The table is programmed into the DRAM
/// subarray once and queried at every bit position, so a single flipped
/// entry corrupts every query that uses that table, not just one op.
fn corrupt_lut_entry(recipe: &Recipe) -> Recipe {
    let mut ops = recipe.ops().to_vec();
    let target = ops.iter().find_map(|op| match op {
        MicroOp::Lut { table, .. } => Some(*table),
        _ => None,
    });
    if let Some(t) = target {
        for op in ops.iter_mut() {
            if let MicroOp::Lut { table, .. } = op {
                if *table == t {
                    // Minterm 0 (a=b=c=0): the generator builds small
                    // structured operand values, so this is the one entry
                    // virtually every ADD queries at some bit position.
                    *table ^= 1;
                }
            }
        }
    }
    Recipe::from_ops(ops)
}

/// Rewrites a DPU ADD word recipe into a SUB — the word-serial analog of a
/// corrupted entry in the DPU's dispatch/cost table sending the operands
/// down the wrong ALU sequence.
fn corrupt_word_dispatch(recipe: &Recipe) -> Recipe {
    let ops = recipe
        .ops()
        .iter()
        .map(|op| match *op {
            MicroOp::Word { instr: Instruction::Binary { op: BinaryOp::Add, rs, rt, rd } } => {
                MicroOp::Word { instr: Instruction::Binary { op: BinaryOp::Sub, rs, rt, rd } }
            }
            other => other,
        })
        .collect();
    Recipe::from_ops(ops)
}

/// Shared canary driver: preloads corrupted ADD recipes for `kind` into a
/// pool, proves the differential suite catches a generated case, and
/// shrinks it to a ≤ 10-instruction reproducer that passes cleanly without
/// the corrupted pool.
fn assert_canary_caught_and_shrunk(kind: DatapathKind, corrupt: impl Fn(&Recipe) -> Recipe) {
    let model = DatapathModel::for_kind(kind);
    let ctx = model.recipe_ctx();
    let pool = Arc::new(RecipePool::new());
    for rs in 0..14u16 {
        for rt in 0..14u16 {
            for rd in 0..10u16 {
                let instr = Instruction::Binary {
                    op: BinaryOp::Add,
                    rs: RegId(rs),
                    rt: RegId(rt),
                    rd: RegId(rd),
                };
                let recipe = build_recipe(ctx, &instr).expect("ADD recipe");
                pool.preload(ctx, &instr, corrupt(&recipe));
            }
        }
    }

    let predicate = |case: &Case| check_case_on(&model, case, Some(&pool));

    // Scan seeds until one both trips the canary and shrinks to a minimal
    // reproducer. Some catches sit inside loop bodies the shrinker cannot
    // break apart (the loop itself is load-bearing), so a single catch is
    // not enough — the canary contract needs one ≤10-instruction witness.
    let mut tripped = 0u32;
    let mut best: Option<(u64, usize, Case, String)> = None;
    for seed in 0..200u64 {
        let case = generate(seed);
        if !case_has_add(&case) || predicate(&case).is_none() {
            continue;
        }
        tripped += 1;
        let (small, mismatch) = shrink(&case, predicate);
        let len = small.lowered_len().expect("shrunk case must lower");
        if best.as_ref().is_none_or(|(_, blen, _, _)| len < *blen) {
            best = Some((seed, len, small, mismatch));
        }
        if best.as_ref().is_some_and(|(_, blen, _, _)| *blen <= 10) {
            break;
        }
    }
    assert!(tripped > 0, "no generated case tripped the {kind:?} canary in 200 seeds");
    let (seed, len, small, mismatch) = best.expect("a tripped canary always yields a shrink");
    assert!(
        len <= 10,
        "seed {seed}: best of {tripped} reproducers not small enough ({len} instructions):\n{}",
        reproducer_text(&small, &mismatch)
    );
    assert!(case_has_add(&small), "shrunk reproducer lost the ADD:\n{}", small.to_text());
    // The clean pool-less run must still pass: the defect is in the
    // injected recipe, not the stack.
    assert_eq!(check_case_on(&model, &small, None), None);
}

#[test]
fn injected_lut_table_bug_is_caught_and_shrunk() {
    assert_canary_caught_and_shrunk(DatapathKind::Pluto, corrupt_lut_entry);
}

#[test]
fn injected_dpu_dispatch_bug_is_caught_and_shrunk() {
    assert_canary_caught_and_shrunk(DatapathKind::Dpu, corrupt_word_dispatch);
}

#[test]
fn optimizer_on_suite_stays_conformant() {
    // The recipe optimizer is on by default, so `check_case_on` already
    // exercises optimized recipes on every backend and execution tier.
    // This sweep makes that explicit — and checks the complement: the same
    // cases must also pass with the optimizer disabled, so any divergence
    // between the two configurations is the optimizer's fault alone.
    let cases: u64 =
        std::env::var("CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(10);
    for seed in 3000..3000 + cases {
        let case = generate(seed);
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            assert!(
                dp.opt_config().enabled,
                "{kind:?}: the shipped datapath must optimize by default"
            );
            if let Some(m) = check_case_on(&dp, &case, None) {
                panic!("seed {seed} on {kind:?} with optimizer on: {m}");
            }
        }
    }
}

#[test]
fn optimizer_canary_is_caught_and_shrunk() {
    // The optimizer's built-in unsound-rule canary (it corrupts a `Set`
    // constant before rewriting, producing a lane-visible wrong recipe)
    // planted in a shared pool must be caught by the differential suite
    // and shrink to a small reproducer — mirroring the MAJ-carry canary.
    let model = DatapathModel::for_kind(DatapathKind::Racer);
    let canary = model.clone().with_opt_config(OptConfig { canary: true, ..OptConfig::default() });
    let ctx = model.recipe_ctx();
    let pool = Arc::new(RecipePool::new());
    for rs in 0..14u16 {
        for rt in 0..14u16 {
            for rd in 0..10u16 {
                let instr = Instruction::Binary {
                    op: BinaryOp::Add,
                    rs: RegId(rs),
                    rt: RegId(rt),
                    rd: RegId(rd),
                };
                let wrong = canary.recipe(&instr).expect("canary ADD recipe");
                pool.preload(ctx, &instr, wrong);
            }
        }
    }

    let predicate = |case: &Case| check_case_on(&model, case, Some(&pool));

    let mut caught = None;
    for seed in 0..200u64 {
        let case = generate(seed);
        if !case_has_add(&case) {
            continue;
        }
        if predicate(&case).is_some() {
            caught = Some((seed, case));
            break;
        }
    }
    let (seed, case) = caught.expect("no generated case tripped the optimizer canary in 200 seeds");

    let (small, mismatch) = shrink(&case, predicate);
    let len = small.lowered_len().expect("shrunk case must lower");
    assert!(
        len <= 10,
        "seed {seed}: reproducer not small enough ({len} instructions):\n{}",
        reproducer_text(&small, &mismatch)
    );
    assert!(case_has_add(&small), "shrunk reproducer lost the ADD:\n{}", small.to_text());
    // The clean pool-less run must still pass: the defect is the canary
    // recipe, not the optimizer or the stack.
    assert_eq!(check_case_on(&model, &small, None), None);
}

const GOLDEN_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

fn golden_lines() -> String {
    let mut out = String::new();
    let mut emit = |label: &str, seed: u64, case: &conformance::Case| {
        for kind in DatapathKind::ALL {
            let stats = simulate(&DatapathModel::for_kind(kind), case)
                .unwrap_or_else(|e| panic!("{label}={seed} on {kind:?}: {e}"));
            let energy = stats.energy.total_pj();
            out.push_str(&format!(
                "{label}={seed} backend={kind:?} cycles={} instructions={} uops={} waves={} \
                 messages={} noc_bytes={} energy_pj={energy:.3}\n",
                stats.cycles,
                stats.instructions,
                stats.uops,
                stats.scheduler_waves,
                stats.messages_sent,
                stats.noc_bytes,
            ));
        }
    };
    for seed in GOLDEN_SEEDS {
        emit("seed", seed, &generate(seed));
    }
    for seed in GOLDEN_SEEDS {
        emit("pipeline_seed", seed, &generate_pipeline_case(seed));
    }
    out
}

/// Pins cycle and energy counters for a fixed corpus. Any timing or
/// energy-model change shows up as a diff here; re-bless deliberately with
/// `MPU_BLESS=1 cargo test -p conformance golden`.
#[test]
fn golden_stats_snapshot() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/stats.txt");
    let actual = golden_lines();
    if std::env::var("MPU_BLESS").is_ok() {
        std::fs::write(path, &actual).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path}: {e} (run with MPU_BLESS=1)"));
    assert_eq!(
        actual, expected,
        "golden statistics drifted; if intentional, re-bless with MPU_BLESS=1"
    );
}
