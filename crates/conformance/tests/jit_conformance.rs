//! The trace-tier ("JIT") conformance suite:
//!
//! * a dedicated differential sweep over a disjoint seed range, proving
//!   the fused ensemble-trace tier byte-identical to the compiled tier and
//!   to the word-level reference model on every backend
//!   (`JIT_CONFORMANCE_CASES` overrides the case count);
//! * fallback canaries: bodies the trace tier must refuse to fuse (EFI
//!   loops, mid-body `GETMASK`, subroutine calls) and configurations that
//!   need per-instruction fidelity run on the per-instruction tier — and
//!   still produce the same results;
//! * the playback-refill accounting property (proptest): a straight-line
//!   body of `n` instructions charges exactly `ceil((n + 1) / entries) - 1`
//!   refills, and the trace tier reproduces the same charges.

use conformance::{check_case, generate, reproducer_text, shrink};
use mastodon::{run_single, EventLog, SimConfig, TraceKind};
use mpu_isa::{Instruction, LineNum, Program, RegId, VrfId};
use pum_backend::DatapathKind;

#[test]
fn compiled_vs_fused_differential_suite() {
    let cases: u64 =
        std::env::var("JIT_CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40);
    // A seed range disjoint from tests/conformance.rs so the two sweeps
    // compound rather than repeat (check_case covers the compiled and
    // trace tiers on every shipped backend).
    for seed in 50_000..50_000 + cases {
        let case = generate(seed);
        if let Some(mismatch) = check_case(&case) {
            let (small, m) = shrink(&case, check_case);
            panic!("seed {seed}: {mismatch}\n{}", reproducer_text(&small, &m));
        }
    }
}

fn racer() -> SimConfig {
    SimConfig::mpu(DatapathKind::Racer)
}

fn asm(text: &str) -> Program {
    Program::parse_asm(text).expect("valid asm")
}

#[test]
fn straight_line_bodies_run_on_the_trace_tier() {
    let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nSETMASK r63\nINC r2 r3\nUNMASK\nCOMPUTE_DONE");
    let (_, mpu) = run_single(racer(), &p, &[((0, 0, 0), vec![5; 64])]).unwrap();
    assert_eq!(mpu.tier_counts(), (1, 0), "straight-line body must fuse");
}

#[test]
fn efi_loops_fall_back_to_the_compiled_tier() {
    // while (r0 > r1): r0 -= r2 — data-dependent trip count.
    let p = asm("COMPUTE h0 v0\n\
         CMPGT r0 r1\n\
         SETMASK r63\n\
         SUB r0 r2 r0\n\
         JUMP_COND 1\n\
         UNMASK\n\
         COMPUTE_DONE");
    let inputs: [((u16, u16, u8), Vec<u64>); 3] =
        [((0, 0, 0), vec![3; 64]), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])];
    let (_, mut mpu) = run_single(racer(), &p, &inputs).unwrap();
    assert_eq!(mpu.tier_counts(), (0, 1), "EFI loop must not fuse");
    assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; 64]);
}

#[test]
fn mid_body_getmask_falls_back() {
    let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nGETMASK r3\nCOMPUTE_DONE");
    let (_, mpu) = run_single(racer(), &p, &[]).unwrap();
    assert_eq!(mpu.tier_counts(), (0, 1), "mask readout must not fuse");
}

#[test]
fn subroutine_calls_fall_back() {
    let p = Program::from_instructions(vec![
        Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
        Instruction::Jump { target: LineNum(4) },
        Instruction::ComputeDone,
        Instruction::Return,
        Instruction::Unary { op: mpu_isa::UnaryOp::Inc, rs: RegId(0), rd: RegId(1) },
        Instruction::Return,
    ]);
    let (_, mut mpu) = run_single(racer(), &p, &[((0, 0, 0), vec![41; 64])]).unwrap();
    assert_eq!(mpu.tier_counts(), (0, 1), "JUMP/RETURN must not fuse");
    assert_eq!(mpu.read_register(0, 0, 1).unwrap(), vec![42; 64]);
}

#[test]
fn every_backend_agrees_across_tiers_on_a_predicated_body() {
    let p = asm("COMPUTE h0 v0\n\
         ADD r0 r1 r2\n\
         CMPGT r2 r0\n\
         SETMASK r63\n\
         SUB r2 r1 r3\n\
         UNMASK\n\
         INC r3 r4\n\
         COMPUTE_DONE");
    for kind in DatapathKind::ALL {
        let lanes = SimConfig::mpu(kind).datapath.geometry().lanes_per_vrf;
        let inputs: [((u16, u16, u8), Vec<u64>); 2] =
            [((0, 0, 0), (0..lanes as u64).collect()), ((0, 0, 1), vec![7; lanes])];
        let mut off = SimConfig::mpu(kind);
        off.trace_ensembles = false;
        let (want, mut m1) = run_single(off, &p, &inputs).unwrap();
        let (got, mut m2) = run_single(SimConfig::mpu(kind), &p, &inputs).unwrap();
        assert_eq!(m2.tier_counts(), (1, 0), "{kind:?}: body must fuse");
        assert_eq!(want, got, "{kind:?}: statistics must be bit-identical");
        for reg in 0..5 {
            assert_eq!(
                m1.read_register(0, 0, reg).unwrap(),
                m2.read_register(0, 0, reg).unwrap(),
                "{kind:?} r{reg}"
            );
        }
    }
}

mod playback_refill {
    use super::*;
    use proptest::prelude::*;

    /// A straight-line ensemble with `n` NOP body instructions.
    fn nop_body(n: usize) -> Program {
        let mut instrs = vec![Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) }];
        instrs.extend(std::iter::repeat_n(Instruction::Nop, n));
        instrs.push(Instruction::ComputeDone);
        Program::from_instructions(instrs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-instruction tier charges exactly
        /// `ceil(body_len / entries) - 1` playback refills for a
        /// straight-line body (`body_len` counts the `COMPUTE_DONE`
        /// fetch), and the trace tier settles identical charges.
        #[test]
        fn refill_count_matches_the_closed_form(n in 1usize..200, entries in 1usize..=64) {
            let p = nop_body(n);
            let mut cfg = racer();
            cfg.playback_entries = entries;

            // Count actual refill events on the per-instruction tier (an
            // armed tracer forces the fallback path).
            let log = EventLog::new();
            let (tracer_stats, _) = mastodon::run_single_traced(
                cfg.clone(), &p, &[], None, Some(Box::new(log.clone())),
            ).unwrap();
            let refills = log
                .take()
                .iter()
                .filter(|ev| matches!(ev.kind, TraceKind::PlaybackRefill))
                .count();
            let body_len = n + 1; // n body instructions + COMPUTE_DONE
            prop_assert_eq!(refills, body_len.div_ceil(entries) - 1);

            // The trace tier reproduces the same charges.
            let (trace_stats, mpu) = run_single(cfg.clone(), &p, &[]).unwrap();
            prop_assert_eq!(mpu.tier_counts(), (1, 0));
            prop_assert_eq!(trace_stats, tracer_stats);

            // And so does the untraced per-instruction tier.
            let mut off = cfg;
            off.trace_ensembles = false;
            let (compiled_stats, _) = run_single(off, &p, &[]).unwrap();
            prop_assert_eq!(trace_stats, compiled_stats);
        }
    }
}
