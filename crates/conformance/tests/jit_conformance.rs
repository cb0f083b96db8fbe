//! The block-tier conformance suite:
//!
//! * a dedicated differential sweep over a disjoint seed range, proving
//!   multi-instruction blocks byte-identical to one instruction per block
//!   and to the word-level reference model on every backend
//!   (`JIT_CONFORMANCE_CASES` overrides the case count);
//! * canaries: EFI loops, mid-body `GETMASK` and subroutine calls run on
//!   multi-instruction blocks with the results of one-instruction blocks;
//! * the block-boundary properties (proptest): random bodies of the shapes
//!   ezpim emits agree between the two block sizes on every substrate, and
//!   so do raw branches from one body back into an earlier body, which
//!   also agree with the reference model;
//! * the playback-refill accounting property (proptest): a straight-line
//!   body of `n` instructions charges exactly `ceil((n + 1) / entries) - 1`
//!   refills, whichever way it runs.

use conformance::{check_case, generate, ref_geometry, reproducer_text, shrink};
use mastodon::{
    run_single, EventLog, Mpu, RegisterInit, RunControl, SimConfig, SimError, Stats, TraceKind,
};
use mpu_isa::{Instruction, LineNum, MpuId, Program, RegId, VrfId};
use pum_backend::{DatapathKind, DatapathModel};

#[test]
fn compiled_vs_fused_differential_suite() {
    let cases: u64 =
        std::env::var("JIT_CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40);
    // A seed range disjoint from tests/conformance.rs so the two sweeps
    // compound rather than repeat (check_case covers the compiled and
    // block tiers on every shipped backend).
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

/// What a run leaves behind: the outcome, the ledger, register lanes and
/// the tier split.
type Observed = (Result<Stats, SimError>, Stats, Vec<Vec<u64>>, (u64, u64));

/// Runs `p` on a fresh MPU, to completion or error; observes every
/// member's r0..r15. A run that crosses 10 000 top-level instructions
/// (none of these programs has that many) is cut with
/// `SimError::Cancelled`, so a machine that re-enters an ensemble header
/// forever fails its test instead of hanging it.
fn observe(
    config: SimConfig,
    p: &Program,
    members: &[(u16, u16)],
    inputs: &[RegisterInit],
) -> Observed {
    let mut mpu = Mpu::new(config, MpuId(0));
    for ((rfh, vrf, reg), values) in inputs {
        mpu.write_register(*rfh, *vrf, *reg, values).unwrap();
    }
    let ctrl = std::sync::Arc::new(RunControl::new());
    ctrl.preempt_at_boundary(10_000);
    mpu.set_run_control(ctrl);
    let outcome = mpu.run(p);
    let lanes = members
        .iter()
        .flat_map(|&(rfh, vrf)| (0..16).map(move |reg| (rfh, vrf, reg)))
        .map(|(rfh, vrf, reg)| mpu.read_register(rfh, vrf, reg).unwrap())
        .collect();
    (outcome, *mpu.stats(), lanes, mpu.tier_counts())
}

/// Runs `p` on the reference model for `kind`'s geometry; returns every
/// member's r0..r15 (as [`observe`] lays them out) and the instructions
/// retired.
fn reference(
    kind: DatapathKind,
    p: &Program,
    members: &[(u16, u16)],
    inputs: &[RegisterInit],
) -> (Vec<Vec<u64>>, u64) {
    let mut mpu = refmodel::run_ref(ref_geometry(&DatapathModel::for_kind(kind)), p, inputs)
        .expect("reference run");
    let lanes = members
        .iter()
        .flat_map(|&(rfh, vrf)| (0..16).map(move |reg| (rfh, vrf, reg)))
        .map(|(rfh, vrf, reg)| mpu.read_register(rfh, vrf, reg))
        .collect();
    (lanes, mpu.trace().instructions)
}

/// Asserts `p` runs on multi-instruction blocks, with the outcome, lanes
/// and `Stats` of one instruction per block; returns h0.v0's registers.
fn assert_runs_on_blocks(p: &Program, inputs: &[RegisterInit]) -> Vec<Vec<u64>> {
    let mut single = racer();
    single.trace_ensembles = false;
    let (want, want_stats, want_lanes, tiers) = observe(single, p, &[(0, 0)], inputs);
    assert_eq!(tiers, (0, 1));
    let (got, got_stats, got_lanes, tiers) = observe(racer(), p, &[(0, 0)], inputs);
    assert_eq!(tiers, (1, 0), "the body must run on multi-instruction blocks");
    assert_eq!(got, want);
    assert_eq!(got_stats, want_stats);
    assert_eq!(got_lanes, want_lanes);
    got_lanes
}

#[test]
fn straight_line_bodies_run_on_blocks() {
    let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nSETMASK r63\nINC r2 r3\nUNMASK\nCOMPUTE_DONE");
    assert_runs_on_blocks(&p, &[((0, 0, 0), vec![5; 64])]);
}

#[test]
fn efi_loops_run_on_blocks() {
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
    assert_eq!(assert_runs_on_blocks(&p, &inputs)[0], vec![0; 64]);
}

#[test]
fn mid_body_getmask_runs_on_blocks() {
    let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nGETMASK r3\nCOMPUTE_DONE");
    assert_eq!(assert_runs_on_blocks(&p, &[])[3], vec![1; 64]);
}

#[test]
fn subroutine_calls_run_on_blocks() {
    let p = Program::from_instructions(vec![
        Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
        Instruction::Jump { target: LineNum(4) },
        Instruction::ComputeDone,
        Instruction::Return,
        Instruction::Unary { op: mpu_isa::UnaryOp::Inc, rs: RegId(0), rd: RegId(1) },
        Instruction::Return,
    ]);
    assert_eq!(assert_runs_on_blocks(&p, &[((0, 0, 0), vec![41; 64])])[1], vec![42; 64]);
}

#[test]
fn a_branch_back_into_an_earlier_body_matches_the_reference_model() {
    // The second body's JUMP_COND targets line 1, inside the first body:
    // the second body's layout starts two lines before its entry. r0 is
    // all zero, so the branch falls through and the program halts.
    let p = asm("COMPUTE h0 v0\nNOP\nCOMPUTE_DONE\n\
         COMPUTE h0 v0\nSETMASK r0\nJUMP_COND 1\nUNMASK\nADD r1 r2 r3\nCOMPUTE_DONE\n\
         RETURN");
    for kind in DatapathKind::ALL {
        let lanes = SimConfig::mpu(kind).datapath.geometry().lanes_per_vrf;
        let inputs = [((0, 0, 1), vec![5; lanes]), ((0, 0, 2), vec![7; lanes])];
        let (want, instructions) = reference(kind, &p, &[(0, 0)], &inputs);
        for trace_ensembles in [true, false] {
            let config = SimConfig { trace_ensembles, ..SimConfig::mpu(kind) };
            let (outcome, stats, got, _) = observe(config, &p, &[(0, 0)], &inputs);
            let ctx = format!("{kind:?}, trace_ensembles = {trace_ensembles}");
            assert!(outcome.is_ok(), "{ctx}: {outcome:?}");
            assert_eq!(stats.instructions, instructions, "{ctx}");
            assert_eq!(got, want, "{ctx}");
        }
    }
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
        assert_eq!(m2.tier_counts(), (1, 0), "{kind:?}: body must run on blocks");
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

        /// Execution charges exactly `ceil(body_len / entries) - 1`
        /// playback refills for a straight-line body (`body_len` counts
        /// the `COMPUTE_DONE` fetch), traced or not, whichever block size
        /// runs it.
        #[test]
        fn refill_count_matches_the_closed_form(n in 1usize..200, entries in 1usize..=64) {
            let p = nop_body(n);
            let mut cfg = racer();
            cfg.playback_entries = entries;

            // Count actual refill events.
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

            // Untraced blocks charge the same.
            let (trace_stats, mpu) = run_single(cfg.clone(), &p, &[]).unwrap();
            prop_assert_eq!(mpu.tier_counts(), (1, 0));
            prop_assert_eq!(trace_stats, tracer_stats);

            // And so do one-instruction blocks.
            let mut off = cfg;
            off.trace_ensembles = false;
            let (compiled_stats, _) = run_single(off, &p, &[]).unwrap();
            prop_assert_eq!(trace_stats, compiled_stats);
        }
    }
}

/// The block-boundary property: random bodies of the shapes ezpim emits —
/// EFI loops, nested `GETMASK` predication, `SETMASK`/`UNMASK` runs and
/// subroutine calls laid out after the halt `RETURN` — plus raw EFI loops
/// whose first line a back edge re-enters under a partial mask, give the
/// same outcome, lanes and `Stats` on multi-instruction blocks as on one
/// instruction per block, on every substrate. Every case also runs with a
/// 4-entry playback buffer (refills inside loops) and under a watchdog
/// that trips partway through, and once under DMR.
mod block_boundaries {
    use super::*;
    use mastodon::Redundancy;
    use mpu_isa::{BinaryOp, CompareOp, UnaryOp, COND_REG};
    use proptest::prelude::*;

    /// The case's stream of choices (splitmix64).
    struct Choices(u64);

    impl Choices {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn reg(&mut self, from: &[u16]) -> RegId {
            RegId(from[self.below(from.len() as u64) as usize])
        }
    }

    /// Registers random ops read and write. The rest keep the loops
    /// finite: r0 seeds trip counts, r1 is zero, r2 is one, r7/r8 count
    /// the (at most two nested) loops, r10..r13 save masks, r14 takes mask
    /// readouts and r15 bounds branches back into an earlier body.
    const READ: [u16; 8] = [0, 1, 2, 3, 4, 5, 6, 9];
    const WRITTEN: [u16; 5] = [3, 4, 5, 6, 9];

    fn bin(op: BinaryOp, rs: u16, rt: u16, rd: u16) -> Instruction {
        Instruction::Binary { op, rs: RegId(rs), rt: RegId(rt), rd: RegId(rd) }
    }

    /// The ensemble under construction: `code` from line 0 (the header
    /// first), the subroutine count, and the calls to patch once the
    /// subroutines are laid out after the halt `RETURN`.
    struct Asm {
        c: Choices,
        code: Vec<Instruction>,
        subs: u64,
        calls: Vec<(usize, u64)>,
        /// Whether `block` may emit EFI loops.
        loops: bool,
    }

    impl Asm {
        fn emit(&mut self, instr: Instruction) {
            self.code.push(instr);
        }

        fn op(&mut self) {
            let c = &mut self.c;
            let (rs, rt, rd) = (c.reg(&READ), c.reg(&READ), c.reg(&WRITTEN));
            let instr = match c.below(6) {
                0 => Instruction::Binary { op: BinaryOp::Add, rs, rt, rd },
                1 => Instruction::Binary { op: BinaryOp::Sub, rs, rt, rd },
                2 => Instruction::Binary { op: BinaryOp::Xor, rs, rt, rd },
                3 => Instruction::Binary { op: BinaryOp::And, rs, rt, rd },
                4 => Instruction::Unary { op: UnaryOp::Inc, rs, rd },
                _ => Instruction::Nop,
            };
            self.emit(instr);
        }

        fn ops(&mut self) {
            for _ in 0..1 + self.c.below(3) {
                self.op();
            }
        }

        fn compare(&mut self) {
            let (rs, rt) = (self.c.reg(&READ), self.c.reg(&READ));
            let op = [CompareOp::Eq, CompareOp::Gt, CompareOp::Lt][self.c.below(3) as usize];
            self.emit(Instruction::Compare { op, rs, rt });
        }

        /// The rest of ezpim's nesting-safe predication prologue, after the
        /// enclosing mask was saved in `ro` and the condition computed:
        /// enable `enclosing AND cond` (via `rm`).
        fn intersect(&mut self, ro: u16, rm: u16) {
            self.emit(Instruction::SetMask { rs: COND_REG });
            self.emit(Instruction::GetMask { rd: RegId(rm) });
            self.emit(Instruction::Unmask);
            self.emit(bin(BinaryOp::And, rm, ro, rm));
            self.emit(Instruction::SetMask { rs: RegId(rm) });
        }

        /// ezpim's epilogue: restore the mask saved in `ro`.
        fn restore(&mut self, ro: u16) {
            self.emit(Instruction::Unmask);
            self.emit(Instruction::SetMask { rs: RegId(ro) });
        }

        /// Appends one to three random statements. `nest` counts the open
        /// predicated constructs (two mask-save pairs); `loops` counts the
        /// enclosing EFI loops, inside which a raw `UNMASK` would keep the
        /// loop spinning, so raw mask runs and raw loops stay outside them.
        /// Raw loops also stay outside predicated constructs: their compare
        /// runs under the enclosing mask, so a lane outside it would enter
        /// the loop on a stale condition with a stale counter.
        fn block(&mut self, nest: u16, loops: u16) {
            for _ in 0..1 + self.c.below(3) {
                let (ro, rm) = (10 + 2 * nest, 11 + 2 * nest);
                let rc = 7 + loops;
                match self.c.below(9) {
                    0 | 1 => self.ops(),
                    2 if nest < 2 => {
                        // if (cond) { ... }
                        self.emit(Instruction::GetMask { rd: RegId(ro) });
                        self.compare();
                        self.intersect(ro, rm);
                        self.block(nest + 1, loops);
                        self.restore(ro);
                    }
                    3 if nest < 2 && self.loops => {
                        // while (rc > 0) { rc -= 1; ... }, rc seeded from r0:
                        // the back edge re-enters at the compare.
                        self.emit(bin(BinaryOp::Add, 0, 1, rc));
                        self.emit(Instruction::GetMask { rd: RegId(ro) });
                        let head = self.code.len();
                        self.emit(Instruction::Compare {
                            op: CompareOp::Gt,
                            rs: RegId(rc),
                            rt: RegId(1),
                        });
                        self.intersect(ro, rm);
                        self.emit(bin(BinaryOp::Sub, rc, 2, rc));
                        self.block(nest + 1, loops + 1);
                        self.emit(Instruction::JumpCond { target: LineNum(head as u32) });
                        self.restore(ro);
                    }
                    4 if loops == 0 && nest == 0 && self.loops => {
                        // A raw EFI loop: random ops at its head run under
                        // the mask the previous iteration left.
                        self.emit(bin(BinaryOp::Add, 0, 1, rc));
                        let head = self.code.len();
                        self.ops();
                        self.emit(Instruction::Compare {
                            op: CompareOp::Gt,
                            rs: RegId(rc),
                            rt: RegId(1),
                        });
                        self.emit(Instruction::SetMask { rs: COND_REG });
                        self.emit(bin(BinaryOp::Sub, rc, 2, rc));
                        self.ops();
                        self.emit(Instruction::JumpCond { target: LineNum(head as u32) });
                        self.emit(Instruction::Unmask);
                    }
                    5 if loops == 0 => {
                        // A raw SETMASK/UNMASK run with a mask readout.
                        self.compare();
                        self.emit(Instruction::SetMask { rs: COND_REG });
                        self.ops();
                        self.emit(Instruction::GetMask { rd: RegId(14) });
                        self.emit(Instruction::Unmask);
                    }
                    6 | 7 if self.subs > 0 => {
                        let sub = self.c.below(self.subs);
                        self.calls.push((self.code.len(), sub));
                        self.emit(Instruction::Jump { target: LineNum(0) });
                    }
                    _ => self.op(),
                }
            }
        }

        /// Emits the halt `RETURN`, lays out the subroutines after it and
        /// patches the calls.
        fn halt(mut self) -> Program {
            self.emit(Instruction::Return);
            let mut bases = Vec::new();
            for _ in 0..self.subs {
                bases.push(self.code.len() as u32);
                self.ops();
                self.emit(Instruction::Return);
            }
            for &(at, sub) in &self.calls {
                self.code[at] = Instruction::Jump { target: LineNum(bases[sub as usize]) };
            }
            Program::from_instructions(self.code)
        }
    }

    fn header(members: &[(u16, u16)]) -> Vec<Instruction> {
        let header = members
            .iter()
            .map(|&(rfh, vrf)| Instruction::Compute { rfh: rfh.into(), vrf: VrfId(vrf) });
        header.collect()
    }

    /// One random ensemble, then the halt `RETURN`, then its subroutines.
    fn program(mut c: Choices, members: &[(u16, u16)]) -> Program {
        let subs = c.below(3);
        let mut asm = Asm { c, code: header(members), subs, calls: Vec::new(), loops: true };
        asm.block(0, 0);
        asm.emit(Instruction::ComputeDone);
        asm.halt()
    }

    /// Two ensembles over the same members, then the halt `RETURN` and the
    /// subroutines. The second body's counted `JUMP_COND` targets a random
    /// line of the first body, below its own first line: a taken branch
    /// runs the rest of the first body under the second body's mask, ends
    /// the ensemble at the first `COMPUTE_DONE`, and so re-enters the
    /// second ensemble from its header. r15 (a host input no statement
    /// writes) bounds the re-entries. The first body holds no EFI loops,
    /// whose counters a mid-loop entry would leave unbounded.
    fn raw_program(mut c: Choices, members: &[(u16, u16)]) -> Program {
        let subs = c.below(3);
        let mut asm = Asm { c, code: header(members), subs, calls: Vec::new(), loops: false };
        let first = asm.code.len();
        asm.block(0, 0);
        asm.emit(Instruction::ComputeDone);
        let target = first + asm.c.below((asm.code.len() - first) as u64) as usize;
        asm.loops = true;
        asm.code.extend(header(members));
        asm.block(0, 0);
        asm.emit(Instruction::Compare { op: CompareOp::Gt, rs: RegId(15), rt: RegId(1) });
        asm.emit(Instruction::SetMask { rs: COND_REG });
        asm.emit(bin(BinaryOp::Sub, 15, 2, 15));
        asm.emit(Instruction::JumpCond { target: LineNum(target as u32) });
        asm.emit(Instruction::Unmask);
        asm.block(0, 0);
        asm.emit(Instruction::ComputeDone);
        asm.halt()
    }

    /// Lane inputs for `members` on `kind`: r0 seeds trip counts, r1 is
    /// zero, r2 is one, r15 bounds re-entries, and the written registers
    /// start from salted data.
    fn inputs(kind: DatapathKind, seed: u64, members: &[(u16, u16)]) -> Vec<RegisterInit> {
        let lanes = SimConfig::mpu(kind).datapath.geometry().lanes_per_vrf as u64;
        let mut inputs: Vec<RegisterInit> = Vec::new();
        for &(rfh, vrf) in members {
            let column = |f: &dyn Fn(u64) -> u64| (0..lanes).map(f).collect::<Vec<_>>();
            let salt = seed ^ u64::from(vrf);
            inputs.extend([
                ((rfh, vrf, 0), column(&|i| (i ^ salt) % 5)),
                ((rfh, vrf, 1), vec![0; lanes as usize]),
                ((rfh, vrf, 2), vec![1; lanes as usize]),
                ((rfh, vrf, 15), column(&|i| (i ^ salt.rotate_left(17)) % 4)),
            ]);
            for reg in [3, 4, 5, 6, 9] {
                let salt = salt.rotate_left(u32::from(reg) * 7);
                inputs.push(((rfh, vrf, reg), column(&|i| ((i * 0x9E37) ^ salt) % 97)));
            }
        }
        inputs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_bodies_match_one_instruction_blocks(seed in any::<u64>()) {
            let mut c = Choices(seed);
            let members: &[(u16, u16)] =
                if c.below(2) == 0 { &[(0, 0)] } else { &[(0, 0), (0, 1)] };
            let watchdog = 1 + c.below(60);
            let p = program(c, members);
            for kind in DatapathKind::ALL {
                let base = SimConfig::mpu(kind);
                let inputs = inputs(kind, seed, members);
                let mut refills = base.clone();
                refills.playback_entries = 4;
                let mut tripped = base.clone();
                tripped.recovery.watchdog_instructions = Some(watchdog);
                for (what, config) in [("base", base), ("4-entry playback", refills), ("watchdog", tripped)] {
                    let mut single = config.clone();
                    single.trace_ensembles = false;
                    let ctx = format!("seed {seed:#x}, {kind:?}, {what}");
                    let want = observe(single, &p, members, &inputs);
                    let got = observe(config, &p, members, &inputs);
                    prop_assert_eq!(want.3, (0, 1), "{}", ctx);
                    prop_assert_eq!(got.3, (1, 0), "{}", ctx);
                    prop_assert_eq!(&got.0, &want.0, "outcome ({})", ctx);
                    prop_assert_eq!(got.1, want.1, "Stats ({})", ctx);
                    prop_assert_eq!(&got.2, &want.2, "lanes ({})", ctx);
                }
            }
            // DMR runs one instruction per block whatever the setting.
            let mut dmr = racer();
            dmr.recovery.redundancy = Redundancy::Dmr;
            let racer_inputs: Vec<RegisterInit> = members
                .iter()
                .flat_map(|&(rfh, vrf)| {
                    [((rfh, vrf, 0), (0..64).map(|i| i % 5).collect()), ((rfh, vrf, 2), vec![1; 64])]
                })
                .collect();
            let mut single = dmr.clone();
            single.trace_ensembles = false;
            let want = observe(single, &p, members, &racer_inputs);
            let got = observe(dmr, &p, members, &racer_inputs);
            prop_assert_eq!(got.3, (0, 1), "seed {:#x}: DMR", seed);
            prop_assert_eq!(&got.0, &want.0, "seed {:#x}: DMR outcome", seed);
            prop_assert_eq!(got.1, want.1, "seed {:#x}: DMR Stats", seed);
            prop_assert_eq!(&got.2, &want.2, "seed {:#x}: DMR lanes", seed);
        }

        #[test]
        fn raw_branches_into_an_earlier_body_match_the_reference_model(seed in any::<u64>()) {
            let mut c = Choices(seed);
            let members: &[(u16, u16)] =
                if c.below(2) == 0 { &[(0, 0)] } else { &[(0, 0), (0, 1)] };
            let p = raw_program(c, members);
            for kind in DatapathKind::ALL {
                let inputs = inputs(kind, seed, members);
                let (lanes, instructions) = reference(kind, &p, members, &inputs);
                let base = SimConfig::mpu(kind);
                let mut refills = base.clone();
                refills.playback_entries = 4;
                for (what, config) in [("base", base), ("4-entry playback", refills)] {
                    let mut single = config.clone();
                    single.trace_ensembles = false;
                    let ctx = format!("seed {seed:#x}, {kind:?}, {what}");
                    let want = observe(single, &p, members, &inputs);
                    let got = observe(config, &p, members, &inputs);
                    prop_assert_eq!(want.3.0, 0, "{}", ctx);
                    prop_assert_eq!(got.3.1, 0, "{}", ctx);
                    prop_assert!(got.0.is_ok(), "{}: {:?}", ctx, got.0);
                    prop_assert_eq!(&got.0, &want.0, "outcome ({})", ctx);
                    prop_assert_eq!(got.1, want.1, "Stats ({})", ctx);
                    prop_assert_eq!(&got.2, &want.2, "lanes ({})", ctx);
                    prop_assert_eq!(got.1.instructions, instructions, "reference ({})", ctx);
                    prop_assert_eq!(&got.2, &lanes, "reference lanes ({})", ctx);
                }
            }
        }
    }
}
