//! The block tier: an ensemble body decoded once into a block graph of
//! steps and explicit control edges.
//!
//! [`decode_body`] hoists the per-instruction classification out of the
//! simulator's body loop. Every body decodes; nothing falls back:
//!
//! * compute instructions (the ISA table's [`InstrClass::Compute`]
//!   rows) become compute steps; the simulator resolves
//!   each one's compiled recipe through its per-step template-table probe,
//!   and executes a run of consecutive compute steps in one pass over the
//!   whole thermal wave ([`run_batch`]), decoding each micro-op once per
//!   wave;
//! * `SETMASK`, `UNMASK`, `NOP` and `GETMASK` (a mask-to-register copy)
//!   are plain steps;
//! * `JUMP_COND` (EFI), `JUMP` (a call) and `RETURN` are explicit edges
//!   whose targets are step indices;
//! * a line the simulator must reject when it reaches it (an instruction
//!   that cannot appear in a body, a fetch past the end of the program) is
//!   a [`Trap`] step.
//!
//! The decoder takes the body as a [`BodyLayout`]: the lines reachable
//! from the body's first line, in line order, with control targets rebased
//! to indices, and the index of that first line. The layout is
//! position-independent, so byte-identical bodies at different program
//! lines decode once. The graph is a pure function of the laid-out body
//! and its entry, and holds no recipes, so it serves every datapath.

use crate::bitplane::PlaneBank;
use crate::compiled::{self, CompiledRecipe};
use mpu_isa::{InstrClass, Instruction, LineNum, RegId};
use std::sync::Arc;

/// One step of a decoded ensemble body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockStep {
    /// A compute instruction.
    Compute(Instruction),
    /// `SETMASK rs`: load the lane mask from `rs` (`COND_REG` selects the
    /// condition plane).
    SetMask(RegId),
    /// `GETMASK rd`: copy the lane mask into `rd`.
    GetMask(RegId),
    /// `UNMASK`: re-enable every lane.
    Unmask,
    /// `NOP`: a control bubble.
    Nop,
    /// `JUMP_COND`: continue at this step while any lane of the wave is
    /// enabled (EFI), else fall through.
    JumpCond(u32),
    /// `JUMP`: a call. Push the fall-through step, continue at this one.
    Call(u32),
    /// `RETURN`: continue at the step the innermost call pushed.
    Return,
    /// `COMPUTE_DONE`: the body ends here.
    Exit,
    /// A line the executor rejects when it reaches it.
    Trap(Trap),
}

/// Why a [`BlockStep::Trap`] rejects execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// An instruction (mnemonic) that cannot appear in a compute body.
    Stray(&'static str),
    /// A fetch past the end of the program.
    End,
}

/// An ensemble body laid out for [`decode_body`]: the lines reachable
/// from its first line, in ascending line order, with `JUMP_COND`/`JUMP`
/// targets rebased to indices into `body`.
///
/// Every line that falls through has its successor in the layout, except
/// the last program line, whose successor is past the end. So the
/// successor of `body[i]` is `body[i + 1]`, and falling off the end of
/// `body` is a fetch past the end of the program. A backward target can
/// place lines before the body's first line, so execution starts at
/// `entry`, not at index 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyLayout {
    /// The reachable instructions, targets rebased.
    pub body: Vec<Instruction>,
    /// The program line of each step of the decoded graph: one per
    /// `body` instruction, plus the line one past the last, where a fetch
    /// past the end of the program traps.
    pub lines: Vec<usize>,
    /// The index of the body's first line (where execution starts).
    pub entry: usize,
}

impl BodyLayout {
    /// Walks the body starting at `program[start]`, following fall-through,
    /// `JUMP_COND` targets, call targets and return sites. The walk is
    /// iterative with a visited set, so program text cannot control its
    /// depth; it stops at `COMPUTE_DONE`, `RETURN`, the program end and
    /// any instruction a compute body cannot hold.
    pub fn walk(program: &[Instruction], start: usize) -> Self {
        let mut seen = vec![0u64; program.len().div_ceil(64)];
        let mut lines = Vec::new();
        let mut entries = vec![start];
        while let Some(mut pc) = entries.pop() {
            while pc < program.len() && seen[pc / 64] & (1 << (pc % 64)) == 0 {
                seen[pc / 64] |= 1 << (pc % 64);
                lines.push(pc);
                match program[pc] {
                    Instruction::JumpCond { target } | Instruction::Jump { target } => {
                        entries.push(target.index());
                    }
                    Instruction::Return | Instruction::ComputeDone => break,
                    ref instr if !instr.is_compute_body() => break,
                    _ => {}
                }
                pc += 1;
            }
        }
        lines.sort_unstable();
        // A line outside the program indexes the trailing end trap.
        let index = |line: usize| lines.binary_search(&line).unwrap_or(lines.len());
        let body = lines
            .iter()
            .map(|&line| match program[line] {
                Instruction::JumpCond { target } => {
                    Instruction::JumpCond { target: LineNum(index(target.index()) as u32) }
                }
                Instruction::Jump { target } => {
                    Instruction::Jump { target: LineNum(index(target.index()) as u32) }
                }
                instr => instr,
            })
            .collect();
        let entry = index(start);
        let end = lines.last().map_or(start, |&line| line + 1);
        lines.push(end);
        Self { body, lines, entry }
    }
}

/// An ensemble body decoded into steps. Built by [`decode_body`]; walked
/// by the simulator from [`BlockGraph::entry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGraph {
    steps: Vec<BlockStep>,
    entry: usize,
}

impl BlockGraph {
    /// The decoded steps: one per laid-out body line, then a
    /// [`Trap::End`] step for a fetch past the end of the program.
    pub fn steps(&self) -> &[BlockStep] {
        &self.steps
    }

    /// The step execution starts at ([`BodyLayout::entry`]).
    pub fn entry(&self) -> usize {
        self.entry
    }
}

/// Decodes a laid-out ensemble body ([`BodyLayout::body`]) entered at
/// step `entry` into a [`BlockGraph`].
pub fn decode_body(body: &[Instruction], entry: usize) -> BlockGraph {
    let end = body.len() as u32;
    let step_of = |target: LineNum| target.0.min(end);
    let mut steps: Vec<BlockStep> = body
        .iter()
        .map(|instr| match *instr {
            _ if instr.row().class == InstrClass::Compute => BlockStep::Compute(*instr),
            Instruction::SetMask { rs } => BlockStep::SetMask(rs),
            Instruction::Unmask => BlockStep::Unmask,
            Instruction::GetMask { rd } => BlockStep::GetMask(rd),
            Instruction::Nop => BlockStep::Nop,
            Instruction::JumpCond { target } => BlockStep::JumpCond(step_of(target)),
            Instruction::Jump { target } => BlockStep::Call(step_of(target)),
            Instruction::Return => BlockStep::Return,
            Instruction::ComputeDone => BlockStep::Exit,
            ref stray => BlockStep::Trap(Trap::Stray(stray.mnemonic())),
        })
        .collect();
    steps.push(BlockStep::Trap(Trap::End));
    BlockGraph { steps, entry: entry.min(body.len()) }
}

/// A thermal-wave member: a VRF as `(bank, member)`, member `member` of
/// the plane bank `banks[bank]` that [`run_batch`] is given.
pub type WaveMember = (usize, usize);

/// Executes a run of consecutive compute steps' compiled recipes over the
/// thermal wave whose members are `members` of `banks`, with plane writes
/// byte-identical to running the recipes one at a time, each on every
/// member in turn, with [`crate::BitPlaneVrf::run_compiled`]. A single VRF is the
/// wave `&[(0, 0)]` of a one-member bank.
///
/// When no member repeats and every member is fault-free with
/// mask-honouring enabled, each maximal stretch of
/// [`CompiledRecipe::fast`] recipes runs op-major on the bookkeeping-free
/// word loop: every micro-op is decoded once and applied to the whole wave
/// before the next. Members are independent, so that leaves each one as
/// running its recipes alone. How one op covers the wave follows from
/// where the members' planes sit:
///
/// * members that are adjacent members of one bank — a whole RACER wave,
///   or a lone VRF — run as one wide VRF: one kernel call per op over
///   their side-by-side plane words;
/// * members each alone in their bank (the wide substrates) run one
///   kernel call per op and member;
/// * any other set of members of one bank runs member by member.
///
/// The recipes' mask merges are skipped when every member's mask is full
/// (a merge under a full mask is the plain write), and kept on every
/// member otherwise. Any other recipe — and every recipe of a wave that
/// names a VRF twice, whose two copies are not independent, or has a
/// member with a fault model or a suspended mask — runs recipe by recipe
/// and, within each, member by member with
/// [`crate::BitPlaneVrf::run_compiled`].
///
/// # Panics
///
/// Panics if a member is out of range for `banks`, or if a recipe was
/// compiled for a different VRF geometry or bank width.
pub fn run_batch(banks: &mut [PlaneBank], members: &[WaveMember], recipes: &[Arc<CompiledRecipe>]) {
    // A wave is usually listed in ascending order already; any other
    // order is sorted into a copy.
    let mut ascending = std::borrow::Cow::Borrowed(members);
    if !members.is_sorted() {
        ascending.to_mut().sort_unstable();
    }
    let plain = |&(b, m): &WaveMember| {
        let v = banks[b].member_ref(m);
        v.fault_model().is_none() && v.mask_enabled()
    };
    let op_major = ascending.is_sorted_by(|a, b| a < b) && ascending.iter().all(plain);
    let mut rest = recipes;
    while let Some(recipe) = rest.first() {
        if op_major && recipe.fast() {
            let fast = rest.iter().take_while(|r| r.fast()).count();
            run_fast(banks, &ascending, &rest[..fast]);
            rest = &rest[fast..];
        } else {
            for &(b, m) in members {
                banks[b].member(m).run_compiled(recipe);
            }
            rest = &rest[1..];
        }
    }
}

/// Runs fast recipes over the distinct, strictly ascending, plain members
/// `wave` (see [`run_batch`]).
fn run_fast(banks: &mut [PlaneBank], wave: &[WaveMember], recipes: &[Arc<CompiledRecipe>]) {
    let Some(&(b0, m0)) = wave.first() else { return };
    let bank = &banks[b0];
    let (lanes, words) = (bank.lanes(), bank.words());
    let layout = (lanes, bank.regs(), bank.members());
    let mut merge = false;
    for &(b, m) in wave {
        let bank = &banks[b];
        assert_eq!((bank.lanes(), bank.regs(), bank.members()), layout, "wave banks differ");
        merge |= bank.member_ref(m).mask_lanes() != lanes;
    }
    for recipe in recipes {
        debug_assert!(recipe.fast(), "the fast path runs fast recipes only");
        assert_eq!(
            (recipe.lanes(), recipe.regs(), recipe.bank()),
            layout,
            "compiled recipe targets a different VRF geometry"
        );
    }
    let mask = bank.member_ref(m0).mask_base();
    let (last_bank, last) = wave[wave.len() - 1];
    if last_bank == b0 && last - m0 + 1 == wave.len() {
        // Adjacent members of one bank: their plane words are adjacent.
        let st = &mut banks[b0].storage_mut()[m0 * words..];
        compiled::run_ops_fast(st, &mut [], wave.len() * words, mask, merge, recipes);
    } else if wave.windows(2).all(|pair| pair[0].0 != pair[1].0) {
        let mut storages = borrow_members(banks, wave);
        let first = storages.next().expect("a non-empty wave");
        let mut rest: Vec<&mut [u64]> = storages.collect();
        compiled::run_ops_fast(first, &mut rest, words, mask, merge, recipes);
    } else {
        for &(b, m) in wave {
            let st = &mut banks[b].storage_mut()[m * words..];
            compiled::run_ops_fast(st, &mut [], words, mask, merge, recipes);
        }
    }
}

/// The storage of member `m` of `banks[b]`, from its first word, for every
/// `(b, m)` of `members`, whose banks are strictly ascending.
fn borrow_members<'a>(
    mut banks: &'a mut [PlaneBank],
    members: &'a [WaveMember],
) -> impl Iterator<Item = &'a mut [u64]> {
    let mut next = 0;
    members.iter().map(move |&(b, m)| {
        let (bank, rest) = std::mem::take(&mut banks)[b - next..]
            .split_first_mut()
            .expect("wave member out of range for the VRF store");
        banks = rest;
        next = b + 1;
        let words = bank.words();
        &mut bank.storage_mut()[m * words..]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitPlaneVrf, DatapathKind, DatapathModel};
    use mpu_isa::{BinaryOp, CompareOp, UnaryOp, VrfId, COND_REG};

    fn compiled(datapath: &DatapathModel, instr: &Instruction) -> Arc<CompiledRecipe> {
        let g = datapath.geometry();
        let recipe = datapath.recipe(instr).expect("compute instruction");
        Arc::new(recipe.compile_for(&g))
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
            Instruction::Binary { op: BinaryOp::Xor, rs: RegId(3), rt: RegId(2), rd: RegId(5) },
            Instruction::Nop,
            Instruction::Unmask,
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(3), rt: RegId(1), rd: RegId(4) },
        ]
    }

    #[test]
    fn batches_match_interpreted_recipes() {
        for kind in DatapathKind::ALL {
            let dp = DatapathModel::for_kind(kind);
            let g = dp.geometry();
            let mut a = BitPlaneVrf::new(g.lanes_per_vrf, g.regs_per_vrf);
            let xs: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 3 + 1).collect();
            let ys: Vec<u64> = (0..g.lanes_per_vrf as u64).map(|i| i * 7 + 2).collect();
            a.write_lane_values(0, &xs);
            a.write_lane_values(1, &ys);
            // b: the last member of a bank laid out as the MPU keeps it.
            let mut bank = PlaneBank::new(g.lanes_per_vrf, g.regs_per_vrf, g.bank_vrfs());
            let m = bank.members() - 1;
            bank.member(m).restore(&a.snapshot());

            // a: apply every recipe op by op (the oracle); b: run each
            // run of consecutive compute steps as one batch, under a full
            // mask and under the partial mask SETMASK loads. The
            // control-path steps apply the same plane effects on both.
            let mut run = Vec::new();
            for instr in body().into_iter().chain([Instruction::Nop]) {
                if matches!(
                    instr,
                    Instruction::SetMask { .. } | Instruction::Unmask | Instruction::Nop
                ) {
                    run_batch(std::slice::from_mut(&mut bank), &[(0, m)], &run);
                    run.clear();
                }
                let mut b = bank.member(m);
                match instr {
                    Instruction::SetMask { .. } => {
                        a.copy_plane(crate::Plane::Cond, crate::Plane::Mask);
                        b.copy_plane(crate::Plane::Cond, crate::Plane::Mask);
                        assert!(b.mask_lanes() < g.lanes_per_vrf, "{kind:?}: a partial mask");
                    }
                    Instruction::Unmask => {
                        a.fill_plane(crate::Plane::Mask, true);
                        b.fill_plane(crate::Plane::Mask, true);
                    }
                    Instruction::Nop => {}
                    ref compute => {
                        for op in dp.recipe(compute).expect("compute instruction").ops() {
                            op.apply(&mut a);
                        }
                        run.push(compiled(&dp, compute));
                    }
                }
            }
            let b = bank.member_ref(m);
            assert_eq!(
                (a.snapshot(), a.mask_lanes()),
                (b.snapshot(), b.mask_lanes()),
                "{kind:?}: batched steps diverged from the op-by-op oracle"
            );
        }
    }

    #[test]
    fn word_recipes_forfeit_the_fast_loop() {
        assert!(!compiled(&DatapathModel::dpu(), &add(2)).fast(), "word-serial ops");
        assert!(compiled(&DatapathModel::pluto(), &add(2)).fast(), "pLUTo bit-plane ops");
    }

    #[test]
    fn control_flow_decodes_to_edges_and_traps() {
        let body = [
            add(2),
            Instruction::GetMask { rd: RegId(5) },
            Instruction::JumpCond { target: LineNum(0) },
            Instruction::Jump { target: LineNum(6) },
            Instruction::ComputeDone,
            Instruction::MpuSync,
            Instruction::Return,
            Instruction::JumpCond { target: LineNum(99) },
        ];
        let graph = decode_body(&body, 0);
        assert_eq!(graph.entry(), 0);
        assert_eq!(graph.steps()[0], BlockStep::Compute(add(2)));
        let rest: Vec<String> = graph.steps()[1..].iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(
            rest,
            [
                "GetMask(RegId(5))",
                "JumpCond(0)",
                "Call(6)",
                "Exit",
                "Trap(Stray(\"MPU_SYNC\"))",
                "Return",
                "JumpCond(8)",
                "Trap(End)",
            ]
        );
    }

    #[test]
    fn layout_rebases_targets_and_skips_unreachable_lines() {
        let compute = Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) };
        let program = [
            compute,
            add(2),                                       // 1: body start
            Instruction::JumpCond { target: LineNum(1) }, // 2
            Instruction::Jump { target: LineNum(6) },     // 3
            Instruction::ComputeDone,                     // 4
            Instruction::Return,                          // 5: halt, unreachable
            add(3),                                       // 6: subroutine
            Instruction::Return,                          // 7
        ];
        let layout = BodyLayout::walk(&program, 1);
        assert_eq!(layout.lines, vec![1, 2, 3, 4, 6, 7, 8]);
        assert_eq!(layout.entry, 0);
        assert_eq!(
            layout.body,
            vec![
                add(2),
                Instruction::JumpCond { target: LineNum(0) },
                Instruction::Jump { target: LineNum(4) },
                Instruction::ComputeDone,
                add(3),
                Instruction::Return,
            ]
        );
        // The same body one line later lays out identically.
        let mut shifted = vec![Instruction::Nop];
        shifted.extend(program.iter().map(|&instr| match instr {
            Instruction::JumpCond { target } => {
                Instruction::JumpCond { target: LineNum(target.0 + 1) }
            }
            Instruction::Jump { target } => Instruction::Jump { target: LineNum(target.0 + 1) },
            instr => instr,
        }));
        assert_eq!(
            BodyLayout::walk(&shifted, 2),
            BodyLayout { lines: vec![2, 3, 4, 5, 7, 8, 9], ..layout }
        );
    }

    #[test]
    fn a_backward_target_lays_out_lines_before_the_entry() {
        // The second ensemble's JUMP_COND re-enters the first one's body.
        let compute = Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) };
        let program = [
            compute,
            Instruction::Nop,         // 1: first body
            Instruction::ComputeDone, // 2
            compute,
            Instruction::SetMask { rs: RegId(0) }, // 4: second body
            Instruction::JumpCond { target: LineNum(1) }, // 5
            Instruction::Unmask,
            add(2),
            Instruction::ComputeDone, // 8
            Instruction::Return,
        ];
        let layout = BodyLayout::walk(&program, 4);
        assert_eq!(layout.lines, vec![1, 2, 4, 5, 6, 7, 8, 9]);
        assert_eq!(layout.entry, 2, "execution starts at line 4, not line 1");
        let graph = decode_body(&layout.body, layout.entry);
        assert_eq!(graph.entry(), 2);
        assert_eq!(graph.steps()[3], BlockStep::JumpCond(0));
        assert_ne!(graph, decode_body(&layout.body, 0), "the entry is part of the graph");
    }

    #[test]
    fn layout_walk_is_iterative_on_long_call_chains() {
        // Every line calls the next: a recursive walk would nest 200k deep.
        let n = 200_000;
        let program: Vec<Instruction> =
            (1..=n).map(|t| Instruction::Jump { target: LineNum(t as u32) }).collect();
        let layout = BodyLayout::walk(&program, 0);
        assert_eq!(layout.body.len(), n);
        assert_eq!(layout.entry, 0);
        assert_eq!(layout.lines[n], n, "the last call's return site is past the end");
    }
}
