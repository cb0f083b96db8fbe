//! The conformance case model: a structured, always-terminating subset of
//! ezpim programs over one or more MPUs. A case's tree ([`Case`])
//! converts into the ezpim syntax tree ([`MpuCase::to_ezpim`]), and ezpim
//! does the rest: its replay gives the Table II binaries
//! ([`Case::programs`]) and its printer the source text
//! ([`Case::to_text`]) that parses back to the same binaries.
//!
//! # Termination by construction
//!
//! Dynamic loops are the only source of unbounded execution, so the model
//! does not carry free-form `while` conditions. Instead [`Stmt::While`] and
//! [`Stmt::For`] own their complete trip-count machinery: the bound is a
//! data register masked down to at most 3 (`ctr = src & 3`), the decrement
//! (or the builder's increment) is part of the node, and the loop-control
//! registers are excluded from the write set of the loop body by the
//! generator. A shrinker can delete body statements or flatten a loop to
//! its body, but it can never delete just the decrement and hang the test.

use ezpim::{Cond, EzError, EzProgram, Memcpy};
use mpu_isa::{BinaryOp, InitValue, Instruction, Program, RegId, UnaryOp};
use std::fmt::Write as _;

/// A body statement of a compute ensemble.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A bare compute/mask instruction (also used for the raw
    /// `CMP*; SETMASK r63; ...; UNMASK` predication pattern).
    Op(Instruction),
    /// `if (cond) { then }`.
    If {
        /// Branch condition.
        cond: Cond,
        /// Predicated body.
        then: Vec<Stmt>,
    },
    /// `if (cond) { then } else { otherwise }`.
    IfElse {
        /// Branch condition.
        cond: Cond,
        /// Taken body.
        then: Vec<Stmt>,
        /// Not-taken body.
        otherwise: Vec<Stmt>,
    },
    /// Bounded dynamic loop: `ctr = src & 3; while (ctr > 0) { body; ctr -= 1 }`.
    ///
    /// The prep sequence and the trailing decrement are emitted by the
    /// lowering as part of this node (see [`while_prep`]); `ctr`, `one`
    /// and `zero` must not be written by `body`.
    While {
        /// Register whose value (masked to 2 bits) seeds the trip count.
        src: RegId,
        /// Loop counter register.
        ctr: RegId,
        /// Register holding the constant 1.
        one: RegId,
        /// Register holding the constant 0 (transiently the mask 3).
        zero: RegId,
        /// Loop body (decrement excluded).
        body: Vec<Stmt>,
    },
    /// Bounded counted loop: `lim = src & 3; for (ctr = 0; ctr < lim) { body }`.
    For {
        /// Register whose value (masked to 2 bits) seeds the limit.
        src: RegId,
        /// Counter register (initialized by the builder's `for_loop`).
        ctr: RegId,
        /// Register holding the constant 1.
        one: RegId,
        /// Limit register.
        lim: RegId,
        /// Loop body (increment excluded).
        body: Vec<Stmt>,
    },
}

/// One top-level construct of an MPU's program.
#[derive(Debug, Clone, PartialEq)]
pub enum Top {
    /// A compute ensemble over `(rfh, vrf)` members.
    Ensemble {
        /// Wave members.
        members: Vec<(u16, u16)>,
        /// Ensemble body.
        body: Vec<Stmt>,
    },
    /// A local transfer ensemble.
    Move {
        /// `(src_rfh, dst_rfh)` pairs.
        pairs: Vec<(u16, u16)>,
        /// The copies applied to every pair.
        copies: Vec<Memcpy>,
    },
    /// An inter-MPU `SEND` block with a single move block.
    Send {
        /// Destination MPU id.
        dst: u16,
        /// `(local_src_rfh, remote_dst_rfh)` pairs.
        pairs: Vec<(u16, u16)>,
        /// The copies applied to every pair.
        copies: Vec<Memcpy>,
    },
    /// `RECV` from the named MPU.
    Recv {
        /// Source MPU id.
        src: u16,
    },
    /// `MPU_SYNC`.
    Sync,
}

/// An initial register value loaded over the host/DMA path before the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Target RFH.
    pub rfh: u16,
    /// Target VRF.
    pub vrf: u16,
    /// Target register.
    pub reg: u8,
    /// Lane values (64 lanes — the common prefix of every geometry).
    pub values: Vec<u64>,
}

/// One MPU's program and inputs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MpuCase {
    /// Top-level constructs, in program order.
    pub tops: Vec<Top>,
    /// Initial register contents.
    pub inputs: Vec<Input>,
}

/// A complete differential test case: coupled programs for `mpus.len()`
/// MPUs plus their initial data.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Per-MPU programs and inputs; the index is the MPU id.
    pub mpus: Vec<MpuCase>,
}

/// The fixed prep sequence of a [`Stmt::While`] node:
/// `one = 1; zero = 2; zero |= one (== 3); ctr = src & zero; zero = 0`.
pub fn while_prep(src: RegId, ctr: RegId, one: RegId, zero: RegId) -> [Instruction; 5] {
    [
        Instruction::Init { value: InitValue::One, rd: one },
        Instruction::Unary { op: UnaryOp::LShift, rs: one, rd: zero },
        Instruction::Binary { op: BinaryOp::Or, rs: zero, rt: one, rd: zero },
        Instruction::Binary { op: BinaryOp::And, rs: src, rt: zero, rd: ctr },
        Instruction::Init { value: InitValue::Zero, rd: zero },
    ]
}

/// The fixed trailing decrement of a [`Stmt::While`] body.
pub fn while_dec(ctr: RegId, one: RegId) -> Instruction {
    Instruction::Binary { op: BinaryOp::Sub, rs: ctr, rt: one, rd: ctr }
}

/// The fixed prep sequence of a [`Stmt::For`] node:
/// `one = 1; lim = 2; lim |= one (== 3); lim = src & lim`.
pub fn for_prep(src: RegId, one: RegId, lim: RegId) -> [Instruction; 4] {
    [
        Instruction::Init { value: InitValue::One, rd: one },
        Instruction::Unary { op: UnaryOp::LShift, rs: one, rd: lim },
        Instruction::Binary { op: BinaryOp::Or, rs: lim, rt: one, rd: lim },
        Instruction::Binary { op: BinaryOp::And, rs: src, rt: lim, rd: lim },
    ]
}

/// The ezpim statements of a case body: each loop node expands into its
/// prep sequence and an ezpim loop, a `while` body ending in its
/// decrement.
fn ezpim_stmts(stmts: &[Stmt]) -> Vec<ezpim::Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for stmt in stmts {
        match stmt {
            Stmt::Op(i) => out.push(ezpim::Stmt::Op(*i)),
            Stmt::If { cond, then } => out.push(ezpim::Stmt::If(*cond, ezpim_stmts(then), None)),
            Stmt::IfElse { cond, then, otherwise } => {
                let otherwise = Some(ezpim_stmts(otherwise));
                out.push(ezpim::Stmt::If(*cond, ezpim_stmts(then), otherwise));
            }
            Stmt::While { src, ctr, one, zero, body } => {
                out.extend(while_prep(*src, *ctr, *one, *zero).map(ezpim::Stmt::Op));
                let mut body = ezpim_stmts(body);
                body.push(ezpim::Stmt::Op(while_dec(*ctr, *one)));
                out.push(ezpim::Stmt::While(Cond::Gt(*ctr, *zero), body));
            }
            Stmt::For { src, ctr, one, lim, body } => {
                out.extend(for_prep(*src, *one, *lim).map(ezpim::Stmt::Op));
                out.push(ezpim::Stmt::For(*ctr, *lim, ezpim_stmts(body)));
            }
        }
    }
    out
}

impl MpuCase {
    /// This MPU's program as ezpim top-level constructs, the one form
    /// both [`lower`] and [`print_mpu`] read.
    pub fn to_ezpim(&self) -> Vec<ezpim::Top> {
        self.tops
            .iter()
            .map(|top| match top {
                Top::Ensemble { members, body } => {
                    ezpim::Top::Ensemble(members.clone(), ezpim_stmts(body))
                }
                Top::Move { pairs, copies } => ezpim::Top::Move(pairs.clone(), copies.clone()),
                Top::Send { dst, pairs, copies } => {
                    ezpim::Top::Send(*dst, vec![(pairs.clone(), copies.clone())])
                }
                Top::Recv { src } => ezpim::Top::Recv(*src),
                Top::Sync => ezpim::Top::Sync,
            })
            .collect()
    }
}

/// Lowers one MPU's case to a validated Table II binary via the ezpim
/// builder (identical to what parsing [`print_mpu`]'s output produces).
///
/// # Errors
///
/// Propagates builder errors (mask-pool exhaustion, aliasing) — the
/// generator never produces them, but shrunk or hand-written cases might.
pub fn lower(mpu: &MpuCase) -> Result<Program, EzError> {
    let mut ez = EzProgram::new();
    for top in &mpu.to_ezpim() {
        ez.push(top)?;
    }
    ez.assemble()
}

/// Renders one MPU's case as ezpim source text. Parsing this text and
/// assembling yields exactly the [`lower`]ed binary (the round-trip
/// property the conformance suite checks).
pub fn print_mpu(mpu: &MpuCase) -> String {
    mpu.to_ezpim().iter().map(ToString::to_string).collect()
}

fn stmt_nodes(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Op(_) => 1,
            Stmt::If { then, .. } => 1 + stmt_nodes(then),
            Stmt::IfElse { then, otherwise, .. } => 1 + stmt_nodes(then) + stmt_nodes(otherwise),
            Stmt::While { body, .. } | Stmt::For { body, .. } => 1 + stmt_nodes(body),
        })
        .sum()
}

impl Case {
    /// Lowers every MPU's program (index = MPU id).
    ///
    /// # Errors
    ///
    /// Propagates the first per-MPU lowering error.
    pub fn programs(&self) -> Result<Vec<Program>, EzError> {
        self.mpus.iter().map(lower).collect()
    }

    /// Total lowered instruction count, or `None` if lowering fails. This
    /// is the size metric the shrinker minimizes (and the "reproducer of
    /// ≤ N instructions" measure).
    pub fn lowered_len(&self) -> Option<usize> {
        self.programs().ok().map(|ps| ps.iter().map(Program::len).sum())
    }

    /// Structural node count (tops + statements), the shrinker tiebreaker.
    pub fn node_count(&self) -> usize {
        self.mpus
            .iter()
            .map(|m| {
                m.tops
                    .iter()
                    .map(|t| match t {
                        Top::Ensemble { body, .. } => 1 + stmt_nodes(body),
                        Top::Move { copies, .. } | Top::Send { copies, .. } => 1 + copies.len(),
                        Top::Recv { .. } | Top::Sync => 1,
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    /// Weight of the input data (entries plus nonzero lanes), the final
    /// shrinker tiebreaker.
    pub fn input_weight(&self) -> usize {
        self.mpus
            .iter()
            .flat_map(|m| &m.inputs)
            .map(|i| 1 + i.values.iter().filter(|v| **v != 0).count())
            .sum()
    }

    /// Renders the whole case (all MPUs and inputs) as annotated ezpim
    /// text — the reproducer format printed for shrunk mismatches.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (id, mpu) in self.mpus.iter().enumerate() {
            let _ = writeln!(out, "# ---- mpu {id} ----");
            for input in &mpu.inputs {
                let lanes: Vec<String> = input
                    .values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0)
                    .map(|(lane, v)| format!("{lane}:{v:#x}"))
                    .collect();
                let data = if lanes.is_empty() { "all-zero".to_string() } else { lanes.join(" ") };
                let _ =
                    writeln!(out, "# input h{}.v{}.r{} = {data}", input.rfh, input.vrf, input.reg);
            }
            out.push_str(&print_mpu(mpu));
        }
        out
    }
}

/// Formats a shrunk mismatch as a self-contained reproducer report.
pub fn reproducer_text(case: &Case, mismatch: &str) -> String {
    let size = case.lowered_len().map_or_else(|| "?".into(), |n| n.to_string());
    format!(
        "# conformance reproducer ({size} lowered instructions)\n# mismatch: {mismatch}\n{}",
        case.to_text()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::CompareOp;

    fn r(i: u16) -> RegId {
        RegId(i)
    }

    fn sample_case() -> Case {
        Case {
            mpus: vec![MpuCase {
                tops: vec![
                    Top::Ensemble {
                        members: vec![(0, 0), (1, 1)],
                        body: vec![
                            Stmt::Op(Instruction::Binary {
                                op: BinaryOp::Add,
                                rs: r(0),
                                rt: r(1),
                                rd: r(2),
                            }),
                            Stmt::While {
                                src: r(3),
                                ctr: r(7),
                                one: r(8),
                                zero: r(9),
                                body: vec![Stmt::If {
                                    cond: Cond::Gt(r(0), r(1)),
                                    then: vec![Stmt::Op(Instruction::Unary {
                                        op: UnaryOp::Inc,
                                        rs: r(2),
                                        rd: r(2),
                                    })],
                                }],
                            },
                            Stmt::Op(Instruction::Compare {
                                op: CompareOp::Eq,
                                rs: r(0),
                                rt: r(1),
                            }),
                        ],
                    },
                    Top::Move {
                        pairs: vec![(0, 1)],
                        copies: vec![Memcpy { src_vrf: 0, rs: r(2), dst_vrf: 1, rd: r(3) }],
                    },
                    Top::Sync,
                ],
                inputs: vec![Input { rfh: 0, vrf: 0, reg: 0, values: vec![5; 64] }],
            }],
        }
    }

    #[test]
    fn lowering_matches_parsed_print() {
        let case = sample_case();
        let direct = lower(&case.mpus[0]).expect("lower");
        let text = print_mpu(&case.mpus[0]);
        let reparsed = ezpim::parse(&text).expect("parse").assemble().expect("assemble");
        assert_eq!(direct, reparsed, "text:\n{text}");
    }

    #[test]
    fn size_metrics_are_consistent() {
        let case = sample_case();
        assert_eq!(case.lowered_len().unwrap(), lower(&case.mpus[0]).unwrap().len());
        assert!(case.node_count() >= 6);
        assert_eq!(case.input_weight(), 1 + 64);
    }

    #[test]
    fn reproducer_mentions_inputs_and_mismatch() {
        let text = reproducer_text(&sample_case(), "lane 3 differs");
        assert!(text.contains("# mismatch: lane 3 differs"));
        assert!(text.contains("# input h0.v0.r0"));
        assert!(text.contains("ensemble h0.v0 h1.v1 {"));
    }
}
