//! Structural validation of MPU programs.
//!
//! The MPU ISA organizes instructions into blocks: compute ensembles
//! (`COMPUTE`+ header, body, `COMPUTE_DONE` footer), move blocks (`MOVE`+
//! header, `MEMCPY` body, `MOVE_DONE` footer) and send blocks (`SEND`,
//! move blocks, `SEND_DONE`). The validator checks block nesting, header
//! contiguity, jump-target bounds, and operand encodability — exactly the
//! properties the control path's fetcher relies on when distributing
//! ensemble subsequences to controllers.

use crate::ids::LineNum;
use crate::instr::Instruction;
use crate::program::Program;
use crate::table::ISA;
use std::fmt;

/// Where the validator currently is within the block structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Context {
    /// Outside any block (subroutine bodies may live here).
    TopLevel,
    /// Inside a compute ensemble's `COMPUTE` header run.
    ComputeHeader,
    /// Inside a compute ensemble's body.
    ComputeBody,
    /// Inside a move block's `MOVE` header run.
    MoveHeader,
    /// Inside a move block's body (only `MEMCPY` allowed).
    MoveBody,
    /// Inside a `SEND` block (only move blocks allowed).
    SendBlock,
}

impl Context {
    fn name(self) -> &'static str {
        match self {
            Context::TopLevel => "top level",
            Context::ComputeHeader | Context::ComputeBody => "compute ensemble",
            Context::MoveHeader | Context::MoveBody => "move block",
            Context::SendBlock => "send block",
        }
    }
}

/// The specific structural rule an instruction violated.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateErrorKind {
    /// Instruction not allowed in the enclosing block kind (e.g. `MEMCPY`
    /// outside a move block, nested `COMPUTE` ensembles).
    MisplacedInstruction {
        /// The offending mnemonic.
        mnemonic: &'static str,
        /// The context in which it appeared.
        context: &'static str,
    },
    /// A block header instruction appeared after its block's body started.
    HeaderNotContiguous {
        /// The offending mnemonic (`COMPUTE` or `MOVE`).
        mnemonic: &'static str,
    },
    /// Program ended with an unterminated block.
    UnterminatedBlock {
        /// The block kind left open.
        context: &'static str,
    },
    /// A jump target points past the end of the program.
    JumpOutOfBounds {
        /// The offending target.
        target: LineNum,
        /// Program length.
        len: usize,
    },
    /// An operand exceeds its encodable bitfield.
    OperandOutOfRange {
        /// The offending mnemonic.
        mnemonic: &'static str,
    },
}

impl fmt::Display for ValidateErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateErrorKind::MisplacedInstruction { mnemonic, context } => {
                write!(f, "{mnemonic} is not allowed in {context}")
            }
            ValidateErrorKind::HeaderNotContiguous { mnemonic } => {
                write!(f, "{mnemonic} header instruction appears after the block body started")
            }
            ValidateErrorKind::UnterminatedBlock { context } => {
                write!(f, "program ends inside an unterminated {context}")
            }
            ValidateErrorKind::JumpOutOfBounds { target, len } => {
                write!(f, "jump target {target} is out of bounds for a {len}-instruction program")
            }
            ValidateErrorKind::OperandOutOfRange { mnemonic } => {
                write!(f, "{mnemonic} has an operand outside its encodable range")
            }
        }
    }
}

/// A structural violation, located at an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Instruction index of the violation (program length for
    /// end-of-program errors).
    pub line: usize,
    /// What went wrong.
    pub kind: ValidateErrorKind,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for ValidateError {}

fn operands_encodable(instr: &Instruction) -> bool {
    let (row, values) = instr.row_and_operands();
    ISA[row].fields.iter().zip(values).all(|(&(kind, _), value)| value <= kind.max())
}

/// Validates a program's block structure. See module docs for the rules.
pub(crate) fn validate(program: &Program) -> Result<(), ValidateError> {
    let len = program.len();
    let err = |line: usize, kind: ValidateErrorKind| Err(ValidateError { line, kind });
    let misplaced = |line: usize, instr: &Instruction, ctx: Context| {
        err(
            line,
            ValidateErrorKind::MisplacedInstruction {
                mnemonic: instr.mnemonic(),
                context: ctx.name(),
            },
        )
    };

    // `stack` tracks enclosing blocks; only [Send, Move*] nests, so depth<=2.
    let mut stack: Vec<Context> = Vec::new();

    for (line, instr) in program.iter().enumerate() {
        if !operands_encodable(instr) {
            return err(line, ValidateErrorKind::OperandOutOfRange { mnemonic: instr.mnemonic() });
        }
        if let Instruction::JumpCond { target } | Instruction::Jump { target } = instr {
            if target.index() >= len {
                return err(line, ValidateErrorKind::JumpOutOfBounds { target: *target, len });
            }
        }

        let ctx = stack.last().copied().unwrap_or(Context::TopLevel);
        match instr {
            Instruction::Compute { .. } => match ctx {
                Context::TopLevel => stack.push(Context::ComputeHeader),
                Context::ComputeHeader => {}
                Context::ComputeBody => {
                    let mnemonic = instr.mnemonic();
                    return err(line, ValidateErrorKind::HeaderNotContiguous { mnemonic });
                }
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::ComputeDone => match ctx {
                Context::ComputeHeader | Context::ComputeBody => {
                    stack.pop();
                }
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::Move { .. } => match ctx {
                Context::TopLevel | Context::SendBlock => stack.push(Context::MoveHeader),
                Context::MoveHeader => {}
                Context::MoveBody => {
                    let mnemonic = instr.mnemonic();
                    return err(line, ValidateErrorKind::HeaderNotContiguous { mnemonic });
                }
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::MoveDone => match ctx {
                Context::MoveHeader | Context::MoveBody => {
                    stack.pop();
                }
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::Memcpy { .. } => match ctx {
                Context::MoveHeader => *stack.last_mut().expect("nonempty") = Context::MoveBody,
                Context::MoveBody => {}
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::Send { .. } => match ctx {
                Context::TopLevel => stack.push(Context::SendBlock),
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::SendDone => match ctx {
                Context::SendBlock => {
                    stack.pop();
                }
                _ => return misplaced(line, instr, ctx),
            },
            Instruction::Recv { .. } | Instruction::MpuSync => match ctx {
                Context::TopLevel => {}
                _ => return misplaced(line, instr, ctx),
            },
            // Compute-body instructions: allowed inside compute ensembles
            // and at top level (subroutine bodies reached via JUMP).
            body if body.is_compute_body() => match ctx {
                Context::ComputeHeader => {
                    *stack.last_mut().expect("nonempty") = Context::ComputeBody
                }
                Context::ComputeBody | Context::TopLevel => {}
                _ => return misplaced(line, instr, ctx),
            },
            other => return misplaced(line, other, ctx),
        }
    }

    if let Some(ctx) = stack.last() {
        return err(len, ValidateErrorKind::UnterminatedBlock { context: ctx.name() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryOp, CompareOp, MpuId, RegId, RfhId, VrfId};

    fn add() -> Instruction {
        Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) }
    }

    fn compute(rfh: u16, vrf: u16) -> Instruction {
        Instruction::Compute { rfh: RfhId(rfh), vrf: VrfId(vrf) }
    }

    fn memcpy() -> Instruction {
        Instruction::Memcpy { src_vrf: VrfId(0), rs: RegId(0), dst_vrf: VrfId(0), rd: RegId(0) }
    }

    #[test]
    fn figure6_style_program_validates() {
        // Mirrors the paper's Fig. 6: two compute ensembles, a transfer
        // ensemble, and an inter-MPU send block.
        let p = Program::from_instructions(vec![
            compute(1, 1),
            compute(3, 1),
            compute(3, 2),
            add(),
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(2), rt: RegId(3), rd: RegId(4) },
            Instruction::ComputeDone,
            compute(2, 1),
            Instruction::Binary { op: BinaryOp::Mul, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::Binary { op: BinaryOp::Mac, rs: RegId(0), rt: RegId(3), rd: RegId(4) },
            Instruction::ComputeDone,
            Instruction::Move { src: RfhId(1), dst: RfhId(2) },
            Instruction::Move { src: RfhId(2), dst: RfhId(3) },
            memcpy(),
            memcpy(),
            Instruction::MoveDone,
            Instruction::Send { dst: MpuId(4) },
            Instruction::Move { src: RfhId(1), dst: RfhId(4) },
            memcpy(),
            memcpy(),
            Instruction::MoveDone,
            Instruction::SendDone,
        ]);
        p.validate().unwrap();
    }

    #[test]
    fn memcpy_outside_move_block_rejected() {
        let p = Program::from_instructions(vec![memcpy()]);
        let e = p.validate().unwrap_err();
        assert_eq!(e.line, 0);
        assert!(matches!(
            e.kind,
            ValidateErrorKind::MisplacedInstruction { mnemonic: "MEMCPY", .. }
        ));
    }

    #[test]
    fn nested_compute_ensembles_rejected() {
        let p = Program::from_instructions(vec![
            compute(0, 0),
            add(),
            compute(0, 1), // header after body started
            Instruction::ComputeDone,
            Instruction::ComputeDone,
        ]);
        let e = p.validate().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ValidateErrorKind::HeaderNotContiguous { mnemonic: "COMPUTE" }));
    }

    #[test]
    fn unterminated_ensemble_rejected() {
        let p = Program::from_instructions(vec![compute(0, 0), add()]);
        let e = p.validate().unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ValidateErrorKind::UnterminatedBlock { .. }));
    }

    #[test]
    fn jump_out_of_bounds_rejected() {
        let p = Program::from_instructions(vec![Instruction::Jump { target: LineNum(5) }]);
        let e = p.validate().unwrap_err();
        assert!(matches!(e.kind, ValidateErrorKind::JumpOutOfBounds { .. }));
    }

    #[test]
    fn arithmetic_inside_move_block_rejected() {
        let p = Program::from_instructions(vec![
            Instruction::Move { src: RfhId(0), dst: RfhId(1) },
            add(),
            Instruction::MoveDone,
        ]);
        let e = p.validate().unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn compute_inside_send_block_rejected() {
        let p = Program::from_instructions(vec![
            Instruction::Send { dst: MpuId(1) },
            compute(0, 0),
            Instruction::ComputeDone,
            Instruction::SendDone,
        ]);
        let e = p.validate().unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn operand_out_of_range_rejected() {
        let p = Program::from_instructions(vec![Instruction::SetMask { rs: RegId(200) }]);
        let e = p.validate().unwrap_err();
        assert!(matches!(e.kind, ValidateErrorKind::OperandOutOfRange { mnemonic: "SETMASK" }));
    }

    #[test]
    fn top_level_subroutine_body_allowed() {
        // Subroutines live outside ensembles and are reached via JUMP.
        let p = Program::from_instructions(vec![
            compute(0, 0),
            Instruction::Jump { target: LineNum(3) },
            Instruction::ComputeDone,
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(0), rt: RegId(1) },
            Instruction::Return,
        ]);
        p.validate().unwrap();
    }

    #[test]
    fn move_done_at_top_level_rejected() {
        let p = Program::from_instructions(vec![Instruction::MoveDone]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn error_display_mentions_line() {
        let p = Program::from_instructions(vec![memcpy()]);
        let e = p.validate().unwrap_err();
        assert!(e.to_string().starts_with("line 0:"));
    }
}
