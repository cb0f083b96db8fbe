//! # mpu-isa — The Memory Processing Unit instruction set architecture
//!
//! This crate defines the microarchitecture-agnostic MPU ISA from
//! *"The Memory Processing Unit: A Generalized Interface for End-to-End
//! In-Memory Execution"* (HPCA 2026), Table II: 32-bit instructions over
//! 64-bit vector data.
//!
//! The ISA has six instruction families:
//!
//! * **Ensemble deployment** — [`Instruction::Compute`], [`Instruction::ComputeDone`],
//!   [`Instruction::MpuSync`], [`Instruction::Move`], [`Instruction::MoveDone`]
//!   demarcate *compute ensembles* (groups of VRFs executing the same body)
//!   and *transfer ensembles* (memory-consistent data movement).
//! * **Inter-MPU communication** — [`Instruction::Send`], [`Instruction::SendDone`],
//!   [`Instruction::Recv`] implement explicit message passing between MPUs.
//! * **Control flow** — mask manipulation ([`Instruction::GetMask`],
//!   [`Instruction::SetMask`], [`Instruction::Unmask`]) and jumps
//!   ([`Instruction::JumpCond`], [`Instruction::Jump`], [`Instruction::Return`])
//!   enable data-driven loops, branches, and subroutine calls *inside* the
//!   PUM datapath, with no host-CPU round trips.
//! * **Arithmetic / comparison / Boolean** — bit-serial vector operations
//!   ([`BinaryOp`], [`UnaryOp`], [`CompareOp`]) executed by every lane of the
//!   active VRFs.
//! * **Data movement** — [`Instruction::Memcpy`] (across VRFs, inside a move
//!   block) and [`UnaryOp::Mov`] (within a VRF).
//!
//! # Example
//!
//! ```
//! use mpu_isa::{Instruction, BinaryOp, Program, RegId, RfhId, VrfId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::from_instructions(vec![
//!     Instruction::Compute { rfh: RfhId(1), vrf: VrfId(1) },
//!     Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
//!     Instruction::ComputeDone,
//! ]);
//! program.validate()?;
//! let words = program.encode();
//! let back = Program::decode(&words)?;
//! assert_eq!(program, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod ids;
mod instr;
mod program;
mod table;
mod text;
mod validate;

pub use encode::DecodeError;
pub use ids::{LineNum, MpuId, RegId, RfhId, VrfId};
pub use instr::{BinaryOp, CompareOp, InitValue, Instruction, OperandError, UnaryOp};
pub use program::Program;
pub use table::{InstrClass, OpRow};
pub use text::ParseAsmError;
pub use validate::{ValidateError, ValidateErrorKind};

/// Width, in bits, of every vector data element in the MPU (the paper's
/// "32-bit instructions, 64-bit data").
pub const DATA_BITS: u32 = 64;

/// Conventional register alias for the *conditional register*: `SETMASK
/// r63` loads the per-lane comparison result produced by `CMPEQ`/`CMPGT`/
/// `CMPLT`/`FUZZY` into the mask register, rather than bit 0 of a data
/// register. (The conditional register is control-path state, not a VRF
/// column; the alias keeps Table II's one-operand `SETMASK` encoding.)
pub const COND_REG: RegId = RegId(63);

/// Width, in bits, of an encoded MPU instruction.
pub const INSTRUCTION_BITS: u32 = 32;
