//! The MPU instruction set (paper Table II).

use crate::ids::{LineNum, MpuId, RegId, RfhId, VrfId};
use crate::table::{InstrClass, BINARY, COMPARE, ISA, UNARY};
use std::fmt;

/// Three-operand vector operations (`rd = rs OP rt`, except where noted).
///
/// All of these execute bit-serially across every enabled lane of the active
/// VRFs; the backend datapath expands each into a technology-specific
/// micro-op *recipe* (NOR sequences for ReRAM, triple-row activations for
/// DRAM, bitline ops for SRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Two's complement add (`rd = rs + rt`).
    Add,
    /// Two's complement subtract (`rd = rs - rt`).
    Sub,
    /// Multiply; the ISA restricts inputs to 8-/16-/32-bit values.
    Mul,
    /// Multiply-accumulate (`rd += rs * rt`).
    Mac,
    /// Division returning the quotient.
    QDiv,
    /// Division returning quotient in `rd` and remainder in `rt`
    /// (overwriting the register, per Table II).
    QRDiv,
    /// Division returning the remainder.
    RDiv,
    /// Bitwise AND.
    And,
    /// Bitwise NAND.
    Nand,
    /// Bitwise NOR.
    Nor,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise XNOR.
    Xnor,
    /// Multiplex: choose `rs` or `rt` per-bit based on the bitmask in `rd`.
    Mux,
    /// Returns the larger of `rs`, `rt`.
    Max,
    /// Returns the smaller of `rs`, `rt`.
    Min,
}

impl BinaryOp {
    /// All binary ops, in opcode order.
    pub const ALL: [BinaryOp; 16] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Mac,
        BinaryOp::QDiv,
        BinaryOp::QRDiv,
        BinaryOp::RDiv,
        BinaryOp::And,
        BinaryOp::Nand,
        BinaryOp::Nor,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Xnor,
        BinaryOp::Mux,
        BinaryOp::Max,
        BinaryOp::Min,
    ];

    /// The Table II mnemonic.
    pub fn mnemonic(self) -> &'static str {
        ISA[BINARY + self as usize].mnemonic
    }

    /// True for the multi-step operations whose recipe writes `rd` while
    /// it still reads `rs` and `rt`, so `rd` must alias neither: `MUL`,
    /// `MAC` and the divide family.
    pub fn rd_excludes_sources(self) -> bool {
        ISA[BINARY + self as usize].rule.rd_excludes_sources
    }

    /// True for the divide family, whose bit-serial recipe keeps its
    /// partial remainder in the two reserved temporary registers, so no
    /// operand may be one of them.
    pub fn uses_temps(self) -> bool {
        ISA[BINARY + self as usize].rule.uses_temps
    }
}

/// Why a compute instruction's register operands cannot run on a VRF
/// ([`Instruction::operand_error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandError {
    /// The VRF has no such register.
    OutOfRange(RegId),
    /// `rd` aliases a source of an operation that must not
    /// ([`BinaryOp::rd_excludes_sources`]).
    AliasedDestination(RegId),
    /// An operand of an operation that uses the reserved temporaries
    /// ([`BinaryOp::uses_temps`]) is one of them.
    ReservedTemp(RegId),
}

impl fmt::Display for OperandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandError::OutOfRange(r) => write!(f, "register r{} is not in the VRF", r.0),
            OperandError::AliasedDestination(r) => {
                write!(f, "rd r{} aliases a source of a multi-step operation", r.0)
            }
            OperandError::ReservedTemp(r) => {
                write!(f, "operand r{} is a reserved temporary register", r.0)
            }
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Two-operand vector operations (`rd = OP rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Increment by one (`rd = rs + 1`).
    Inc,
    /// Population count.
    Popc,
    /// Rectified linear unit (`rd = max(rs, 0)`, two's complement).
    Relu,
    /// Bitwise NOT.
    Inv,
    /// Reverse the order of bits.
    BFlip,
    /// Left shift by 1.
    LShift,
    /// Copy vector register contents within a VRF.
    Mov,
}

impl UnaryOp {
    /// All unary ops, in opcode order.
    pub const ALL: [UnaryOp; 7] = [
        UnaryOp::Inc,
        UnaryOp::Popc,
        UnaryOp::Relu,
        UnaryOp::Inv,
        UnaryOp::BFlip,
        UnaryOp::LShift,
        UnaryOp::Mov,
    ];

    /// The Table II mnemonic.
    pub fn mnemonic(self) -> &'static str {
        ISA[UNARY + self as usize].mnemonic
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison operations; the per-lane result lands in the *conditional
/// register* (one bit per lane), from which `SETMASK` can load the lane mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// Check equality.
    Eq,
    /// Check `rs > rt` (unsigned).
    Gt,
    /// Check `rs < rt` (unsigned).
    Lt,
}

impl CompareOp {
    /// All compare ops, in opcode order.
    pub const ALL: [CompareOp; 3] = [CompareOp::Eq, CompareOp::Gt, CompareOp::Lt];

    /// The Table II mnemonic.
    pub fn mnemonic(self) -> &'static str {
        ISA[COMPARE + self as usize].mnemonic
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The constant written by an `INIT0`/`INIT1` instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitValue {
    /// All lanes set to 0.
    Zero,
    /// All lanes set to 1.
    One,
}

impl InitValue {
    /// The 64-bit element value this initializer writes to each lane.
    pub fn value(self) -> u64 {
        match self {
            InitValue::Zero => 0,
            InitValue::One => 1,
        }
    }
}

/// One MPU instruction (paper Table II).
///
/// Each variant corresponds to one Table II row (with the register-to-
/// register families grouped by operand format). See the crate-level docs
/// for the family overview and [`crate::Program`] for container semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // --- Ensemble deployment ---
    /// Demarcate the start of a compute ensemble (or extend its header):
    /// activate VRF `vrf` of RF holder `rfh`.
    Compute {
        /// RF holder containing the VRF.
        rfh: RfhId,
        /// VRF within the holder to add to the ensemble.
        vrf: VrfId,
    },
    /// Demarcate the end of a compute ensemble.
    ComputeDone,
    /// Fence: wait for all deployed ensembles to complete before proceeding.
    MpuSync,
    /// Demarcate the start of a move (transfer-ensemble) block with a
    /// source/destination RF-holder pair. Multiple `MOVE` headers add
    /// multiple pairs; each body `MEMCPY` applies to every pair.
    Move {
        /// Source RF holder.
        src: RfhId,
        /// Destination RF holder.
        dst: RfhId,
    },
    /// Demarcate the end of a move block.
    MoveDone,

    // --- Inter-MPU communication ---
    /// Send an execution block (the following move block) to MPU `dst`.
    Send {
        /// Destination MPU.
        dst: MpuId,
    },
    /// Demarcate the end of a `SEND` block.
    SendDone,
    /// Service an ensemble arriving from MPU `src`.
    Recv {
        /// Source MPU.
        src: MpuId,
    },

    // --- Control flow ---
    /// Copy the mask register into data register `rd` (disabling lane
    /// control so all mask bits copy), enabling arbitrary mask computation.
    GetMask {
        /// Destination data register.
        rd: RegId,
    },
    /// Copy `rs` (or the conditional register, by convention register
    /// `r63`) into the mask register and start predicated execution.
    SetMask {
        /// Source register holding the new per-lane mask.
        rs: RegId,
    },
    /// Stop predicated execution: set all mask bits to 1.
    Unmask,
    /// Jump to `target` if the mask register has **any** enabled lane;
    /// fall through when all lanes are disabled (loop exit). This is the
    /// hardware dynamic-loop support evaluated by the EFI.
    JumpCond {
        /// Loop-head instruction index.
        target: LineNum,
    },
    /// Unconditional jump (subroutine call): pushes the return address onto
    /// the control path's return-address stack.
    Jump {
        /// Subroutine entry instruction index.
        target: LineNum,
    },
    /// Pop the return-address stack and resume after the matching `JUMP`.
    Return,
    /// Do nothing (insert a pipeline bubble).
    Nop,

    // --- Arithmetic / Boolean (three-register) ---
    /// `rd = rs OP rt` (see [`BinaryOp`]; `MAC` accumulates, `MUX` selects).
    Binary {
        /// Operation.
        op: BinaryOp,
        /// First source register.
        rs: RegId,
        /// Second source register.
        rt: RegId,
        /// Destination register.
        rd: RegId,
    },
    /// `rd = OP rs` (see [`UnaryOp`]).
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Source register.
        rs: RegId,
        /// Destination register.
        rd: RegId,
    },
    /// Per-lane comparison; result bit per lane goes to the conditional
    /// register.
    Compare {
        /// Operation.
        op: CompareOp,
        /// First source register.
        rs: RegId,
        /// Second source register.
        rt: RegId,
    },
    /// Fuzzy comparison of `rs` and `rt`, skipping bit positions set in
    /// `rd`; result goes to the conditional register.
    Fuzzy {
        /// First source register.
        rs: RegId,
        /// Second source register.
        rt: RegId,
        /// Register holding the skip-bit mask.
        rd: RegId,
    },
    /// Compare and swap: after execution `rs` holds the smaller and `rt`
    /// the larger value, per lane (the conditional sorting primitive).
    Cas {
        /// First register (receives the smaller value).
        rs: RegId,
        /// Second register (receives the larger value).
        rt: RegId,
    },
    /// Initialize `rd` with the constant 0 or 1 in every lane.
    Init {
        /// Which constant to write.
        value: InitValue,
        /// Destination register.
        rd: RegId,
    },

    // --- Data movement ---
    /// Copy register `rs` of the source VRF to register `rd` of the
    /// destination VRF, for every RFH pair of the enclosing move block.
    /// Only legal inside a move block.
    Memcpy {
        /// VRF index (within the source RFH of each pair).
        src_vrf: VrfId,
        /// Source register.
        rs: RegId,
        /// VRF index (within the destination RFH of each pair).
        dst_vrf: VrfId,
        /// Destination register.
        rd: RegId,
    },
}

impl Instruction {
    /// The first reason this compute instruction's register operands
    /// cannot run on a VRF of `regs` registers whose recipes reserve the
    /// temporaries `temps` (`None` on a datapath that reserves none), or
    /// `None` when they can. In order, from the instruction's row: every
    /// operand, in text order (`rs`, `rt`, `rd`), is in range; `rd`
    /// aliases no source of an operation that
    /// [excludes it](BinaryOp::rd_excludes_sources); no operand of an
    /// operation that [uses the temporaries](BinaryOp::uses_temps) is one
    /// of them. Instructions outside [`InstrClass::Compute`] always pass.
    pub fn operand_error(
        &self,
        regs: usize,
        temps: Option<(RegId, RegId)>,
    ) -> Option<OperandError> {
        let (row, values) = self.row_and_operands();
        let row = &ISA[row];
        if row.class != InstrClass::Compute {
            return None;
        }
        let mut operands = values[..row.fields.len()].iter().map(|&v| RegId(v as u16));
        if let Some(r) = operands.clone().find(|r| r.index() >= regs) {
            return Some(OperandError::OutOfRange(r));
        }
        let [rs, rt, rd, _] = values;
        if row.rule.rd_excludes_sources && (rd == rs || rd == rt) {
            return Some(OperandError::AliasedDestination(RegId(rd as u16)));
        }
        let (a, b) = temps.filter(|_| row.rule.uses_temps)?;
        operands.find(|&r| r == a || r == b).map(OperandError::ReservedTemp)
    }

    /// The Table II mnemonic for this instruction.
    pub fn mnemonic(&self) -> &'static str {
        self.row().mnemonic
    }

    /// True for instructions legal in a compute-ensemble body (vector
    /// arithmetic, comparisons, intra-VRF moves, control flow, `NOP`).
    pub fn is_compute_body(&self) -> bool {
        matches!(
            self,
            Instruction::Binary { .. }
                | Instruction::Unary { .. }
                | Instruction::Compare { .. }
                | Instruction::Fuzzy { .. }
                | Instruction::Cas { .. }
                | Instruction::Init { .. }
                | Instruction::GetMask { .. }
                | Instruction::SetMask { .. }
                | Instruction::Unmask
                | Instruction::JumpCond { .. }
                | Instruction::Jump { .. }
                | Instruction::Return
                | Instruction::Nop
        )
    }

    /// True for the control-flow instructions that *Baseline* datapaths
    /// cannot execute without a host CPU (used by the offload model).
    pub fn requires_control_path(&self) -> bool {
        matches!(
            self,
            Instruction::GetMask { .. }
                | Instruction::SetMask { .. }
                | Instruction::Unmask
                | Instruction::JumpCond { .. }
                | Instruction::Jump { .. }
                | Instruction::Return
        )
    }

    /// True for comparison-class instructions that write the conditional
    /// register.
    pub fn writes_conditional(&self) -> bool {
        matches!(self, Instruction::Compare { .. } | Instruction::Fuzzy { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_match_table_ii() {
        assert_eq!(Instruction::MpuSync.mnemonic(), "MPU_SYNC");
        assert_eq!(Instruction::Init { value: InitValue::Zero, rd: RegId(0) }.mnemonic(), "INIT0");
        assert_eq!(Instruction::Init { value: InitValue::One, rd: RegId(0) }.mnemonic(), "INIT1");
        assert_eq!(
            Instruction::Binary { op: BinaryOp::QRDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) }
                .mnemonic(),
            "QRDIV"
        );
        assert_eq!(
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(0), rt: RegId(1) }.mnemonic(),
            "CMPEQ"
        );
    }

    #[test]
    fn control_path_classification() {
        assert!(Instruction::JumpCond { target: LineNum(0) }.requires_control_path());
        assert!(Instruction::SetMask { rs: RegId(0) }.requires_control_path());
        assert!(!Instruction::Nop.requires_control_path());
        assert!(!Instruction::Binary {
            op: BinaryOp::Add,
            rs: RegId(0),
            rt: RegId(1),
            rd: RegId(2)
        }
        .requires_control_path());
    }

    #[test]
    fn compute_body_classification() {
        assert!(Instruction::Nop.is_compute_body());
        assert!(Instruction::Unmask.is_compute_body());
        assert!(!Instruction::ComputeDone.is_compute_body());
        assert!(!Instruction::Memcpy {
            src_vrf: VrfId(0),
            rs: RegId(0),
            dst_vrf: VrfId(0),
            rd: RegId(0)
        }
        .is_compute_body());
    }

    #[test]
    fn conditional_writers() {
        assert!(Instruction::Compare { op: CompareOp::Lt, rs: RegId(0), rt: RegId(1) }
            .writes_conditional());
        assert!(
            Instruction::Fuzzy { rs: RegId(0), rt: RegId(1), rd: RegId(2) }.writes_conditional()
        );
        assert!(!Instruction::Cas { rs: RegId(0), rt: RegId(1) }.writes_conditional());
    }

    #[test]
    fn operand_errors_come_in_rule_order() {
        let bin = |op, rs, rt, rd| Instruction::Binary {
            op,
            rs: RegId(rs),
            rt: RegId(rt),
            rd: RegId(rd),
        };
        let temps = Some((RegId(14), RegId(15)));
        let err = |i: Instruction| i.operand_error(16, temps);
        assert_eq!(err(bin(BinaryOp::Add, 3, 3, 3)), None, "ADD may alias");
        assert_eq!(err(bin(BinaryOp::Mul, 3, 14, 15)), None, "MUL may use the temps");
        assert_eq!(
            err(bin(BinaryOp::Mul, 1, 3, 3)),
            Some(OperandError::AliasedDestination(RegId(3)))
        );
        assert_eq!(err(bin(BinaryOp::QDiv, 15, 1, 2)), Some(OperandError::ReservedTemp(RegId(15))));
        assert_eq!(
            bin(BinaryOp::QDiv, 15, 1, 2).operand_error(16, None),
            None,
            "no temps reserved"
        );
        // Range first, then aliasing, then temps.
        assert_eq!(err(bin(BinaryOp::Mul, 16, 16, 16)), Some(OperandError::OutOfRange(RegId(16))));
        assert_eq!(
            err(bin(BinaryOp::RDiv, 14, 1, 14)),
            Some(OperandError::AliasedDestination(RegId(14)))
        );
        let popc = Instruction::Unary { op: UnaryOp::ALL[0], rs: RegId(1), rd: RegId(20) };
        assert_eq!(err(popc), Some(OperandError::OutOfRange(RegId(20))));
        assert_eq!(err(Instruction::Nop), None);
    }

    #[test]
    fn all_arrays_are_exhaustive_and_distinct() {
        use std::collections::HashSet;
        let b: HashSet<_> = BinaryOp::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(b.len(), BinaryOp::ALL.len());
        let u: HashSet<_> = UnaryOp::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(u.len(), UnaryOp::ALL.len());
        let c: HashSet<_> = CompareOp::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(c.len(), CompareOp::ALL.len());
    }
}
