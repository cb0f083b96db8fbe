//! The ISA table (paper Table II): one const row per opcode.
//!
//! A row holds the opcode, the mnemonic, the operand fields in text order,
//! the instruction class and the operand-rule flags. Encode, decode, print,
//! parse, validation and every `mnemonic` read it; [`Instruction`] keeps
//! one match to its row and one back from a row. Cycle costs are not
//! here: they depend on where an instruction runs (a top-level `RETURN`
//! halts for free, one in a body costs a jump), so the core model resolves
//! them.
//!
//! Encoding: the opcode occupies the top 7 bits (`[25..32)`); the other 25
//! bits hold the row's fields, each as wide as its id's `MAX`. Bits no
//! field covers must be zero, which makes the encoding canonical:
//! `decode(encode(i)) == i` and `encode(decode(w)) == w` for every valid
//! word `w`. The opcode values are ABI: stable across versions of this
//! crate.
//!
//! | Format        | Fields (bit positions)                                  |
//! |---------------|---------------------------------------------------------|
//! | 3-register    | `rs[18..24)`, `rt[12..18)`, `rd[6..12)`                 |
//! | 2-register    | `rs[18..24)`, `rd[6..12)`                               |
//! | COMPUTE       | `rfh[20..25)`, `vrf[14..20)`                            |
//! | MOVE          | `src[20..25)`, `dst[15..20)`                            |
//! | SEND/RECV     | `mpu[15..25)`                                           |
//! | JUMP*         | `target[0..20)`                                         |
//! | MEMCPY        | `src_vrf[19..25)`, `rs[13..19)`, `dst_vrf[7..13)`, `rd[1..7)` |

use crate::ids::{LineNum, MpuId, RegId, RfhId, VrfId};
use crate::instr::{BinaryOp, CompareOp, InitValue, Instruction, UnaryOp};

/// What an operand field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldKind {
    /// A vector register ([`RegId`]).
    Reg,
    /// A VRF within an RF holder ([`VrfId`]).
    Vrf,
    /// An RF holder within an MPU ([`RfhId`]).
    Rfh,
    /// An MPU on the chip ([`MpuId`]).
    Mpu,
    /// A jump target ([`LineNum`]).
    Line,
}

impl FieldKind {
    /// The largest encodable value, the id's `MAX`; it is also the field's
    /// bit mask.
    pub(crate) const fn max(self) -> u32 {
        match self {
            FieldKind::Reg => RegId::MAX as u32,
            FieldKind::Vrf => VrfId::MAX as u32,
            FieldKind::Rfh => RfhId::MAX as u32,
            FieldKind::Mpu => MpuId::MAX as u32,
            FieldKind::Line => LineNum::MAX,
        }
    }

    /// The assembly prefix, the name parse errors give the kind, and the
    /// name the encode range check gives a value of it.
    pub(crate) const fn spelling(self) -> (&'static str, &'static str, &'static str) {
        match self {
            FieldKind::Reg => ("r", "register", "register index"),
            FieldKind::Vrf => ("v", "VRF", "VRF index"),
            FieldKind::Rfh => ("h", "RF holder", "RFH index"),
            FieldKind::Mpu => ("mpu", "MPU", "MPU index"),
            FieldKind::Line => ("@", "line number", "jump target"),
        }
    }
}

/// One operand field: its kind and its lowest bit.
pub(crate) type Field = (FieldKind, u32);

/// Coarse classification of an instruction, used by the attribution
/// profile to group charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrClass {
    /// A datapath (compute) instruction issuing a micro-op recipe.
    Compute,
    /// A control-path instruction (masks, branches, NOP, sync).
    Control,
    /// A data-movement instruction (`MEMCPY`).
    Transfer,
    /// An inter-MPU communication instruction (`RECV`).
    Comm,
    /// An ensemble header/footer marker (`COMPUTE`, `MOVE`, `SEND`, ...).
    Marker,
}

/// The operand constraints of a row beyond range
/// ([`Instruction::operand_error`]). Only `rs rt rd` rows set them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OperandRule {
    /// The recipe writes `rd` while it still reads `rs` and `rt`, so `rd`
    /// must alias neither.
    pub(crate) rd_excludes_sources: bool,
    /// The bit-serial recipe keeps its partial remainder in the two
    /// reserved temporary registers, so no operand may be one of them.
    pub(crate) uses_temps: bool,
}

/// One opcode of the ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRow {
    /// The 7-bit opcode (ABI).
    pub(crate) opcode: u8,
    /// The Table II mnemonic.
    pub mnemonic: &'static str,
    /// The operand fields, in text order.
    pub(crate) fields: &'static [Field],
    /// The instruction class.
    pub class: InstrClass,
    /// The operand constraints.
    pub(crate) rule: OperandRule,
}

use FieldKind::{Line, Mpu, Reg, Rfh, Vrf};
use InstrClass::{Comm, Compute, Control, Marker, Transfer};

const NONE: &[Field] = &[];
const RS_RT_RD: &[Field] = &[(Reg, 18), (Reg, 12), (Reg, 6)];
const RS_RT: &[Field] = &[(Reg, 18), (Reg, 12)];
const RS_RD: &[Field] = &[(Reg, 18), (Reg, 6)];
const RS: &[Field] = &[(Reg, 18)];
const RD: &[Field] = &[(Reg, 6)];
const RFH_VRF: &[Field] = &[(Rfh, 20), (Vrf, 14)];
const RFH_RFH: &[Field] = &[(Rfh, 20), (Rfh, 15)];
const MPU: &[Field] = &[(Mpu, 15)];
const TARGET: &[Field] = &[(Line, 0)];
const MEMCPY: &[Field] = &[(Vrf, 19), (Reg, 13), (Vrf, 7), (Reg, 1)];

const FREE: OperandRule = OperandRule { rd_excludes_sources: false, uses_temps: false };
const MULTI_STEP: OperandRule = OperandRule { rd_excludes_sources: true, uses_temps: false };
const DIVIDE: OperandRule = OperandRule { rd_excludes_sources: true, uses_temps: true };

/// Row of the first binary op: the 20 single-opcode rows come first.
pub(crate) const BINARY: usize = 20;
/// Row of the first unary op.
pub(crate) const UNARY: usize = BINARY + BinaryOp::ALL.len();
/// Row of the first compare op.
pub(crate) const COMPARE: usize = UNARY + UnaryOp::ALL.len();

/// The ISA, one row per opcode in opcode order. Each op family's rows
/// follow its `ALL` array.
pub(crate) const ISA: [OpRow; 46] = [
    OpRow { opcode: 0, mnemonic: "COMPUTE", fields: RFH_VRF, class: Marker, rule: FREE },
    OpRow { opcode: 1, mnemonic: "COMPUTE_DONE", fields: NONE, class: Marker, rule: FREE },
    OpRow { opcode: 2, mnemonic: "MPU_SYNC", fields: NONE, class: Control, rule: FREE },
    OpRow { opcode: 3, mnemonic: "MOVE", fields: RFH_RFH, class: Marker, rule: FREE },
    OpRow { opcode: 4, mnemonic: "MOVE_DONE", fields: NONE, class: Marker, rule: FREE },
    OpRow { opcode: 5, mnemonic: "SEND", fields: MPU, class: Marker, rule: FREE },
    OpRow { opcode: 6, mnemonic: "SEND_DONE", fields: NONE, class: Marker, rule: FREE },
    OpRow { opcode: 7, mnemonic: "RECV", fields: MPU, class: Comm, rule: FREE },
    OpRow { opcode: 8, mnemonic: "GETMASK", fields: RD, class: Control, rule: FREE },
    OpRow { opcode: 9, mnemonic: "SETMASK", fields: RS, class: Control, rule: FREE },
    OpRow { opcode: 10, mnemonic: "UNMASK", fields: NONE, class: Control, rule: FREE },
    OpRow { opcode: 11, mnemonic: "JUMP_COND", fields: TARGET, class: Control, rule: FREE },
    OpRow { opcode: 12, mnemonic: "JUMP", fields: TARGET, class: Control, rule: FREE },
    OpRow { opcode: 13, mnemonic: "RETURN", fields: NONE, class: Control, rule: FREE },
    OpRow { opcode: 14, mnemonic: "NOP", fields: NONE, class: Control, rule: FREE },
    OpRow { opcode: 15, mnemonic: "FUZZY", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 16, mnemonic: "CAS", fields: RS_RT, class: Compute, rule: FREE },
    OpRow { opcode: 17, mnemonic: "INIT0", fields: RD, class: Compute, rule: FREE },
    OpRow { opcode: 18, mnemonic: "INIT1", fields: RD, class: Compute, rule: FREE },
    OpRow { opcode: 19, mnemonic: "MEMCPY", fields: MEMCPY, class: Transfer, rule: FREE },
    OpRow { opcode: 32, mnemonic: "ADD", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 33, mnemonic: "SUB", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 34, mnemonic: "MUL", fields: RS_RT_RD, class: Compute, rule: MULTI_STEP },
    OpRow { opcode: 35, mnemonic: "MAC", fields: RS_RT_RD, class: Compute, rule: MULTI_STEP },
    OpRow { opcode: 36, mnemonic: "QDIV", fields: RS_RT_RD, class: Compute, rule: DIVIDE },
    OpRow { opcode: 37, mnemonic: "QRDIV", fields: RS_RT_RD, class: Compute, rule: DIVIDE },
    OpRow { opcode: 38, mnemonic: "RDIV", fields: RS_RT_RD, class: Compute, rule: DIVIDE },
    OpRow { opcode: 39, mnemonic: "AND", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 40, mnemonic: "NAND", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 41, mnemonic: "NOR", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 42, mnemonic: "OR", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 43, mnemonic: "XOR", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 44, mnemonic: "XNOR", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 45, mnemonic: "MUX", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 46, mnemonic: "MAX", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 47, mnemonic: "MIN", fields: RS_RT_RD, class: Compute, rule: FREE },
    OpRow { opcode: 56, mnemonic: "INC", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 57, mnemonic: "POPC", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 58, mnemonic: "RELU", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 59, mnemonic: "INV", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 60, mnemonic: "BFLIP", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 61, mnemonic: "LSHIFT", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 62, mnemonic: "MOV", fields: RS_RD, class: Compute, rule: FREE },
    OpRow { opcode: 64, mnemonic: "CMPEQ", fields: RS_RT, class: Compute, rule: FREE },
    OpRow { opcode: 65, mnemonic: "CMPGT", fields: RS_RT, class: Compute, rule: FREE },
    OpRow { opcode: 66, mnemonic: "CMPLT", fields: RS_RT, class: Compute, rule: FREE },
];

const NO_ROW: u8 = u8::MAX;

/// The row of each 7-bit opcode, [`NO_ROW`] where none is assigned. Built
/// at compile time, which also rejects a repeated opcode and fields that
/// overlap or leave the 25-bit body.
const BY_OPCODE: [u8; 128] = {
    let mut by_opcode = [NO_ROW; 128];
    let mut i = 0;
    while i < ISA.len() {
        let row = &ISA[i];
        assert!(by_opcode[row.opcode as usize] == NO_ROW, "repeated opcode");
        by_opcode[row.opcode as usize] = i as u8;
        let (mut covered, mut f) = (0u32, 0);
        while f < row.fields.len() {
            let bits = row.fields[f].0.max() << row.fields[f].1;
            assert!(covered & bits == 0 && bits >> 25 == 0, "fields overlap");
            covered |= bits;
            f += 1;
        }
        i += 1;
    }
    assert!(ISA.len() == COMPARE + CompareOp::ALL.len());
    by_opcode
};

/// The row index of `opcode`, if it names an instruction.
pub(crate) fn row_of_opcode(opcode: u8) -> Option<usize> {
    match BY_OPCODE.get(usize::from(opcode)) {
        Some(&i) if i != NO_ROW => Some(usize::from(i)),
        _ => None,
    }
}

impl Instruction {
    /// This instruction's row of the ISA table.
    pub fn row(&self) -> &'static OpRow {
        &ISA[self.row_and_operands().0]
    }

    /// The index of this instruction's [`ISA`] row and its operand values
    /// in text order, unused slots zero. The single-opcode rows sit at
    /// their opcode; each op family's rows follow its `ALL` array.
    #[inline]
    pub(crate) fn row_and_operands(&self) -> (usize, [u32; 4]) {
        let n = u32::from;
        match *self {
            Instruction::Compute { rfh, vrf } => (0, [n(rfh.0), n(vrf.0), 0, 0]),
            Instruction::ComputeDone => (1, [0; 4]),
            Instruction::MpuSync => (2, [0; 4]),
            Instruction::Move { src, dst } => (3, [n(src.0), n(dst.0), 0, 0]),
            Instruction::MoveDone => (4, [0; 4]),
            Instruction::Send { dst } => (5, [n(dst.0), 0, 0, 0]),
            Instruction::SendDone => (6, [0; 4]),
            Instruction::Recv { src } => (7, [n(src.0), 0, 0, 0]),
            Instruction::GetMask { rd } => (8, [n(rd.0), 0, 0, 0]),
            Instruction::SetMask { rs } => (9, [n(rs.0), 0, 0, 0]),
            Instruction::Unmask => (10, [0; 4]),
            Instruction::JumpCond { target } => (11, [target.0, 0, 0, 0]),
            Instruction::Jump { target } => (12, [target.0, 0, 0, 0]),
            Instruction::Return => (13, [0; 4]),
            Instruction::Nop => (14, [0; 4]),
            Instruction::Fuzzy { rs, rt, rd } => (15, [n(rs.0), n(rt.0), n(rd.0), 0]),
            Instruction::Cas { rs, rt } => (16, [n(rs.0), n(rt.0), 0, 0]),
            Instruction::Init { value, rd } => (17 + value as usize, [n(rd.0), 0, 0, 0]),
            Instruction::Memcpy { src_vrf, rs, dst_vrf, rd } => {
                (19, [n(src_vrf.0), n(rs.0), n(dst_vrf.0), n(rd.0)])
            }
            Instruction::Binary { op, rs, rt, rd } => {
                (BINARY + op as usize, [n(rs.0), n(rt.0), n(rd.0), 0])
            }
            Instruction::Unary { op, rs, rd } => (UNARY + op as usize, [n(rs.0), n(rd.0), 0, 0]),
            Instruction::Compare { op, rs, rt } => {
                (COMPARE + op as usize, [n(rs.0), n(rt.0), 0, 0])
            }
        }
    }

    /// The instruction of row `row` with operand values `v` in text order
    /// ([`Instruction::row_and_operands`] inverted). Each value must fit
    /// its id type.
    pub(crate) fn from_row(row: usize, v: [u32; 4]) -> Instruction {
        let reg = |i: usize| RegId(v[i] as u16);
        let vrf = |i: usize| VrfId(v[i] as u16);
        let rfh = |i: usize| RfhId(v[i] as u16);
        let mpu = |i: usize| MpuId(v[i] as u16);
        match row {
            0 => Instruction::Compute { rfh: rfh(0), vrf: vrf(1) },
            1 => Instruction::ComputeDone,
            2 => Instruction::MpuSync,
            3 => Instruction::Move { src: rfh(0), dst: rfh(1) },
            4 => Instruction::MoveDone,
            5 => Instruction::Send { dst: mpu(0) },
            6 => Instruction::SendDone,
            7 => Instruction::Recv { src: mpu(0) },
            8 => Instruction::GetMask { rd: reg(0) },
            9 => Instruction::SetMask { rs: reg(0) },
            10 => Instruction::Unmask,
            11 => Instruction::JumpCond { target: LineNum(v[0]) },
            12 => Instruction::Jump { target: LineNum(v[0]) },
            13 => Instruction::Return,
            14 => Instruction::Nop,
            15 => Instruction::Fuzzy { rs: reg(0), rt: reg(1), rd: reg(2) },
            16 => Instruction::Cas { rs: reg(0), rt: reg(1) },
            17 => Instruction::Init { value: InitValue::Zero, rd: reg(0) },
            18 => Instruction::Init { value: InitValue::One, rd: reg(0) },
            19 => Instruction::Memcpy { src_vrf: vrf(0), rs: reg(1), dst_vrf: vrf(2), rd: reg(3) },
            BINARY..UNARY => {
                let op = BinaryOp::ALL[row - BINARY];
                Instruction::Binary { op, rs: reg(0), rt: reg(1), rd: reg(2) }
            }
            UNARY..COMPARE => {
                Instruction::Unary { op: UnaryOp::ALL[row - UNARY], rs: reg(0), rd: reg(1) }
            }
            _ => Instruction::Compare { op: CompareOp::ALL[row - COMPARE], rs: reg(0), rt: reg(1) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_matches_agree_on_every_row() {
        for (i, row) in ISA.iter().enumerate() {
            let instr = Instruction::from_row(i, [1, 2, 3, 4]);
            assert_eq!(instr.row_and_operands().0, i, "{}", row.mnemonic);
            assert_eq!(row_of_opcode(row.opcode), Some(i));
        }
        for (i, op) in BinaryOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, op) in UnaryOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        for (i, op) in CompareOp::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
        assert_eq!(row_of_opcode(20), None);
        assert_eq!(row_of_opcode(127), None);
    }
}
