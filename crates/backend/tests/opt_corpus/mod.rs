//! The optimizer corpus: every recipe-bearing instruction (16 binary, 7
//! unary, 3 compare, FUZZY, CAS and INIT), with distinct operands and with
//! every operand aliasing the ISA permits. Shared by the byte-level pin in
//! `opt_golden.rs` and the pass's own unit tests.

use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp};

/// The corpus, in the order the digests hash it.
pub fn corpus() -> Vec<Instruction> {
    let r = RegId;
    let mut v = Vec::new();
    for op in BinaryOp::ALL {
        v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(2) });
        // Sources may always alias each other.
        v.push(Instruction::Binary { op, rs: r(3), rt: r(3), rd: r(4) });
        if !op.rd_excludes_sources() {
            v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(0) });
            v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(1) });
            v.push(Instruction::Binary { op, rs: r(5), rt: r(5), rd: r(5) });
        }
    }
    for op in UnaryOp::ALL {
        v.push(Instruction::Unary { op, rs: r(0), rd: r(2) });
        v.push(Instruction::Unary { op, rs: r(4), rd: r(4) });
    }
    for op in CompareOp::ALL {
        v.push(Instruction::Compare { op, rs: r(0), rt: r(1) });
        v.push(Instruction::Compare { op, rs: r(5), rt: r(5) });
    }
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(1), rd: r(2) });
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(0), rd: r(1) });
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(1), rd: r(0) });
    v.push(Instruction::Fuzzy { rs: r(3), rt: r(3), rd: r(3) });
    v.push(Instruction::Cas { rs: r(0), rt: r(1) });
    v.push(Instruction::Cas { rs: r(6), rt: r(6) });
    v.push(Instruction::Init { value: InitValue::Zero, rd: r(6) });
    v.push(Instruction::Init { value: InitValue::One, rd: r(7) });
    v
}
