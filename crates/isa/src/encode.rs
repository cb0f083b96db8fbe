//! 32-bit binary encoding of MPU instructions, read from the ISA table
//! (the `table` module, whose docs give the field layout).

use crate::instr::Instruction;
use crate::table::{row_of_opcode, ISA};
use std::fmt;

/// Error decoding a 32-bit word into an [`Instruction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field does not name any MPU instruction.
    UnknownOpcode {
        /// The offending 7-bit opcode.
        opcode: u8,
        /// The full word, for diagnostics.
        word: u32,
    },
    /// Bits that must be zero for this format were set.
    ReservedBits {
        /// The offending word.
        word: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownOpcode { opcode, word } => {
                write!(f, "unknown opcode {opcode:#x} in word {word:#010x}")
            }
            DecodeError::ReservedBits { word } => {
                write!(f, "reserved bits set in word {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Instruction {
    /// Encodes this instruction as a 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if any operand exceeds its encodable range (see
    /// [`crate::RegId::MAX`] etc.). [`crate::Program::validate`] checks
    /// ranges without panicking.
    pub fn encode(&self) -> u32 {
        let (row, values) = self.row_and_operands();
        let mut word = u32::from(ISA[row].opcode) << 25;
        for (&(kind, lo), value) in ISA[row].fields.iter().zip(values) {
            assert!(value <= kind.max(), "{} {value} exceeds encodable range", kind.spelling().2);
            word |= value << lo;
        }
        word
    }

    /// Decodes a 32-bit word into an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnknownOpcode`] for unassigned opcodes and
    /// [`DecodeError::ReservedBits`] if must-be-zero bits are set.
    pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
        let opcode = (word >> 25) as u8;
        let row = row_of_opcode(opcode).ok_or(DecodeError::UnknownOpcode { opcode, word })?;
        let fields = ISA[row].fields;
        let covered = fields.iter().fold(0, |bits, &(kind, lo)| bits | kind.max() << lo);
        if word & ((1 << 25) - 1) & !covered != 0 {
            return Err(DecodeError::ReservedBits { word });
        }
        let mut values = [0; 4];
        for (value, &(kind, lo)) in values.iter_mut().zip(fields) {
            *value = (word >> lo) & kind.max();
        }
        Ok(Instruction::from_row(row, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LineNum, MpuId, RegId, RfhId, VrfId};
    use crate::instr::{BinaryOp, CompareOp, InitValue, UnaryOp};

    fn sample_instructions() -> Vec<Instruction> {
        let mut v = vec![
            Instruction::Compute { rfh: RfhId(31), vrf: VrfId(63) },
            Instruction::ComputeDone,
            Instruction::MpuSync,
            Instruction::Move { src: RfhId(0), dst: RfhId(31) },
            Instruction::MoveDone,
            Instruction::Send { dst: MpuId(1023) },
            Instruction::SendDone,
            Instruction::Recv { src: MpuId(0) },
            Instruction::GetMask { rd: RegId(63) },
            Instruction::SetMask { rs: RegId(63) },
            Instruction::Unmask,
            Instruction::JumpCond { target: LineNum(LineNum::MAX) },
            Instruction::Jump { target: LineNum(0) },
            Instruction::Return,
            Instruction::Nop,
            Instruction::Fuzzy { rs: RegId(1), rt: RegId(2), rd: RegId(3) },
            Instruction::Cas { rs: RegId(4), rt: RegId(5) },
            Instruction::Init { value: InitValue::Zero, rd: RegId(7) },
            Instruction::Init { value: InitValue::One, rd: RegId(8) },
            Instruction::Memcpy {
                src_vrf: VrfId(63),
                rs: RegId(62),
                dst_vrf: VrfId(61),
                rd: RegId(60),
            },
        ];
        for &o in &BinaryOp::ALL {
            v.push(Instruction::Binary { op: o, rs: RegId(10), rt: RegId(20), rd: RegId(30) });
        }
        for &o in &UnaryOp::ALL {
            v.push(Instruction::Unary { op: o, rs: RegId(11), rd: RegId(22) });
        }
        for &o in &CompareOp::ALL {
            v.push(Instruction::Compare { op: o, rs: RegId(33), rt: RegId(44) });
        }
        v
    }

    #[test]
    fn roundtrip_every_instruction_kind() {
        for instr in sample_instructions() {
            let word = instr.encode();
            let back = Instruction::decode(word).expect("decode");
            assert_eq!(instr, back, "word {word:#010x}");
            // Canonical: re-encoding the decoded form yields the same word.
            assert_eq!(back.encode(), word);
        }
    }

    #[test]
    fn opcodes_are_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for instr in sample_instructions() {
            let opc = instr.encode() >> 25;
            // Only the per-op families share an opcode across samples of the
            // same op; distinct instructions must never collide.
            if !seen.insert((opc, instr.mnemonic())) {
                panic!("duplicate opcode/mnemonic pair {opc} {}", instr.mnemonic());
            }
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let word = 120u32 << 25;
        assert_eq!(
            Instruction::decode(word),
            Err(DecodeError::UnknownOpcode { opcode: 120, word })
        );
    }

    #[test]
    fn reserved_bits_rejected() {
        // COMPUTE_DONE with stray low bit.
        let word = (1u32 << 25) | 1;
        assert_eq!(Instruction::decode(word), Err(DecodeError::ReservedBits { word }));
    }

    #[test]
    #[should_panic(expected = "exceeds encodable range")]
    fn encode_panics_on_out_of_range_register() {
        Instruction::GetMask { rd: RegId(64) }.encode();
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::UnknownOpcode { opcode: 99, word: 0xdead_beef };
        assert!(e.to_string().contains("unknown opcode"));
        let e = DecodeError::ReservedBits { word: 0x1 };
        assert!(e.to_string().contains("reserved bits"));
    }
}
