//! Program container: an ordered list of MPU instructions plus helpers.

use crate::encode::DecodeError;
use crate::instr::Instruction;
use crate::validate::ValidateError;
use std::fmt;
use std::ops::Index;

/// An MPU program binary: an ordered sequence of [`Instruction`]s.
///
/// A program is what the precoder's instruction storage unit (ISU) holds
/// on chip. Construct one with [`Program::from_instructions`] or via the
/// `ezpim` assembler, check it with [`Program::validate`], and serialize it
/// with [`Program::encode`] / [`Program::decode`].
///
/// # Example
///
/// ```
/// use mpu_isa::{Instruction, Program, RfhId, VrfId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Program::from_instructions(vec![
///     Instruction::Compute { rfh: RfhId(0), vrf: VrfId(0) },
///     Instruction::Nop,
///     Instruction::ComputeDone,
/// ]);
/// assert_eq!(p.len(), 3);
/// p.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a list of instructions as a program.
    pub fn from_instructions(instructions: Vec<Instruction>) -> Self {
        Self { instructions }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions, in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The instruction at `index`, or `None` past the end — the
    /// non-panicking counterpart of indexing, for interpreter fetch paths
    /// that must reject truncated programs gracefully.
    pub fn get(&self, index: usize) -> Option<&Instruction> {
        self.instructions.get(index)
    }

    /// Appends one instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Size of the encoded binary in bytes (4 bytes per instruction). The
    /// paper's instruction storage unit holds 2 MB, so programs beyond
    /// 524,288 instructions must borrow nearby ISUs.
    pub fn binary_size_bytes(&self) -> usize {
        self.instructions.len() * 4
    }

    /// Encodes the whole program as 32-bit words.
    ///
    /// # Panics
    ///
    /// Panics if any operand exceeds its encodable range; run
    /// [`Program::validate`] first to get an error instead.
    pub fn encode(&self) -> Vec<u32> {
        self.instructions.iter().map(Instruction::encode).collect()
    }

    /// Decodes a program from 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode(words: &[u32]) -> Result<Self, DecodeError> {
        let instructions =
            words.iter().map(|&w| Instruction::decode(w)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self { instructions })
    }

    /// Checks structural well-formedness (ensemble nesting, jump targets,
    /// operand ranges, move-block membership). See [`crate::ValidateError`].
    ///
    /// # Errors
    ///
    /// Returns the first structural violation found, with its line number.
    pub fn validate(&self) -> Result<(), ValidateError> {
        crate::validate::validate(self)
    }

    /// Counts instructions for which [`Instruction::requires_control_path`]
    /// holds — the instructions a *Baseline* datapath must offload to a
    /// host CPU.
    pub fn control_instruction_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.requires_control_path()).count()
    }
}

impl Index<usize> for Program {
    type Output = Instruction;

    fn index(&self, index: usize) -> &Instruction {
        &self.instructions[index]
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Self { instructions: iter.into_iter().collect() }
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl IntoIterator for Program {
    type Item = Instruction;
    type IntoIter = std::vec::IntoIter<Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.into_iter()
    }
}

impl fmt::Display for Program {
    /// Formats the program as Table II-style assembly text, one numbered
    /// instruction per line (parseable back with [`Program::parse_asm`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, instr) in self.instructions.iter().enumerate() {
            writeln!(f, "{i:4}: {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinaryOp, RegId, RfhId, VrfId};

    fn tiny() -> Program {
        Program::from_instructions(vec![
            Instruction::Compute { rfh: RfhId(0), vrf: VrfId(1) },
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::ComputeDone,
        ])
    }

    #[test]
    fn basic_container_behaviour() {
        let p = tiny();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.binary_size_bytes(), 12);
        assert_eq!(p[2], Instruction::ComputeDone);
        assert_eq!(p.iter().count(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = tiny();
        let words = p.encode();
        assert_eq!(words.len(), 3);
        assert_eq!(Program::decode(&words).unwrap(), p);
    }

    #[test]
    fn collect_and_extend() {
        let mut p: Program = tiny().into_iter().collect();
        p.extend([Instruction::Nop]);
        assert_eq!(p.len(), 4);
        let borrowed: Vec<_> = (&p).into_iter().collect();
        assert_eq!(borrowed.len(), 4);
    }

    #[test]
    fn control_instruction_count_counts_only_control_flow() {
        let mut p = tiny();
        assert_eq!(p.control_instruction_count(), 0);
        p.push(Instruction::Unmask);
        p.push(Instruction::Return);
        p.push(Instruction::Nop);
        assert_eq!(p.control_instruction_count(), 2);
    }

    #[test]
    fn display_is_line_numbered() {
        let text = tiny().to_string();
        assert!(text.contains("0: COMPUTE"));
        assert!(text.contains("1: ADD"));
        assert!(text.contains("2: COMPUTE_DONE"));
    }
}
