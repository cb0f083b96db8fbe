//! Textual assembly: `Display` for instructions and a line-oriented parser.
//!
//! The format follows Table II: mnemonic followed by whitespace-separated
//! operands with conventional prefixes (`r` registers, `v` VRFs, `h` RF
//! holders, `mpu` MPUs, `@` line targets). `#` starts a comment. This is
//! the *basic* assembler; the `ezpim` crate layers loops, branches and
//! subroutine syntax on top.

use crate::instr::Instruction;
use crate::program::Program;
use crate::table::{FieldKind, ISA};
use std::fmt;
use std::str::FromStr;

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (row, values) = self.row_and_operands();
        let row = &ISA[row];
        f.write_str(row.mnemonic)?;
        for (&(kind, _), value) in row.fields.iter().zip(values) {
            write!(f, " {}{value}", kind.spelling().0)?;
        }
        Ok(())
    }
}

/// Error parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// One-based source line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asm line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Parses one operand of `kind`. An index must fit its id type (`u16`;
/// a jump target `u32`); whether it fits the encoding is for validation.
fn parse_operand(kind: FieldKind, tok: &str) -> Result<u32, String> {
    let (prefix, what, _) = kind.spelling();
    if kind == FieldKind::Line {
        // Accept both `@5` and bare `5` (Table II shows bare line numbers).
        let digits = tok.strip_prefix(prefix).unwrap_or(tok);
        return digits.parse::<u32>().map_err(|_| format!("invalid {what} in `{tok}`"));
    }
    let digits = tok
        .strip_prefix(prefix)
        .ok_or_else(|| format!("expected {what} like `{prefix}0`, found `{tok}`"))?;
    digits.parse::<u16>().map(u32::from).map_err(|_| format!("invalid {what} index in `{tok}`"))
}

impl FromStr for Instruction {
    type Err = String;

    /// Parses a single Table II-style instruction line (no comments).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut toks = s.split_whitespace();
        let mnemonic = toks.next().ok_or_else(|| "empty instruction".to_string())?;
        let index = ISA
            .iter()
            .position(|row| row.mnemonic.eq_ignore_ascii_case(mnemonic))
            .ok_or_else(|| format!("unknown mnemonic `{}`", mnemonic.to_ascii_uppercase()))?;
        let row = &ISA[index];
        let mut operands = [""; 4];
        let mut found = 0;
        for tok in toks {
            if let Some(slot) = operands.get_mut(found) {
                *slot = tok;
            }
            found += 1;
        }
        let expected = row.fields.len();
        if found != expected {
            return Err(format!("{} expects {expected} operand(s), found {found}", row.mnemonic));
        }
        let mut values = [0; 4];
        for ((value, &(kind, _)), tok) in values.iter_mut().zip(row.fields).zip(operands) {
            *value = parse_operand(kind, tok)?;
        }
        Ok(Instruction::from_row(index, values))
    }
}

impl Program {
    /// Parses Table II-style assembly text into a program.
    ///
    /// Blank lines and `#` comments are skipped; an optional leading
    /// `N:` line-number label (as printed by [`Program`]'s `Display`) is
    /// ignored, so `parse_asm(p.to_string())` round-trips.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseAsmError`] locating the first malformed line.
    ///
    /// # Example
    ///
    /// ```
    /// use mpu_isa::Program;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let p = Program::parse_asm(
    ///     "COMPUTE h0 v0\n\
    ///      ADD r0 r1 r2   # body\n\
    ///      COMPUTE_DONE",
    /// )?;
    /// assert_eq!(p.len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse_asm(text: &str) -> Result<Program, ParseAsmError> {
        let mut instructions = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let no_comment = raw.split('#').next().unwrap_or("");
            let mut body = no_comment.trim();
            // Strip a leading `N:` label if present.
            if let Some(colon) = body.find(':') {
                if body[..colon].chars().all(|c| c.is_ascii_digit()) && colon > 0 {
                    body = body[colon + 1..].trim_start();
                }
            }
            if body.is_empty() {
                continue;
            }
            let instr = body
                .parse::<Instruction>()
                .map_err(|message| ParseAsmError { line: line_no, message })?;
            instructions.push(instr);
        }
        Ok(Program::from_instructions(instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LineNum, RegId, RfhId, VrfId};
    use crate::instr::{BinaryOp, CompareOp, InitValue};

    #[test]
    fn display_matches_table_ii_syntax() {
        let i = Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        assert_eq!(i.to_string(), "ADD r0 r1 r2");
        assert_eq!(
            Instruction::Compute { rfh: RfhId(1), vrf: VrfId(1) }.to_string(),
            "COMPUTE h1 v1"
        );
        assert_eq!(
            Instruction::Memcpy {
                src_vrf: VrfId(0),
                rs: RegId(1),
                dst_vrf: VrfId(2),
                rd: RegId(3)
            }
            .to_string(),
            "MEMCPY v0 r1 v2 r3"
        );
        assert_eq!(Instruction::JumpCond { target: LineNum(4) }.to_string(), "JUMP_COND @4");
    }

    #[test]
    fn parse_accepts_comments_blanks_and_labels() {
        let p = Program::parse_asm(
            "# a program\n\
             \n\
             0: COMPUTE h0 v1\n\
             ADD r0 r1 r2 # add\n\
             COMPUTE_DONE\n",
        )
        .unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn display_parse_roundtrip() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: RfhId(2), vrf: VrfId(5) },
            Instruction::Init { value: InitValue::One, rd: RegId(1) },
            Instruction::Compare { op: CompareOp::Lt, rs: RegId(1), rt: RegId(2) },
            Instruction::SetMask { rs: RegId(63) },
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let text = p.to_string();
        let back = Program::parse_asm(&text).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn parse_rejects_bad_operand_counts() {
        let e = Program::parse_asm("ADD r0 r1").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn parse_rejects_unknown_mnemonic() {
        let e = Program::parse_asm("FROB r0").unwrap_err();
        assert!(e.message.contains("unknown mnemonic"));
    }

    #[test]
    fn parse_rejects_wrong_prefix() {
        let e = Program::parse_asm("ADD v0 r1 r2").unwrap_err();
        assert!(e.message.contains("expected register"));
    }

    #[test]
    fn parse_is_case_insensitive_on_mnemonics() {
        let p = Program::parse_asm("nop\nmpu_sync").unwrap();
        assert_eq!(p[0], Instruction::Nop);
        assert_eq!(p[1], Instruction::MpuSync);
    }

    #[test]
    fn indices_that_overflow_their_id_are_parse_errors() {
        for (line, message) in [
            ("ADD r0 r1 r65538", "invalid register index in `r65538`"),
            ("SETMASK r65599", "invalid register index in `r65599`"),
            ("COMPUTE h0 v65536", "invalid VRF index in `v65536`"),
            ("MOVE h70000 h1", "invalid RF holder index in `h70000`"),
            ("RECV mpu65536", "invalid MPU index in `mpu65536`"),
        ] {
            assert_eq!(Program::parse_asm(line).unwrap_err().message, message, "{line}");
        }
        // Indices that fit the id but not the encoding parse; validation
        // rejects them.
        let p = Program::parse_asm("SETMASK r65535").unwrap();
        assert_eq!(p[0], Instruction::SetMask { rs: RegId(65535) });
        assert!(p.validate().is_err());
    }

    #[test]
    fn bare_line_numbers_accepted_for_jumps() {
        let p = Program::parse_asm("JUMP 0").unwrap();
        assert_eq!(p[0], Instruction::Jump { target: LineNum(0) });
    }
}
