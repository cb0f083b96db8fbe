//! Admission control: submission-time resource validation and the typed
//! rejection taxonomy.
//!
//! Every job is validated *before* it can occupy a queue slot: the
//! program must parse, fit the instruction/statement ceilings, stay
//! within the backend's geometry, give every compute instruction operands
//! its recipe can take, avoid inter-MPU communication (the
//! service schedules single-MPU jobs), and carry a bounded number of
//! data-dependent loops (each of which is fenced at runtime by the
//! per-ensemble instruction watchdog). A rejected submission costs the
//! service nothing but the validation itself.

use crate::health::HealthState;
use crate::job::{JobSpec, Priority, ProgramSource};
use mpu_isa::{Instruction, OperandError, Program};
use pum_backend::{DatapathModel, Geometry};
use std::fmt;

/// Per-job resource ceilings enforced at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmissionLimits {
    /// Maximum assembled program length, instructions.
    pub max_program_instructions: usize,
    /// Maximum ezpim statements (pre-assembly size proxy).
    pub max_statements: usize,
    /// Maximum data-dependent (`while`/`for`) loops per program.
    pub max_dynamic_loops: usize,
    /// Maximum total input words across all input registers.
    pub max_input_words: usize,
    /// Runtime instruction budget per ensemble-body pass, armed on every
    /// job via [`mastodon::RecoveryPolicy::watchdog_instructions`] so an
    /// admitted dynamic loop can spin at most this long.
    pub watchdog_instructions: u64,
}

impl Default for SubmissionLimits {
    fn default() -> Self {
        SubmissionLimits {
            max_program_instructions: 4096,
            max_statements: 1024,
            max_dynamic_loops: 4,
            max_input_words: 1 << 16,
            watchdog_instructions: 200_000,
        }
    }
}

/// Typed admission rejection. Jobs rejected here were never admitted:
/// they hold no queue slot, no tenant quota, and no job id.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The service is shutting down.
    ShuttingDown,
    /// The bounded admission queue is full.
    QueueFull {
        /// Queue capacity.
        capacity: usize,
    },
    /// The tenant already has its quota of live (queued + running) jobs.
    TenantQuotaExceeded {
        /// Offending tenant.
        tenant: String,
        /// Per-tenant live-job quota.
        quota: usize,
    },
    /// Load shedding: the service health admits only `min_priority` and
    /// above right now.
    LoadShed {
        /// Health state that triggered the shed.
        health: HealthState,
        /// Lowest priority currently admitted.
        min_priority: Priority,
    },
    /// The program text failed to parse or assemble.
    ParseError {
        /// Parser/assembler diagnostic.
        message: String,
    },
    /// The assembled program exceeds the instruction ceiling.
    ProgramTooLarge {
        /// Assembled length.
        instructions: usize,
        /// Ceiling.
        limit: usize,
    },
    /// The ezpim source exceeds the statement ceiling.
    TooManyStatements {
        /// Statement count.
        statements: usize,
        /// Ceiling.
        limit: usize,
    },
    /// The program carries more data-dependent loops than allowed.
    TooManyDynamicLoops {
        /// Dynamic-loop count.
        loops: usize,
        /// Ceiling.
        limit: usize,
    },
    /// The program uses `SEND`/`RECV`; the service runs single-MPU jobs.
    CommNotSupported {
        /// Offending instruction index.
        line: usize,
    },
    /// A program header or an input/output register is outside the
    /// backend's geometry.
    GeometryExceeded {
        /// What went out of range.
        what: String,
    },
    /// A compute instruction's operands break a rule of its recipe
    /// ([`DatapathModel::operand_error`]): `rd` aliases a source of a
    /// multi-step operation, or a divide operand is a reserved temporary.
    IllegalOperand {
        /// Offending instruction index.
        line: usize,
        /// The rule broken.
        error: OperandError,
    },
    /// Total input words exceed the ceiling.
    TooManyInputWords {
        /// Requested words.
        words: usize,
        /// Ceiling.
        limit: usize,
    },
    /// The request itself is malformed (bad wire fields, unknown
    /// backend, ...).
    InvalidRequest {
        /// Diagnostic.
        message: String,
    },
}

impl AdmitError {
    /// Stable snake_case wire tag for this rejection kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AdmitError::ShuttingDown => "shutting_down",
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::TenantQuotaExceeded { .. } => "tenant_quota_exceeded",
            AdmitError::LoadShed { .. } => "load_shed",
            AdmitError::ParseError { .. } => "parse_error",
            AdmitError::ProgramTooLarge { .. } => "program_too_large",
            AdmitError::TooManyStatements { .. } => "too_many_statements",
            AdmitError::TooManyDynamicLoops { .. } => "too_many_dynamic_loops",
            AdmitError::CommNotSupported { .. } => "comm_not_supported",
            AdmitError::GeometryExceeded { .. } => "geometry_exceeded",
            AdmitError::IllegalOperand { .. } => "illegal_operand",
            AdmitError::TooManyInputWords { .. } => "too_many_input_words",
            AdmitError::InvalidRequest { .. } => "invalid_request",
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::ShuttingDown => write!(f, "service is shutting down"),
            AdmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} slots)")
            }
            AdmitError::TenantQuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant} at its live-job quota ({quota})")
            }
            AdmitError::LoadShed { health, min_priority } => write!(
                f,
                "load shed: service is {health}, admitting {} priority and above",
                min_priority.as_str()
            ),
            AdmitError::ParseError { message } => write!(f, "parse error: {message}"),
            AdmitError::ProgramTooLarge { instructions, limit } => {
                write!(f, "program too large: {instructions} instructions (limit {limit})")
            }
            AdmitError::TooManyStatements { statements, limit } => {
                write!(f, "too many statements: {statements} (limit {limit})")
            }
            AdmitError::TooManyDynamicLoops { loops, limit } => {
                write!(f, "too many dynamic loops: {loops} (limit {limit})")
            }
            AdmitError::CommNotSupported { line } => {
                write!(f, "instruction {line}: SEND/RECV not supported by the service")
            }
            AdmitError::GeometryExceeded { what } => write!(f, "geometry exceeded: {what}"),
            AdmitError::IllegalOperand { line, error } => {
                write!(f, "instruction {line}: illegal operand: {error}")
            }
            AdmitError::TooManyInputWords { words, limit } => {
                write!(f, "too many input words: {words} (limit {limit})")
            }
            AdmitError::InvalidRequest { message } => write!(f, "invalid request: {message}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Parses, assembles, and resource-validates a submission's program.
/// Returns the assembled program on success.
pub(crate) fn build_program(
    spec: &JobSpec,
    limits: &SubmissionLimits,
    datapath: &DatapathModel,
) -> Result<Program, AdmitError> {
    let geometry = &datapath.geometry();
    let program = match &spec.program {
        ProgramSource::EzText(text) => {
            let ez = ezpim::parse(text)
                .map_err(|e| AdmitError::ParseError { message: e.to_string() })?;
            if ez.statements() > limits.max_statements {
                return Err(AdmitError::TooManyStatements {
                    statements: ez.statements(),
                    limit: limits.max_statements,
                });
            }
            if ez.dynamic_loops() > limits.max_dynamic_loops {
                return Err(AdmitError::TooManyDynamicLoops {
                    loops: ez.dynamic_loops(),
                    limit: limits.max_dynamic_loops,
                });
            }
            ez.assemble().map_err(|e| AdmitError::ParseError { message: e.to_string() })?
        }
        ProgramSource::Asm(text) => {
            let program = Program::parse_asm(text)
                .map_err(|e| AdmitError::ParseError { message: e.to_string() })?;
            program.validate().map_err(|e| AdmitError::ParseError { message: e.to_string() })?;
            program
        }
        // Never executed: the worker detonates before touching the
        // simulator. An empty program keeps the record well-formed.
        ProgramSource::PoisonPanic => Program::new(),
    };

    if program.len() > limits.max_program_instructions {
        return Err(AdmitError::ProgramTooLarge {
            instructions: program.len(),
            limit: limits.max_program_instructions,
        });
    }

    for (line, instr) in program.instructions().iter().enumerate() {
        match instr {
            Instruction::Send { .. } | Instruction::SendDone | Instruction::Recv { .. } => {
                return Err(AdmitError::CommNotSupported { line });
            }
            Instruction::Compute { rfh, vrf } => {
                check_vrf(geometry, rfh.index(), vrf.index(), format!("instruction {line}"))?;
            }
            Instruction::Move { src, dst } => {
                check_rfh(geometry, src.index(), format!("instruction {line} MOVE src"))?;
                check_rfh(geometry, dst.index(), format!("instruction {line} MOVE dst"))?;
            }
            _ => match datapath.operand_error(instr) {
                None => {}
                Some(OperandError::OutOfRange(reg)) => {
                    return Err(AdmitError::GeometryExceeded {
                        what: format!(
                            "instruction {line} {}: reg {} >= {}",
                            instr.mnemonic(),
                            reg.0,
                            geometry.regs_per_vrf
                        ),
                    });
                }
                Some(error) => return Err(AdmitError::IllegalOperand { line, error }),
            },
        }
    }

    let mut words = 0usize;
    for init in &spec.inputs {
        check_reg(geometry, init.rfh, init.vrf, init.reg, "input")?;
        words += init.values.len();
    }
    if words > limits.max_input_words {
        return Err(AdmitError::TooManyInputWords { words, limit: limits.max_input_words });
    }
    for out in &spec.outputs {
        check_reg(geometry, out.rfh, out.vrf, out.reg, "output")?;
    }

    Ok(program)
}

fn check_rfh(g: &Geometry, rfh: usize, what: String) -> Result<(), AdmitError> {
    if rfh >= g.rfhs_per_mpu {
        return Err(AdmitError::GeometryExceeded {
            what: format!("{what}: rfh {rfh} >= {}", g.rfhs_per_mpu),
        });
    }
    Ok(())
}

fn check_vrf(g: &Geometry, rfh: usize, vrf: usize, what: String) -> Result<(), AdmitError> {
    check_rfh(g, rfh, what.clone())?;
    if vrf >= g.vrfs_per_rfh {
        return Err(AdmitError::GeometryExceeded {
            what: format!("{what}: vrf {vrf} >= {}", g.vrfs_per_rfh),
        });
    }
    Ok(())
}

fn check_reg(g: &Geometry, rfh: u16, vrf: u16, reg: u8, role: &str) -> Result<(), AdmitError> {
    check_vrf(g, rfh as usize, vrf as usize, format!("{role} r{reg}"))?;
    if (reg as usize) >= g.regs_per_vrf {
        return Err(AdmitError::GeometryExceeded {
            what: format!("{role}: reg {reg} >= {}", g.regs_per_vrf),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::RegInit;
    use pum_backend::{DatapathKind, DatapathModel};

    fn geo() -> DatapathModel {
        DatapathModel::for_kind(DatapathKind::Racer)
    }

    fn spec(text: &str) -> JobSpec {
        JobSpec::ez("t", DatapathKind::Racer, text)
    }

    const ADD: &str = "ensemble h0.v0 {\n  add r0 r1 r2\n}";

    #[test]
    fn a_plain_program_is_admitted() {
        let p = build_program(&spec(ADD), &SubmissionLimits::default(), &geo()).unwrap();
        assert!(p.len() >= 3);
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = build_program(&spec("ensemble h0.v0 {"), &SubmissionLimits::default(), &geo())
            .unwrap_err();
        assert_eq!(err.kind(), "parse_error");
    }

    #[test]
    fn dynamic_loop_ceiling_is_enforced() {
        let text = "ensemble h0.v0 {\n  while r0 < r1 {\n    add r0 r2 r0\n  }\n}";
        let limits = SubmissionLimits { max_dynamic_loops: 0, ..Default::default() };
        let err = build_program(&spec(text), &limits, &geo()).unwrap_err();
        assert!(matches!(err, AdmitError::TooManyDynamicLoops { loops: 1, limit: 0 }));
    }

    #[test]
    fn oversized_programs_are_rejected() {
        let limits = SubmissionLimits { max_program_instructions: 2, ..Default::default() };
        let err = build_program(&spec(ADD), &limits, &geo()).unwrap_err();
        assert_eq!(err.kind(), "program_too_large");
    }

    #[test]
    fn comm_programs_are_rejected() {
        let mut s = spec("");
        s.program = ProgramSource::Asm(
            "SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r1\nMOVE_DONE\nSEND_DONE".into(),
        );
        let err = build_program(&s, &SubmissionLimits::default(), &geo()).unwrap_err();
        assert!(matches!(err, AdmitError::CommNotSupported { line: 0 }));
    }

    #[test]
    fn out_of_geometry_inputs_are_rejected() {
        let mut s = spec(ADD);
        s.inputs.push(RegInit { rfh: 999, vrf: 0, reg: 0, values: vec![1] });
        let err = build_program(&s, &SubmissionLimits::default(), &geo()).unwrap_err();
        assert_eq!(err.kind(), "geometry_exceeded");
    }

    #[test]
    fn input_word_budget_is_enforced() {
        let mut s = spec(ADD);
        s.inputs.push(RegInit { rfh: 0, vrf: 0, reg: 0, values: vec![0; 64] });
        let limits = SubmissionLimits { max_input_words: 63, ..Default::default() };
        let err = build_program(&s, &limits, &geo()).unwrap_err();
        assert!(matches!(err, AdmitError::TooManyInputWords { words: 64, limit: 63 }));
    }
}
