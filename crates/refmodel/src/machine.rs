//! The single-MPU reference interpreter: architectural execution on plain
//! `u64` lanes, mirroring the simulator's instruction walk (ensemble
//! headers, thermal-wave replay, EFI control flow, transfer blocks,
//! `SEND`/`RECV` boundaries) with none of its timing.

use crate::semantics;
use crate::RefGeometry;
use mpu_isa::{Instruction, OperandError, Program, COND_REG};
use std::collections::HashMap;
use std::fmt;

/// Depth of the control path's return-address stack (mirrors the
/// simulator's hardware limit; the two must stay in lockstep for the
/// differential suites to agree on overflow behavior).
pub const RETURN_STACK_DEPTH: usize = 64;

/// An architectural error raised by the reference interpreter. Mirrors the
/// simulator's error conditions one-to-one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// The program is structurally invalid (validator message).
    InvalidProgram(String),
    /// An RFH/VRF/register index exceeds the geometry.
    GeometryExceeded {
        /// Offending instruction index.
        line: usize,
        /// Description of the violation.
        what: String,
    },
    /// A compute instruction's operands break a rule of its recipe
    /// ([`Instruction::operand_error`]): `rd` aliases a source of a
    /// multi-step operation, or a divide operand is a reserved temporary.
    IllegalOperand {
        /// Offending instruction index.
        line: usize,
        /// The rule broken.
        error: OperandError,
    },
    /// `RETURN` with an empty return-address stack inside an ensemble.
    ReturnUnderflow {
        /// Offending instruction index.
        line: usize,
    },
    /// `JUMP` overflowed the bounded return-address stack (mirrors the
    /// simulator's [`RETURN_STACK_DEPTH`] hardware limit).
    ReturnStackOverflow {
        /// Offending instruction index.
        line: usize,
    },
    /// A compute/body instruction reached outside any ensemble.
    StrayInstruction {
        /// Offending instruction index.
        line: usize,
        /// Mnemonic of the stray instruction.
        mnemonic: &'static str,
    },
    /// `SEND`/`RECV` executed on a lone machine outside a [`crate::RefSystem`].
    CommOutsideSystem {
        /// Offending instruction index.
        line: usize,
    },
    /// Execution ran off the end of the program.
    UnexpectedEnd {
        /// Index of the first missing instruction.
        line: usize,
    },
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
            RefError::GeometryExceeded { line, what } => {
                write!(f, "line {line}: geometry exceeded: {what}")
            }
            RefError::IllegalOperand { line, error } => {
                write!(f, "line {line}: illegal operand: {error}")
            }
            RefError::ReturnUnderflow { line } => {
                write!(f, "line {line}: RETURN with empty return-address stack")
            }
            RefError::ReturnStackOverflow { line } => {
                write!(
                    f,
                    "line {line}: JUMP overflowed the {RETURN_STACK_DEPTH}-entry \
                     return-address stack"
                )
            }
            RefError::StrayInstruction { line, mnemonic } => {
                write!(f, "line {line}: {mnemonic} reached outside any ensemble")
            }
            RefError::CommOutsideSystem { line } => {
                write!(f, "line {line}: SEND/RECV requires a multi-MPU RefSystem")
            }
            RefError::UnexpectedEnd { line } => {
                write!(f, "line {line}: execution ran past the end of the program")
            }
        }
    }
}

impl std::error::Error for RefError {}

/// One register's worth of lanes shipped to another MPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefWrite {
    /// Destination RF holder.
    pub rfh: u16,
    /// Destination VRF within the holder.
    pub vrf: u16,
    /// Destination register.
    pub reg: u8,
    /// Element values, one per lane.
    pub values: Vec<u64>,
}

/// An inter-MPU message produced by a `SEND` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefMessage {
    /// Sender MPU id.
    pub src: u16,
    /// Receiver MPU id.
    pub dst: u16,
    /// Register payloads to apply at the receiver.
    pub writes: Vec<RefWrite>,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Outcome of advancing the machine to its next communication boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum RefStep {
    /// The program ran to completion (or a top-level `RETURN` halt).
    Completed,
    /// A `SEND` block finished; deliver this message and step again.
    Sent(Box<RefMessage>),
    /// Blocked on `RECV` from the named MPU.
    AwaitingRecv {
        /// The expected sender.
        src: u16,
    },
}

/// A coarse architectural event recorded in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefEvent {
    /// A compute ensemble executed: its member VRFs and the number of
    /// thermal waves it was split into.
    Ensemble {
        /// `(rfh, vrf)` members in header order.
        members: Vec<(u16, u16)>,
        /// Scheduler waves the ensemble replayed over.
        waves: usize,
    },
    /// A local transfer block executed.
    Transfer {
        /// `(src_rfh, dst_rfh)` pairs in header order.
        pairs: Vec<(u16, u16)>,
        /// Number of `MEMCPY` instructions in the block.
        copies: usize,
    },
    /// A `SEND` block completed.
    Sent {
        /// Destination MPU.
        dst: u16,
        /// Payload bytes.
        bytes: u64,
    },
    /// A `RECV` consumed a message.
    Received {
        /// Source MPU.
        src: u16,
    },
    /// An `MPU_SYNC` fence retired.
    Sync,
    /// A top-level `RETURN` halted the machine.
    Halt,
}

/// Architectural execution trace: the counters a timing refactor must not
/// change, plus the coarse event list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefTrace {
    /// Instructions retired (body instructions count once per wave pass,
    /// matching the simulator's replay accounting).
    pub instructions: u64,
    /// Thermal scheduler waves formed across all ensembles.
    pub scheduler_waves: u64,
    /// `SEND` messages completed.
    pub messages_sent: u64,
    /// Total payload bytes across all sent messages.
    pub noc_bytes: u64,
    /// Coarse events in program order.
    pub events: Vec<RefEvent>,
}

impl RefTrace {
    /// Adds another trace's counters into this one (events append).
    pub fn absorb(&mut self, other: &RefTrace) {
        self.instructions += other.instructions;
        self.scheduler_waves += other.scheduler_waves;
        self.messages_sent += other.messages_sent;
        self.noc_bytes += other.noc_bytes;
        self.events.extend(other.events.iter().cloned());
    }
}

/// Word-level state of one VRF: registers, conditional bits, lane mask.
#[derive(Debug, Clone)]
struct RefVrf {
    regs: Vec<Vec<u64>>,
    cond: Vec<bool>,
    mask: Vec<bool>,
}

impl RefVrf {
    fn new(lanes: usize, regs: usize) -> Self {
        Self { regs: vec![vec![0; lanes]; regs], cond: vec![false; lanes], mask: vec![true; lanes] }
    }

    /// Host/transfer write: full overwrite of every lane (bypasses the
    /// mask), zero-filling lanes past the end of `values`.
    fn write_all_lanes(&mut self, reg: u8, values: &[u64]) {
        let lanes = self.mask.len();
        let dst = &mut self.regs[reg as usize];
        for (lane, slot) in dst.iter_mut().enumerate().take(lanes) {
            *slot = values.get(lane).copied().unwrap_or(0);
        }
    }
}

/// The word-level reference interpreter for one MPU.
#[derive(Debug, Clone)]
pub struct RefMpu {
    geometry: RefGeometry,
    id: u16,
    vrfs: HashMap<(u16, u16), RefVrf>,
    pc: usize,
    halted: bool,
    inbox: Vec<RefMessage>,
    trace: RefTrace,
}

impl RefMpu {
    /// Creates a reference machine with zeroed VRFs.
    pub fn new(geometry: RefGeometry, id: u16) -> Self {
        Self {
            geometry,
            id,
            vrfs: HashMap::new(),
            pc: 0,
            halted: false,
            inbox: Vec::new(),
            trace: RefTrace::default(),
        }
    }

    /// The geometry this machine interprets against.
    pub fn geometry(&self) -> &RefGeometry {
        &self.geometry
    }

    /// The architectural trace accumulated so far.
    pub fn trace(&self) -> &RefTrace {
        &self.trace
    }

    fn fetch(program: &Program, pc: usize) -> Result<Instruction, RefError> {
        program.get(pc).copied().ok_or(RefError::UnexpectedEnd { line: pc })
    }

    fn check_geometry(&self, line: usize, rfh: u16, vrf: u16) -> Result<(), RefError> {
        if (rfh as usize) >= self.geometry.rfhs_per_mpu {
            return Err(RefError::GeometryExceeded {
                line,
                what: format!("RFH {rfh} >= {}", self.geometry.rfhs_per_mpu),
            });
        }
        if (vrf as usize) >= self.geometry.vrfs_per_rfh {
            return Err(RefError::GeometryExceeded {
                line,
                what: format!("VRF {vrf} >= {}", self.geometry.vrfs_per_rfh),
            });
        }
        Ok(())
    }

    fn check_reg(&self, line: usize, reg: u16) -> Result<u8, RefError> {
        if (reg as usize) >= self.geometry.regs_per_vrf {
            return Err(RefError::GeometryExceeded {
                line,
                what: format!("register r{reg} >= {}", self.geometry.regs_per_vrf),
            });
        }
        Ok(reg as u8)
    }

    fn vrf_mut(&mut self, rfh: u16, vrf: u16) -> &mut RefVrf {
        let (lanes, regs) = (self.geometry.lanes_per_vrf, self.geometry.regs_per_vrf);
        self.vrfs.entry((rfh, vrf)).or_insert_with(|| RefVrf::new(lanes, regs))
    }

    /// Host/DMA path: loads element values into a register. Surplus values
    /// are ignored; missing tail lanes zero-fill.
    pub fn write_register(&mut self, rfh: u16, vrf: u16, reg: u8, values: &[u64]) {
        self.vrf_mut(rfh, vrf).write_all_lanes(reg, values);
    }

    /// Host/DMA path: reads a register back as one value per lane.
    pub fn read_register(&mut self, rfh: u16, vrf: u16, reg: u8) -> Vec<u64> {
        self.vrf_mut(rfh, vrf).regs[reg as usize].clone()
    }

    /// Rewinds the PC for a fresh run (VRF data is preserved).
    pub fn reset_pc(&mut self) {
        self.pc = 0;
        self.halted = false;
    }

    /// Queues an incoming message (applied when `RECV` executes).
    pub fn deliver(&mut self, message: RefMessage) {
        self.inbox.push(message);
    }

    /// Runs a complete communication-free program.
    ///
    /// # Errors
    ///
    /// Fails on invalid programs, geometry violations, or `SEND`/`RECV`
    /// (which need a [`crate::RefSystem`]).
    pub fn run(&mut self, program: &Program) -> Result<(), RefError> {
        self.reset_pc();
        match self.step(program)? {
            RefStep::Completed => Ok(()),
            RefStep::Sent(_) | RefStep::AwaitingRecv { .. } => {
                Err(RefError::CommOutsideSystem { line: self.pc })
            }
        }
    }

    /// Advances execution until completion or the next communication
    /// boundary.
    ///
    /// # Errors
    ///
    /// See [`RefError`].
    pub fn step(&mut self, program: &Program) -> Result<RefStep, RefError> {
        if self.pc == 0 && !self.halted {
            program.validate().map_err(|e| RefError::InvalidProgram(e.to_string()))?;
        }
        let len = program.len();
        while self.pc < len && !self.halted {
            let line = self.pc;
            match program[line] {
                Instruction::Compute { .. } => self.exec_compute_ensemble(program)?,
                Instruction::Move { .. } => self.exec_transfer_block(program, None)?,
                Instruction::MpuSync => {
                    self.trace.instructions += 1;
                    self.trace.events.push(RefEvent::Sync);
                    self.pc += 1;
                }
                Instruction::Send { dst } => {
                    let msg = self.exec_send_block(program, dst.0)?;
                    return Ok(RefStep::Sent(Box::new(msg)));
                }
                Instruction::Recv { src } => {
                    if let Some(pos) = self.inbox.iter().position(|m| m.src == src.0) {
                        let msg = self.inbox.remove(pos);
                        self.apply_message(&msg);
                        self.trace.instructions += 1;
                        self.trace.events.push(RefEvent::Received { src: src.0 });
                        self.pc += 1;
                    } else {
                        return Ok(RefStep::AwaitingRecv { src: src.0 });
                    }
                }
                Instruction::Return => {
                    self.halted = true;
                    self.trace.instructions += 1;
                    self.trace.events.push(RefEvent::Halt);
                }
                Instruction::Nop => {
                    self.trace.instructions += 1;
                    self.pc += 1;
                }
                ref other => {
                    return Err(RefError::StrayInstruction { line, mnemonic: other.mnemonic() });
                }
            }
        }
        Ok(RefStep::Completed)
    }

    // ----- compute ensembles ------------------------------------------

    fn exec_compute_ensemble(&mut self, program: &Program) -> Result<(), RefError> {
        let mut members: Vec<(u16, u16)> = Vec::new();
        while let Instruction::Compute { rfh, vrf } = Self::fetch(program, self.pc)? {
            self.check_geometry(self.pc, rfh.0, vrf.0)?;
            members.push((rfh.0, vrf.0));
            self.trace.instructions += 1;
            self.pc += 1;
        }
        let body_start = self.pc;

        let waves = form_waves(&members, self.geometry.active_vrfs_per_rfh);
        self.trace.scheduler_waves += waves.len() as u64;
        self.trace.events.push(RefEvent::Ensemble { members, waves: waves.len() });

        let mut end_pc = body_start;
        for wave in &waves {
            end_pc = self.run_body(program, body_start, wave)?;
        }
        if waves.is_empty() {
            end_pc = self.run_body(program, body_start, &[])?;
        }
        // Footer (COMPUTE_DONE retires once per ensemble, not per wave).
        self.trace.instructions += 1;
        self.pc = end_pc + 1;
        Ok(())
    }

    /// Interprets the ensemble body once for one wave; returns the index
    /// of the terminating `COMPUTE_DONE`.
    fn run_body(
        &mut self,
        program: &Program,
        body_start: usize,
        wave: &[(u16, u16)],
    ) -> Result<usize, RefError> {
        let mut pc = body_start;
        let mut return_stack: Vec<usize> = Vec::new();

        // A wave starts with every lane enabled.
        for &(rfh, vrf) in wave {
            self.vrf_mut(rfh, vrf).mask.fill(true);
        }

        loop {
            let line = pc;
            let instr = Self::fetch(program, line)?;
            match instr {
                Instruction::ComputeDone => {
                    // Leave predication clean for the next ensemble.
                    for &(rfh, vrf) in wave {
                        self.vrf_mut(rfh, vrf).mask.fill(true);
                    }
                    return Ok(line);
                }
                Instruction::Binary { .. }
                | Instruction::Unary { .. }
                | Instruction::Compare { .. }
                | Instruction::Fuzzy { .. }
                | Instruction::Cas { .. }
                | Instruction::Init { .. } => {
                    self.exec_compute_instr(line, &instr, wave)?;
                    self.trace.instructions += 1;
                    pc += 1;
                }
                Instruction::SetMask { rs } => {
                    let from_cond = rs == COND_REG;
                    let reg = if from_cond { 0 } else { self.check_reg(line, rs.0)? };
                    for &(rfh, vrf) in wave {
                        let v = self.vrf_mut(rfh, vrf);
                        for lane in 0..v.mask.len() {
                            v.mask[lane] = if from_cond {
                                v.cond[lane]
                            } else {
                                v.regs[reg as usize][lane] & 1 == 1
                            };
                        }
                    }
                    self.trace.instructions += 1;
                    pc += 1;
                }
                Instruction::GetMask { rd } => {
                    // Mask readout ignores predication: every lane's bit
                    // is written out.
                    let rd = self.check_reg(line, rd.0)?;
                    for &(rfh, vrf) in wave {
                        let v = self.vrf_mut(rfh, vrf);
                        for lane in 0..v.mask.len() {
                            v.regs[rd as usize][lane] = u64::from(v.mask[lane]);
                        }
                    }
                    self.trace.instructions += 1;
                    pc += 1;
                }
                Instruction::Unmask => {
                    for &(rfh, vrf) in wave {
                        self.vrf_mut(rfh, vrf).mask.fill(true);
                    }
                    self.trace.instructions += 1;
                    pc += 1;
                }
                Instruction::JumpCond { target } => {
                    // EFI: loop back while any lane of any wave VRF is
                    // still enabled.
                    let any_enabled = wave
                        .iter()
                        .any(|&(rfh, vrf)| self.vrf_mut(rfh, vrf).mask.iter().any(|&m| m));
                    self.trace.instructions += 1;
                    pc = if any_enabled { target.index() } else { pc + 1 };
                }
                Instruction::Jump { target } => {
                    self.trace.instructions += 1;
                    // Same bounded hardware stack as the simulator: a
                    // corrupted target re-executing JUMPs must trap.
                    if return_stack.len() >= RETURN_STACK_DEPTH {
                        return Err(RefError::ReturnStackOverflow { line });
                    }
                    return_stack.push(pc + 1);
                    pc = target.index();
                }
                Instruction::Return => {
                    self.trace.instructions += 1;
                    pc = return_stack.pop().ok_or(RefError::ReturnUnderflow { line })?;
                }
                Instruction::Nop => {
                    self.trace.instructions += 1;
                    pc += 1;
                }
                ref other => {
                    return Err(RefError::StrayInstruction { line, mnemonic: other.mnemonic() });
                }
            }
        }
    }

    /// Applies one compute instruction to every VRF of the wave, lane by
    /// lane under the mask.
    fn exec_compute_instr(
        &mut self,
        line: usize,
        instr: &Instruction,
        wave: &[(u16, u16)],
    ) -> Result<(), RefError> {
        // Validate register operands once (identically for every member),
        // by the rule the simulator applies.
        let g = &self.geometry;
        match instr.operand_error(g.regs_per_vrf, g.reserved_temps) {
            None => {}
            Some(OperandError::OutOfRange(reg)) => {
                let what = format!("register r{} >= {}", reg.0, g.regs_per_vrf);
                return Err(RefError::GeometryExceeded { line, what });
            }
            Some(error) => return Err(RefError::IllegalOperand { line, error }),
        }
        for &(rfh, vrf) in wave {
            let v = self.vrf_mut(rfh, vrf);
            let lanes = v.mask.len();
            for lane in 0..lanes {
                if !v.mask[lane] {
                    continue;
                }
                match *instr {
                    Instruction::Binary { op, rs, rt, rd } => {
                        let (rs, rt, rd) = (rs.index(), rt.index(), rd.index());
                        let (a, b) = (v.regs[rs][lane], v.regs[rt][lane]);
                        let old = v.regs[rd][lane];
                        v.regs[rd][lane] = semantics::binary(op, a, b, old);
                        if op == mpu_isa::BinaryOp::QRDiv {
                            v.regs[rt][lane] = semantics::div_narrow(a, b).1;
                        }
                    }
                    Instruction::Unary { op, rs, rd } => {
                        v.regs[rd.index()][lane] = semantics::unary(op, v.regs[rs.index()][lane]);
                    }
                    Instruction::Compare { op, rs, rt } => {
                        v.cond[lane] = semantics::compare(
                            op,
                            v.regs[rs.index()][lane],
                            v.regs[rt.index()][lane],
                        );
                    }
                    Instruction::Fuzzy { rs, rt, rd } => {
                        v.cond[lane] = semantics::fuzzy(
                            v.regs[rs.index()][lane],
                            v.regs[rt.index()][lane],
                            v.regs[rd.index()][lane],
                        );
                    }
                    Instruction::Cas { rs, rt } => {
                        let (lo, hi) =
                            semantics::cas(v.regs[rs.index()][lane], v.regs[rt.index()][lane]);
                        v.regs[rs.index()][lane] = lo;
                        v.regs[rt.index()][lane] = hi;
                    }
                    Instruction::Init { value, rd } => {
                        v.regs[rd.index()][lane] = semantics::init(value);
                    }
                    _ => unreachable!(),
                }
            }
        }
        Ok(())
    }

    // ----- transfer and communication ---------------------------------

    /// Executes a move block. With `message` set the block belongs to a
    /// `SEND` and the copies become remote writes instead of local ones.
    fn exec_transfer_block(
        &mut self,
        program: &Program,
        mut message: Option<&mut RefMessage>,
    ) -> Result<(), RefError> {
        let mut pairs: Vec<(u16, u16)> = Vec::new();
        while let Instruction::Move { src, dst } = Self::fetch(program, self.pc)? {
            pairs.push((src.0, dst.0));
            self.trace.instructions += 1;
            self.pc += 1;
        }
        let words = self.geometry.lanes_per_vrf as u64;
        let mut copies = 0usize;
        loop {
            match Self::fetch(program, self.pc)? {
                Instruction::MoveDone => {
                    self.trace.instructions += 1;
                    self.pc += 1;
                    if message.is_none() {
                        self.trace.events.push(RefEvent::Transfer { pairs, copies });
                    }
                    return Ok(());
                }
                Instruction::Memcpy { src_vrf, rs, dst_vrf, rd } => {
                    let line = self.pc;
                    let rs = self.check_reg(line, rs.0)?;
                    let rd = self.check_reg(line, rd.0)?;
                    for &(src_rfh, dst_rfh) in &pairs {
                        self.check_geometry(line, src_rfh, src_vrf.0)?;
                        let values = self.vrf_mut(src_rfh, src_vrf.0).regs[rs as usize].clone();
                        match message.as_deref_mut() {
                            Some(msg) => {
                                msg.writes.push(RefWrite {
                                    rfh: dst_rfh,
                                    vrf: dst_vrf.0,
                                    reg: rd,
                                    values,
                                });
                                msg.bytes += words * 8;
                            }
                            None => {
                                self.check_geometry(line, dst_rfh, dst_vrf.0)?;
                                self.vrf_mut(dst_rfh, dst_vrf.0).write_all_lanes(rd, &values);
                            }
                        }
                    }
                    copies += 1;
                    self.trace.instructions += 1;
                    self.pc += 1;
                }
                ref other => {
                    return Err(RefError::StrayInstruction {
                        line: self.pc,
                        mnemonic: other.mnemonic(),
                    });
                }
            }
        }
    }

    fn exec_send_block(&mut self, program: &Program, dst: u16) -> Result<RefMessage, RefError> {
        self.trace.instructions += 1;
        self.pc += 1; // past SEND
        let mut msg = RefMessage { src: self.id, dst, writes: Vec::new(), bytes: 0 };
        while !matches!(Self::fetch(program, self.pc)?, Instruction::SendDone) {
            match Self::fetch(program, self.pc)? {
                Instruction::Move { .. } => self.exec_transfer_block(program, Some(&mut msg))?,
                ref other => {
                    return Err(RefError::StrayInstruction {
                        line: self.pc,
                        mnemonic: other.mnemonic(),
                    });
                }
            }
        }
        // SEND_DONE.
        self.trace.instructions += 1;
        self.pc += 1;
        self.trace.messages_sent += 1;
        self.trace.noc_bytes += msg.bytes;
        self.trace.events.push(RefEvent::Sent { dst, bytes: msg.bytes });
        Ok(msg)
    }

    fn apply_message(&mut self, msg: &RefMessage) {
        for w in &msg.writes {
            self.vrf_mut(w.rfh, w.vrf).write_all_lanes(w.reg, &w.values);
        }
    }
}

/// Thermal-aware wave formation: per-RFH queues in first-appearance order,
/// at most `limit` VRFs of each RFH per wave.
fn form_waves(members: &[(u16, u16)], limit: usize) -> Vec<Vec<(u16, u16)>> {
    let limit = limit.max(1);
    let mut queues: HashMap<u16, Vec<(u16, u16)>> = HashMap::new();
    let mut rfh_order: Vec<u16> = Vec::new();
    for &(rfh, vrf) in members {
        if !queues.contains_key(&rfh) {
            rfh_order.push(rfh);
        }
        queues.entry(rfh).or_default().push((rfh, vrf));
    }
    let mut waves = Vec::new();
    loop {
        let mut wave = Vec::new();
        for rfh in &rfh_order {
            if let Some(queue) = queues.get_mut(rfh) {
                let take = limit.min(queue.len());
                wave.extend(queue.drain(..take));
            }
        }
        if wave.is_empty() {
            break;
        }
        waves.push(wave);
    }
    waves
}

/// One initial-register assignment: `(rfh, vrf, reg)` plus lane values.
pub type LaneInit = ((u16, u16, u8), Vec<u64>);

/// Convenience: run `program` on a fresh reference machine with initial
/// register data. `inputs` maps `(rfh, vrf, reg)` to lane values.
///
/// # Errors
///
/// Propagates [`RefError`] from execution.
pub fn run_ref(
    geometry: RefGeometry,
    program: &Program,
    inputs: &[LaneInit],
) -> Result<RefMpu, RefError> {
    let mut mpu = RefMpu::new(geometry, 0);
    for ((rfh, vrf, reg), values) in inputs {
        mpu.write_register(*rfh, *vrf, *reg, values);
    }
    mpu.run(program)?;
    Ok(mpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpu_isa::{BinaryOp, CompareOp, InitValue, LineNum, RegId, UnaryOp, VrfId};

    fn asm(text: &str) -> Program {
        Program::parse_asm(text).expect("valid asm")
    }

    fn racer() -> RefGeometry {
        RefGeometry::racer()
    }

    #[test]
    fn simple_add_is_correct_and_counted() {
        let p = asm("COMPUTE h0 v0\nADD r0 r1 r2\nCOMPUTE_DONE");
        let mut mpu =
            run_ref(racer(), &p, &[((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![9; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 2), vec![14; 64]);
        // Header + one body pass + footer.
        assert_eq!(mpu.trace().instructions, 3);
        assert_eq!(mpu.trace().scheduler_waves, 1);
    }

    #[test]
    fn thermal_waves_replay_for_same_rfh_vrfs() {
        let p = asm("COMPUTE h0 v0\nCOMPUTE h0 v1\nINC r0 r1\nCOMPUTE_DONE");
        let mut mpu =
            run_ref(racer(), &p, &[((0, 0, 0), vec![1; 64]), ((0, 1, 0), vec![7; 64])]).unwrap();
        assert_eq!(mpu.trace().scheduler_waves, 2);
        assert_eq!(mpu.read_register(0, 0, 1)[0], 2);
        assert_eq!(mpu.read_register(0, 1, 1)[0], 8);
        // 2 headers + 2 wave passes of 1 instruction + footer.
        assert_eq!(mpu.trace().instructions, 5);

        // MIMDRAM activates both in one wave, same values.
        let mut wide = run_ref(
            RefGeometry::mimdram(),
            &p,
            &[((0, 0, 0), vec![1; 512]), ((0, 1, 0), vec![7; 512])],
        )
        .unwrap();
        assert_eq!(wide.trace().scheduler_waves, 1);
        assert_eq!(wide.read_register(0, 1, 1)[0], 8);
    }

    #[test]
    fn dynamic_loop_terminates_via_efi() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Gt, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(2), rd: RegId(0) },
            Instruction::JumpCond { target: LineNum(1) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let init: Vec<u64> = (0..64).map(|i| i % 5).collect();
        let mut mpu = run_ref(
            racer(),
            &p,
            &[((0, 0, 0), init), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])],
        )
        .unwrap();
        assert_eq!(mpu.read_register(0, 0, 0), vec![0; 64]);
        assert!(mpu.trace().instructions > 10);
    }

    #[test]
    fn branches_predicate_lanes() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(0), rt: RegId(1) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::GetMask { rd: RegId(3) },
            Instruction::Unmask,
            Instruction::Init { value: InitValue::Zero, rd: RegId(4) },
            Instruction::Compare { op: CompareOp::Eq, rs: RegId(3), rt: RegId(4) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let a: Vec<u64> = (0..64).collect();
        let b: Vec<u64> = (0..64).map(|i| if i % 2 == 0 { i } else { 1 }).collect();
        let mut mpu =
            run_ref(racer(), &p, &[((0, 0, 0), a.clone()), ((0, 0, 1), b.clone())]).unwrap();
        let got = mpu.read_register(0, 0, 2);
        for i in 0..64 {
            let expect = if a[i] == b[i] { a[i] + b[i] } else { a[i].wrapping_sub(b[i]) };
            assert_eq!(got[i], expect, "lane {i}");
        }
    }

    #[test]
    fn subroutine_call_and_halt_convention() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Jump { target: LineNum(4) },
            Instruction::ComputeDone,
            Instruction::Return,
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(0), rd: RegId(1) },
            Instruction::Return,
        ]);
        let mut mpu = run_ref(racer(), &p, &[((0, 0, 0), vec![21; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 1)[0], 42);
    }

    #[test]
    fn mask_resets_between_ensembles() {
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Init { value: InitValue::Zero, rd: RegId(3) },
            Instruction::SetMask { rs: RegId(3) },
            Instruction::ComputeDone,
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Unary { op: UnaryOp::Inc, rs: RegId(0), rd: RegId(1) },
            Instruction::ComputeDone,
        ]);
        let mut mpu = run_ref(racer(), &p, &[((0, 0, 0), vec![1; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 1)[0], 2);
    }

    #[test]
    fn transfer_block_moves_registers_and_counts() {
        let p = asm("MOVE h0 h1\nMEMCPY v0 r0 v0 r1\nMOVE_DONE");
        let mut mpu = run_ref(racer(), &p, &[((0, 0, 0), vec![77; 64])]).unwrap();
        assert_eq!(mpu.read_register(1, 0, 1)[0], 77);
        // MOVE + MEMCPY + MOVE_DONE.
        assert_eq!(mpu.trace().instructions, 3);
        assert_eq!(mpu.trace().events, vec![RefEvent::Transfer { pairs: vec![(0, 1)], copies: 1 }]);
    }

    #[test]
    fn multi_pair_move_applies_to_every_pair() {
        let p = asm("MOVE h0 h1\nMOVE h2 h3\nMEMCPY v0 r0 v0 r0\nMOVE_DONE");
        let mut mpu =
            run_ref(racer(), &p, &[((0, 0, 0), vec![5; 64]), ((2, 0, 0), vec![6; 64])]).unwrap();
        assert_eq!(mpu.read_register(1, 0, 0)[0], 5);
        assert_eq!(mpu.read_register(3, 0, 0)[0], 6);
    }

    #[test]
    fn qrdiv_writes_quotient_and_remainder() {
        let p = asm("COMPUTE h0 v0\nQRDIV r0 r1 r2\nCOMPUTE_DONE");
        let mut mpu =
            run_ref(racer(), &p, &[((0, 0, 0), vec![17; 64]), ((0, 0, 1), vec![5; 64])]).unwrap();
        assert_eq!(mpu.read_register(0, 0, 2)[0], 3);
        assert_eq!(mpu.read_register(0, 0, 1)[0], 2);
    }

    #[test]
    fn qrdiv_is_predicated_on_both_outputs() {
        // Lanes 0..32 disabled: neither quotient nor remainder may change.
        let p = Program::from_instructions(vec![
            Instruction::Compute { rfh: 0.into(), vrf: VrfId(0) },
            Instruction::Compare { op: CompareOp::Gt, rs: RegId(3), rt: RegId(4) },
            Instruction::SetMask { rs: COND_REG },
            Instruction::Binary { op: BinaryOp::QRDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            Instruction::Unmask,
            Instruction::ComputeDone,
        ]);
        let sel: Vec<u64> = (0..64).map(|i| u64::from(i >= 32)).collect();
        let mut mpu = run_ref(
            racer(),
            &p,
            &[
                ((0, 0, 0), vec![17; 64]),
                ((0, 0, 1), vec![5; 64]),
                ((0, 0, 2), vec![99; 64]),
                ((0, 0, 3), sel),
                ((0, 0, 4), vec![0; 64]),
            ],
        )
        .unwrap();
        let q = mpu.read_register(0, 0, 2);
        let r = mpu.read_register(0, 0, 1);
        for lane in 0..64 {
            if lane >= 32 {
                assert_eq!((q[lane], r[lane]), (3, 2), "enabled lane {lane}");
            } else {
                assert_eq!((q[lane], r[lane]), (99, 5), "disabled lane {lane}");
            }
        }
    }

    #[test]
    fn send_outside_system_is_an_error() {
        let p = asm("SEND mpu1\nMOVE h0 h0\nMEMCPY v0 r0 v0 r0\nMOVE_DONE\nSEND_DONE");
        let mut mpu = RefMpu::new(racer(), 0);
        let err = mpu.run(&p).unwrap_err();
        assert!(matches!(err, RefError::CommOutsideSystem { .. }));
    }

    #[test]
    fn geometry_violations_are_reported() {
        let p = asm("COMPUTE h9 v0\nNOP\nCOMPUTE_DONE");
        let err = RefMpu::new(racer(), 0).run(&p).unwrap_err();
        assert!(matches!(err, RefError::GeometryExceeded { .. }));
    }

    #[test]
    fn stray_instruction_detected() {
        let p = Program::from_instructions(vec![Instruction::Unmask]);
        let err = RefMpu::new(racer(), 0).run(&p).unwrap_err();
        assert!(matches!(err, RefError::StrayInstruction { .. }));
    }

    #[test]
    fn wave_formation_respects_limits() {
        let members = vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)];
        let waves = form_waves(&members, 1);
        assert_eq!(waves.len(), 3);
        assert_eq!(waves[0], vec![(0, 0), (1, 0)]);
        assert_eq!(waves[1], vec![(0, 1), (1, 1)]);
        assert_eq!(waves[2], vec![(0, 2)]);
    }
}
