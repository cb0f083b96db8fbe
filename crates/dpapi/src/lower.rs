//! Lowering: from a stage list to registers and an ezpim statement tree.
//!
//! ## Register layout (r0–r9; r10–r15 stay reserved per the register
//! conventions)
//!
//! - `d0..d{SEG-1}` — SEG elements of the primary column per lane;
//! - one SEG-register block per distinct zip column;
//! - one broadcast register per distinct immediate constant;
//! - an optional scratch register (MUL cannot alias its destination);
//! - on the *flag path*: `v` (host-loaded validity, 1 for real elements,
//!   0 for padding) and `f` (the keep flag the filter nest computes).
//!
//! SEG is the largest of {8, 4, 2, 1} that fits the budget; pipelines
//! with a `filter` (or `reduce(Count)`) force SEG = 1 because predication
//! masks whole lanes, so each lane must hold exactly one element.
//!
//! ## Lowering rules
//!
//! - `map`/`zip` unroll element-wise over the SEG registers;
//! - each `filter` opens one `if` nesting level and *stays open* for the
//!   rest of the pipeline (later stages execute only on surviving lanes,
//!   like real PIM predication); the innermost level ends with
//!   `f ← v`, so `f` is exactly `validity ∧ all predicates`. A chain of
//!   more than two filters exceeds the two-level mask pool and is
//!   rejected at build time with the offending stage index;
//! - `reduce` closes the nest, masks dead lanes to the fold identity
//!   (predicated on `f == 0`), then runs a log-depth in-register tree;
//!   lanes/members/launches fold on the host, and sharded runs aggregate
//!   per-MPU partials over SEND/RECV first;
//! - `scan` runs log-depth Hillis–Steele rounds per lane segment
//!   (phase 1); the host exclusive-scans the segment totals and a second
//!   launch (phase 2) adds each lane's offset register to its segment.

use crate::pipeline::{MapOp, Pipeline, Pred, ReduceOp, Stage, ZipOp};
use crate::DpError;
use ezpim::{Cond, EzError, EzProgram, Stmt, Top};
use mpu_isa::{BinaryOp, InitValue, Instruction, Program, RegId, UnaryOp};
use std::collections::BTreeSet;

/// Writable architectural registers (r0–r9): r10–r13 are the ezpim mask
/// pool and r14/r15 are recipe temporaries.
pub const WRITABLE_REGS: usize = 10;

/// Mask-pool nesting levels the default ezpim pool supports.
pub const MASK_LEVELS: usize = 2;

/// The phase-2 (scan offset fixup) program of a two-launch scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2 {
    /// Host-computed per-lane segment offset, loaded as an input.
    pub offset: RegId,
    /// The fixup body: `d_k += offset` for every segment register.
    pub body: Vec<Stmt>,
}

/// A fully lowered pipeline: register assignments plus the compute body.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// Elements per lane (segment length).
    pub seg: usize,
    /// The SEG primary-column data registers.
    pub data: Vec<RegId>,
    /// Per zip column: `(column index, SEG registers)`.
    pub zips: Vec<(usize, Vec<RegId>)>,
    /// Broadcast immediates: `(register, value)`.
    pub consts: Vec<(RegId, u64)>,
    /// Scratch register for MUL results (also the SEND/RECV landing slot
    /// for sharded reductions when no data register is free).
    pub scratch: Option<RegId>,
    /// Host-loaded validity column (flag path only).
    pub valid: Option<RegId>,
    /// The computed keep flag (flag path only).
    pub flag: Option<RegId>,
    /// The phase-1 compute body.
    pub body: Vec<Stmt>,
    /// The phase-2 scan fixup, when the pipeline ends in an unfiltered
    /// scan.
    pub phase2: Option<Phase2>,
    /// The terminal stage, if any.
    pub terminal: Option<Stage>,
}

fn r(i: usize) -> RegId {
    RegId(i as u16)
}

fn binary(op: BinaryOp, rs: RegId, rt: RegId, rd: RegId) -> Stmt {
    Stmt::Op(Instruction::Binary { op, rs, rt, rd })
}

fn unary(op: UnaryOp, rs: RegId, rd: RegId) -> Stmt {
    Stmt::Op(Instruction::Unary { op, rs, rd })
}

fn init0(rd: RegId) -> Stmt {
    Stmt::Op(Instruction::Init { value: InitValue::Zero, rd })
}

fn init1(rd: RegId) -> Stmt {
    Stmt::Op(Instruction::Init { value: InitValue::One, rd })
}

impl ReduceOp {
    /// Statements writing this op's fold identity into `rd`.
    fn identity_stmts(self, rd: RegId) -> Vec<Stmt> {
        if self.identity() == 0 {
            vec![init0(rd)]
        } else {
            // All-ones: zero then invert.
            vec![init0(rd), unary(UnaryOp::Inv, rd, rd)]
        }
    }

    /// The combining ALU op of the reduction tree.
    fn binary_op(self) -> BinaryOp {
        match self {
            ReduceOp::Sum | ReduceOp::Count => BinaryOp::Add,
            ReduceOp::Min => BinaryOp::Min,
            ReduceOp::Max => BinaryOp::Max,
            ReduceOp::And => BinaryOp::And,
            ReduceOp::Or => BinaryOp::Or,
            ReduceOp::Xor => BinaryOp::Xor,
        }
    }
}

struct Ctx {
    seg: usize,
    data: Vec<RegId>,
    zip_cols: Vec<usize>,
    zip_regs: Vec<Vec<RegId>>,
    consts: Vec<(RegId, u64)>,
    scratch: Option<RegId>,
    valid: Option<RegId>,
    flag: Option<RegId>,
    has_filters: bool,
}

impl Ctx {
    fn creg(&self, value: u64) -> RegId {
        self.consts
            .iter()
            .find(|(_, v)| *v == value)
            .map(|(reg, _)| *reg)
            .expect("constant was collected during allocation")
    }

    fn zreg(&self, column: usize, k: usize) -> RegId {
        let pos = self.zip_cols.iter().position(|&c| c == column).expect("zip column allocated");
        self.zip_regs[pos][k]
    }

    fn map_stmts(&self, op: MapOp, d: RegId) -> Vec<Stmt> {
        let t = self.scratch;
        match op {
            MapOp::Add(c) => vec![binary(BinaryOp::Add, d, self.creg(c), d)],
            MapOp::Sub(c) => vec![binary(BinaryOp::Sub, d, self.creg(c), d)],
            MapOp::Mul(c) => {
                let t = t.expect("mul reserves scratch");
                vec![binary(BinaryOp::Mul, d, self.creg(c), t), unary(UnaryOp::Mov, t, d)]
            }
            MapOp::And(c) => vec![binary(BinaryOp::And, d, self.creg(c), d)],
            MapOp::Or(c) => vec![binary(BinaryOp::Or, d, self.creg(c), d)],
            MapOp::Xor(c) => vec![binary(BinaryOp::Xor, d, self.creg(c), d)],
            MapOp::Min(c) => vec![binary(BinaryOp::Min, d, self.creg(c), d)],
            MapOp::Max(c) => vec![binary(BinaryOp::Max, d, self.creg(c), d)],
            MapOp::Eq(c) => {
                vec![Stmt::If(Cond::Eq(d, self.creg(c)), vec![init1(d)], Some(vec![init0(d)]))]
            }
            MapOp::Not => vec![unary(UnaryOp::Inv, d, d)],
            MapOp::Popc => vec![unary(UnaryOp::Popc, d, d)],
            MapOp::Shl1 => vec![unary(UnaryOp::LShift, d, d)],
        }
    }

    fn zip_stmts(&self, op: ZipOp, d: RegId, z: RegId) -> Vec<Stmt> {
        match op {
            ZipOp::Add => vec![binary(BinaryOp::Add, d, z, d)],
            ZipOp::Sub => vec![binary(BinaryOp::Sub, d, z, d)],
            ZipOp::Mul => {
                let t = self.scratch.expect("mul reserves scratch");
                vec![binary(BinaryOp::Mul, d, z, t), unary(UnaryOp::Mov, t, d)]
            }
            ZipOp::Min => vec![binary(BinaryOp::Min, d, z, d)],
            ZipOp::Max => vec![binary(BinaryOp::Max, d, z, d)],
            ZipOp::And => vec![binary(BinaryOp::And, d, z, d)],
            ZipOp::Or => vec![binary(BinaryOp::Or, d, z, d)],
            ZipOp::Xor => vec![binary(BinaryOp::Xor, d, z, d)],
        }
    }

    fn pred_cond(&self, pred: Pred, d: RegId) -> Cond {
        match pred {
            Pred::Gt(c) => Cond::Gt(d, self.creg(c)),
            Pred::Lt(c) => Cond::Lt(d, self.creg(c)),
            Pred::Eq(c) => Cond::Eq(d, self.creg(c)),
        }
    }

    /// Lowers `body[idx..]`; each filter nests the remainder inside its
    /// `if`, and the innermost point marks survivors with `f ← v`.
    fn lower_from(&self, body: &[Stage], idx: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        for (i, &stage) in body.iter().enumerate().skip(idx) {
            match stage {
                Stage::Map(op) => {
                    for k in 0..self.seg {
                        out.extend(self.map_stmts(op, self.data[k]));
                    }
                }
                Stage::Zip { column, op } => {
                    for k in 0..self.seg {
                        out.extend(self.zip_stmts(op, self.data[k], self.zreg(column, k)));
                    }
                }
                Stage::Filter(pred) => {
                    let cond = self.pred_cond(pred, self.data[0]);
                    out.push(Stmt::If(cond, self.lower_from(body, i + 1), None));
                    return out;
                }
                Stage::Scan(_) | Stage::Reduce(_) => unreachable!("terminal stripped from body"),
            }
        }
        if self.has_filters {
            let (v, f) = (self.valid.unwrap(), self.flag.unwrap());
            out.push(unary(UnaryOp::Mov, v, f));
        }
        out
    }
}

impl Pipeline {
    /// Lowers the pipeline: allocates registers, checks the mask-pool
    /// budget, and produces the ezpim statement body (plus the phase-2
    /// fixup for two-launch scans).
    ///
    /// # Errors
    ///
    /// [`DpError::TerminalNotLast`], [`DpError::MaskPoolExhausted`] (with
    /// the offending stage index), or [`DpError::RegisterPressure`].
    pub fn lower(&self) -> Result<Lowered, DpError> {
        let columns = self
            .stages()
            .iter()
            .filter_map(|s| match s {
                Stage::Zip { column, .. } => Some(column + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let terminal = self.validate(columns)?;

        // Mask-depth pre-check: each filter holds a level open for the
        // rest of the pipeline; an Eq map needs one transient level.
        let mut open = 0usize;
        for (i, &stage) in self.stages().iter().enumerate() {
            let needs = match stage {
                Stage::Filter(_) => {
                    open += 1;
                    open
                }
                Stage::Map(MapOp::Eq(_)) => open + 1,
                _ => continue,
            };
            if needs > MASK_LEVELS {
                return Err(DpError::MaskPoolExhausted { stage: i });
            }
        }
        let has_filters = open > 0;

        let is_count = terminal == Some(Stage::Reduce(ReduceOp::Count));
        let flagged = has_filters || is_count;
        // An unflagged reduce still needs a validity column: padding
        // lanes pass through the map/zip stages, so their values are NOT
        // the fold identity — they are masked to it on-device, and the
        // host folds the ragged (< SEG) tail itself.
        let reduce_mask = matches!(terminal, Some(Stage::Reduce(_))) && !flagged;
        let needs_scratch = self
            .stages()
            .iter()
            .any(|s| matches!(s, Stage::Map(MapOp::Mul(_)) | Stage::Zip { op: ZipOp::Mul, .. }));

        // Broadcast immediates, plus 0 for the dead-lane identity mask.
        let mut const_vals: BTreeSet<u64> = BTreeSet::new();
        for &stage in self.stages() {
            match stage {
                Stage::Map(
                    MapOp::Add(c)
                    | MapOp::Sub(c)
                    | MapOp::Mul(c)
                    | MapOp::And(c)
                    | MapOp::Or(c)
                    | MapOp::Xor(c)
                    | MapOp::Min(c)
                    | MapOp::Max(c)
                    | MapOp::Eq(c),
                )
                | Stage::Filter(Pred::Gt(c) | Pred::Lt(c) | Pred::Eq(c)) => {
                    const_vals.insert(c);
                }
                _ => {}
            }
        }
        if reduce_mask || (flagged && terminal.is_some() && !is_count) {
            const_vals.insert(0);
        }

        let zip_cols: Vec<usize> = {
            let mut seen = Vec::new();
            for &stage in self.stages() {
                if let Stage::Zip { column, .. } = stage {
                    if !seen.contains(&column) {
                        seen.push(column);
                    }
                }
            }
            seen
        };

        let per_elem = 1 + zip_cols.len();
        let valid_needed = flagged || reduce_mask;
        let fixed = const_vals.len()
            + usize::from(needs_scratch)
            + usize::from(valid_needed)
            + usize::from(flagged);
        let seg = if flagged {
            1
        } else {
            [8usize, 4, 2, 1]
                .into_iter()
                .find(|s| s * per_elem + fixed <= WRITABLE_REGS)
                .unwrap_or(1)
        };
        let needed = seg * per_elem + fixed;
        if needed > WRITABLE_REGS {
            return Err(DpError::RegisterPressure { needed, available: WRITABLE_REGS });
        }

        // Assign registers in layout order.
        let mut next = 0usize;
        let mut take = |n: usize| {
            let base = next;
            next += n;
            (base..base + n).map(r).collect::<Vec<_>>()
        };
        let data = take(seg);
        let zip_regs: Vec<Vec<RegId>> = zip_cols.iter().map(|_| take(seg)).collect();
        let const_regs = take(const_vals.len());
        let consts: Vec<(RegId, u64)> =
            const_regs.into_iter().zip(const_vals.iter().copied()).collect();
        let scratch = needs_scratch.then(|| take(1)[0]);
        let valid = valid_needed.then(|| take(1)[0]);
        let flag = flagged.then(|| take(1)[0]);

        let ctx = Ctx {
            seg,
            data: data.clone(),
            zip_cols: zip_cols.clone(),
            zip_regs: zip_regs.clone(),
            consts: consts.clone(),
            scratch,
            valid,
            flag,
            has_filters,
        };

        // Phase-1 body: prelude, the (possibly nested) stage walk, then
        // the terminal.
        let body_end = self.stages().len() - usize::from(terminal.is_some());
        let mut stmts = Vec::new();
        if flagged {
            let (v, f) = (valid.unwrap(), flag.unwrap());
            if has_filters {
                stmts.push(init0(f));
            } else {
                stmts.push(unary(UnaryOp::Mov, v, f));
            }
        }
        stmts.extend(ctx.lower_from(&self.stages()[..body_end], 0));

        let mut phase2 = None;
        match terminal {
            Some(Stage::Reduce(op)) => {
                let d0 = data[0];
                if flagged {
                    let f = flag.unwrap();
                    if is_count {
                        stmts.push(unary(UnaryOp::Mov, f, d0));
                    } else {
                        stmts.push(Stmt::If(Cond::Eq(f, ctx.creg(0)), op.identity_stmts(d0), None));
                    }
                } else {
                    // Lanes without a fully-real segment fold as the
                    // identity; the host picks up their real elements.
                    let v = valid.unwrap();
                    let identity = (0..seg).flat_map(|k| op.identity_stmts(data[k])).collect();
                    stmts.push(Stmt::If(Cond::Eq(v, ctx.creg(0)), identity, None));
                }
                // Log-depth in-register tree into d0.
                let alu = op.binary_op();
                let mut gap = 1;
                while gap < seg {
                    let mut i = 0;
                    while i + gap < seg {
                        stmts.push(binary(alu, data[i + gap], data[i], data[i]));
                        i += 2 * gap;
                    }
                    gap *= 2;
                }
            }
            Some(Stage::Scan(_)) => {
                if flagged {
                    // Dead lanes contribute the sum identity; the host
                    // completes the scan (see exec).
                    let f = flag.unwrap();
                    stmts.push(Stmt::If(Cond::Eq(f, ctx.creg(0)), vec![init0(data[0])], None));
                } else {
                    // Log-depth Hillis–Steele inclusive scan per segment;
                    // descending i so each round reads pre-round values.
                    let mut d = 1;
                    while d < seg {
                        for i in (d..seg).rev() {
                            stmts.push(binary(BinaryOp::Add, data[i - d], data[i], data[i]));
                        }
                        d *= 2;
                    }
                    let offset = r(seg);
                    let fixup =
                        (0..seg).map(|k| binary(BinaryOp::Add, offset, data[k], data[k])).collect();
                    phase2 = Some(Phase2 { offset, body: fixup });
                }
            }
            _ => {}
        }

        Ok(Lowered {
            seg,
            data,
            zips: zip_cols.into_iter().zip(zip_regs).collect(),
            consts,
            scratch,
            valid,
            flag,
            body: stmts,
            phase2,
            terminal,
        })
    }
}

pub(crate) fn sim(e: EzError) -> DpError {
    DpError::Sim(e.to_string())
}

/// An ezpim program that opens with one ensemble running `body` over
/// `members`; sharded runs append their SEND/RECV traffic to it.
pub(crate) fn ensemble(members: &[(u16, u16)], body: &[Stmt]) -> Result<EzProgram, DpError> {
    let mut ez = EzProgram::new();
    ez.ensemble(members, |b| b.emit(body)).map_err(sim)?;
    Ok(ez)
}

impl Lowered {
    /// The phase-1 compute program over `members`.
    ///
    /// # Errors
    ///
    /// [`DpError::Sim`] if ezpim rejects the body (pre-validated, so
    /// effectively unreachable).
    pub fn program(&self, members: &[(u16, u16)]) -> Result<Program, DpError> {
        ensemble(members, &self.body)?.assemble().map_err(sim)
    }

    /// The phase-2 fixup program, for two-launch scans.
    ///
    /// # Errors
    ///
    /// [`DpError::Sim`] as for [`Lowered::program`].
    pub fn phase2_program(&self, members: &[(u16, u16)]) -> Result<Option<Program>, DpError> {
        self.phase2
            .as_ref()
            .map(|p| ensemble(members, &p.body)?.assemble().map_err(sim))
            .transpose()
    }

    /// The phase-1 program as ezpim text (parses and assembles back to
    /// exactly [`Lowered::program`]; the round-trip is property-tested).
    pub fn ezpim_text(&self, members: &[(u16, u16)]) -> String {
        Top::Ensemble(members.to_vec(), self.body.clone()).to_string()
    }

    /// The phase-2 program as ezpim text.
    pub fn phase2_text(&self, members: &[(u16, u16)]) -> Option<String> {
        self.phase2.as_ref().map(|p| Top::Ensemble(members.to_vec(), p.body.clone()).to_string())
    }

    /// Registers the host reads back per member: the data segment, plus
    /// the keep flag on the flag path.
    pub fn output_regs(&self, members: &[(u16, u16)]) -> Vec<(u16, u16, u8)> {
        let mut regs: Vec<u8> = self.data.iter().map(|d| d.0 as u8).collect();
        if let Some(f) = self.flag {
            regs.push(f.0 as u8);
        }
        members
            .iter()
            .flat_map(|&(rfh, vrf)| regs.iter().map(move |&reg| (rfh, vrf, reg)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ScanOp;

    #[test]
    fn three_filters_exhaust_the_pool_at_build_time() {
        let p = Pipeline::new()
            .filter(Pred::Gt(1))
            .filter(Pred::Gt(2))
            .filter(Pred::Gt(3))
            .reduce(ReduceOp::Sum);
        assert_eq!(p.lower(), Err(DpError::MaskPoolExhausted { stage: 2 }));
    }

    #[test]
    fn eq_map_under_two_filters_exhausts_the_pool() {
        let p = Pipeline::new().filter(Pred::Gt(1)).filter(Pred::Gt(2)).map(MapOp::Eq(5));
        assert_eq!(p.lower(), Err(DpError::MaskPoolExhausted { stage: 2 }));
    }

    #[test]
    fn seg_widens_without_filters_and_narrows_with_zips() {
        let plain = Pipeline::new().map(MapOp::Add(1)).lower().unwrap();
        assert_eq!(plain.seg, 8);
        let zipped = Pipeline::new().zip(0, ZipOp::Add).lower().unwrap();
        assert_eq!(zipped.seg, 4); // 2 columns × 4 regs + 0 consts
        let filtered = Pipeline::new().filter(Pred::Gt(0)).lower().unwrap();
        assert_eq!(filtered.seg, 1);
        assert!(filtered.valid.is_some() && filtered.flag.is_some());
    }

    #[test]
    fn scan_lowers_to_two_phases() {
        let p = Pipeline::new().scan(ScanOp::Sum).lower().unwrap();
        assert_eq!(p.seg, 8);
        let phase2 = p.phase2.expect("unfiltered scan is two-launch");
        assert_eq!(phase2.body.len(), 8);
    }

    #[test]
    fn lowered_program_assembles() {
        let p = Pipeline::new()
            .map(MapOp::And(3))
            .filter(Pred::Eq(3))
            .reduce(ReduceOp::Count)
            .lower()
            .unwrap();
        let program = p.program(&[(0, 0), (1, 0)]).unwrap();
        assert!(program.len() > 4);
    }

    #[test]
    fn text_round_trips_through_the_parser() {
        let p = Pipeline::new().map(MapOp::Eq(7)).zip(0, ZipOp::Add).lower().unwrap();
        let members = [(0u16, 0u16), (1, 0)];
        let text = p.ezpim_text(&members);
        let parsed = ezpim::parse(&text).unwrap().assemble().unwrap();
        assert_eq!(parsed, p.program(&members).unwrap());
    }
}
