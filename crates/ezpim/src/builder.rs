//! The ezpim builder API: structured MPU programs with high-level control
//! flow, lowered to Table II instructions exactly as the paper's Fig. 7
//! describes (predication via the conditional register, `GETMASK`/`SETMASK`
//! mask arithmetic for arbitrary nesting, `JUMP_COND` dynamic loops,
//! `JUMP`/`RETURN` subroutines).

use mpu_isa::{
    BinaryOp, CompareOp, InitValue, Instruction, LineNum, MpuId, Program, RegId, RfhId, UnaryOp,
    VrfId, COND_REG,
};
use std::collections::HashMap;
use std::fmt;

/// A condition usable in `if`/`while` constructs; evaluates into the
/// conditional register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `rs == rt`.
    Eq(RegId, RegId),
    /// `rs > rt` (unsigned).
    Gt(RegId, RegId),
    /// `rs < rt` (unsigned).
    Lt(RegId, RegId),
    /// Fuzzy equality, skipping bit positions set in the third register.
    Fuzzy(RegId, RegId, RegId),
}

impl Cond {
    fn instruction(self) -> Instruction {
        match self {
            Cond::Eq(rs, rt) => Instruction::Compare { op: CompareOp::Eq, rs, rt },
            Cond::Gt(rs, rt) => Instruction::Compare { op: CompareOp::Gt, rs, rt },
            Cond::Lt(rs, rt) => Instruction::Compare { op: CompareOp::Lt, rs, rt },
            Cond::Fuzzy(rs, rt, rd) => Instruction::Fuzzy { rs, rt, rd },
        }
    }
}

/// Errors raised while building or assembling an ezpim program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EzError {
    /// Ran out of mask-save registers for the requested nesting depth,
    /// reported at build time (the offending construct's body closure is
    /// skipped, so no partially predicated program can escape).
    MaskPoolExhausted {
        /// Nesting depth of the construct that could not be allocated
        /// (1 = outermost `if`/`while`).
        depth: usize,
    },
    /// `call` names a subroutine that was never defined.
    UnknownSubroutine(String),
    /// A multi-step instruction aliases its destination with a source.
    RegisterAliasing {
        /// The offending mnemonic.
        mnemonic: &'static str,
    },
    /// The assembled program failed ISA validation (builder bug guard).
    Invalid(String),
    /// A subroutine was defined twice.
    DuplicateSubroutine(String),
}

impl fmt::Display for EzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EzError::MaskPoolExhausted { depth } => {
                write!(f, "mask register pool exhausted at nesting depth {depth}")
            }
            EzError::UnknownSubroutine(name) => write!(f, "unknown subroutine `{name}`"),
            EzError::RegisterAliasing { mnemonic } => {
                write!(f, "{mnemonic}: destination register aliases a source")
            }
            EzError::Invalid(m) => write!(f, "assembled program invalid: {m}"),
            EzError::DuplicateSubroutine(name) => {
                write!(f, "subroutine `{name}` defined twice")
            }
        }
    }
}

impl std::error::Error for EzError {}

/// One item of a block; local jump targets are resolved at assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    Instr(Instruction),
    /// `JUMP_COND` to a block-local index.
    JumpCondLocal(usize),
    /// `JUMP` to a named subroutine.
    Call(String),
}

/// A structured MPU program under construction.
///
/// # Example
///
/// ```
/// use ezpim::{Cond, EzProgram};
/// use mpu_isa::RegId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ez = EzProgram::new();
/// ez.ensemble(&[(0, 0)], |b| {
///     // while (r0 > r1) { r0 -= r2; }
///     b.while_loop(Cond::Gt(RegId(0), RegId(1)), |b| {
///         b.sub(RegId(0), RegId(2), RegId(0));
///     });
/// })?;
/// let program = ez.assemble()?;
/// assert!(program.len() > 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EzProgram {
    main: Vec<Item>,
    subroutines: Vec<(String, Vec<Item>)>,
    mask_pool: Vec<RegId>,
    statements: usize,
    dynamic_loops: usize,
}

impl Default for EzProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl EzProgram {
    /// Creates a program with the default mask-register pool
    /// (`r13..r10`, supporting two nesting levels).
    pub fn new() -> Self {
        Self::with_mask_pool(vec![RegId(13), RegId(12), RegId(11), RegId(10)])
    }

    /// Creates a program with an explicit mask-save register pool. Each
    /// `if`/`while` nesting level consumes two registers from the pool for
    /// the duration of the construct.
    pub fn with_mask_pool(mask_pool: Vec<RegId>) -> Self {
        Self {
            main: Vec::new(),
            subroutines: Vec::new(),
            mask_pool,
            statements: 0,
            dynamic_loops: 0,
        }
    }

    /// Number of high-level statements written so far (the "ezpim lines of
    /// code" metric of Table IV).
    pub fn statements(&self) -> usize {
        self.statements
    }

    /// Number of hardware dynamic loops (`while`/`for`) written so far.
    /// Their trip counts are data-dependent — statically unbounded — so a
    /// host admitting foreign programs uses this count for loop-bound
    /// ceilings (reject, or arm
    /// `mastodon::RecoveryPolicy::watchdog_instructions` at run time).
    /// Statically unrolled [`Body::repeat`] bodies are not counted.
    pub fn dynamic_loops(&self) -> usize {
        self.dynamic_loops
    }

    /// Opens a compute ensemble over `(rfh, vrf)` members and builds its
    /// body.
    ///
    /// # Errors
    ///
    /// Propagates body-construction errors (mask pool exhaustion,
    /// aliasing).
    pub fn ensemble(
        &mut self,
        members: &[(u16, u16)],
        f: impl FnOnce(&mut Body<'_>),
    ) -> Result<&mut Self, EzError> {
        self.statements += 1;
        for &(rfh, vrf) in members {
            self.main.push(Item::Instr(Instruction::Compute { rfh: RfhId(rfh), vrf: VrfId(vrf) }));
        }
        let mut pool = std::mem::take(&mut self.mask_pool);
        let mut body = Body {
            items: &mut self.main,
            pool: &mut pool,
            depth: 0,
            statements: &mut self.statements,
            dynamic_loops: &mut self.dynamic_loops,
            error: None,
        };
        f(&mut body);
        let error = body.error.take();
        self.mask_pool = pool;
        if let Some(e) = error {
            return Err(e);
        }
        self.main.push(Item::Instr(Instruction::ComputeDone));
        Ok(self)
    }

    /// Opens a transfer ensemble with `(src_rfh, dst_rfh)` pairs.
    pub fn transfer(
        &mut self,
        pairs: &[(u16, u16)],
        f: impl FnOnce(&mut Transfer<'_>),
    ) -> &mut Self {
        self.statements += 1;
        for &(src, dst) in pairs {
            self.main.push(Item::Instr(Instruction::Move { src: RfhId(src), dst: RfhId(dst) }));
        }
        let mut t = Transfer { items: &mut self.main, statements: &mut self.statements };
        f(&mut t);
        self.main.push(Item::Instr(Instruction::MoveDone));
        self
    }

    /// Opens a `SEND` block targeting MPU `dst`; the closure adds one or
    /// more move blocks.
    pub fn send(&mut self, dst: u16, f: impl FnOnce(&mut SendBlock<'_>)) -> &mut Self {
        self.statements += 1;
        self.main.push(Item::Instr(Instruction::Send { dst: MpuId(dst) }));
        let mut s = SendBlock { items: &mut self.main, statements: &mut self.statements };
        f(&mut s);
        self.main.push(Item::Instr(Instruction::SendDone));
        self
    }

    /// Emits `RECV` from MPU `src`.
    pub fn recv(&mut self, src: u16) -> &mut Self {
        self.statements += 1;
        self.main.push(Item::Instr(Instruction::Recv { src: MpuId(src) }));
        self
    }

    /// Emits `MPU_SYNC`.
    pub fn sync(&mut self) -> &mut Self {
        self.statements += 1;
        self.main.push(Item::Instr(Instruction::MpuSync));
        self
    }

    /// Defines a named subroutine (placed after `main`; reached only via
    /// [`Body::call`]).
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or body-construction errors.
    pub fn subroutine(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Body<'_>),
    ) -> Result<&mut Self, EzError> {
        if self.subroutines.iter().any(|(n, _)| n == name) {
            return Err(EzError::DuplicateSubroutine(name.to_string()));
        }
        self.statements += 1;
        let mut items = Vec::new();
        let mut pool = std::mem::take(&mut self.mask_pool);
        let mut body = Body {
            items: &mut items,
            pool: &mut pool,
            depth: 0,
            statements: &mut self.statements,
            dynamic_loops: &mut self.dynamic_loops,
            error: None,
        };
        f(&mut body);
        let error = body.error.take();
        self.mask_pool = pool;
        if let Some(e) = error {
            return Err(e);
        }
        items.push(Item::Instr(Instruction::Return));
        self.subroutines.push((name.to_string(), items));
        Ok(self)
    }

    /// Assembles the structured program into a validated [`Program`]:
    /// `main`, a top-level `RETURN` halt, then the subroutine bodies,
    /// with all jump targets resolved.
    ///
    /// # Errors
    ///
    /// Fails on calls to unknown subroutines or (which would indicate an
    /// ezpim bug) ISA validation errors.
    pub fn assemble(&self) -> Result<Program, EzError> {
        // Layout: main at 0, halt, then each subroutine.
        let mut bases: HashMap<&str, usize> = HashMap::new();
        let mut cursor = self.main.len() + 1; // +1 for the halt RETURN
        for (name, items) in &self.subroutines {
            bases.insert(name.as_str(), cursor);
            cursor += items.len();
        }
        fn emit_block(
            out: &mut Vec<Instruction>,
            bases: &HashMap<&str, usize>,
            items: &[Item],
            base: usize,
        ) -> Result<(), EzError> {
            for item in items {
                let instr = match item {
                    Item::Instr(i) => *i,
                    Item::JumpCondLocal(local) => {
                        Instruction::JumpCond { target: LineNum((base + local) as u32) }
                    }
                    Item::Call(name) => {
                        let target = bases
                            .get(name.as_str())
                            .ok_or_else(|| EzError::UnknownSubroutine(name.clone()))?;
                        Instruction::Jump { target: LineNum(*target as u32) }
                    }
                };
                out.push(instr);
            }
            Ok(())
        }
        let mut out: Vec<Instruction> = Vec::with_capacity(cursor);
        emit_block(&mut out, &bases, &self.main, 0)?;
        out.push(Instruction::Return); // halt convention
        let mut base = self.main.len() + 1;
        for (_, items) in &self.subroutines {
            emit_block(&mut out, &bases, items, base)?;
            base += items.len();
        }
        let program = Program::from_instructions(out);
        program.validate().map_err(|e| EzError::Invalid(e.to_string()))?;
        Ok(program)
    }
}

/// Builder for compute-ensemble (or subroutine) bodies.
#[derive(Debug)]
pub struct Body<'a> {
    items: &'a mut Vec<Item>,
    pool: &'a mut Vec<RegId>,
    /// Current predication nesting depth, so pool exhaustion reports the
    /// depth of the construct that failed rather than the registers left.
    depth: usize,
    statements: &'a mut usize,
    dynamic_loops: &'a mut usize,
    error: Option<EzError>,
}

macro_rules! binary_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rs: RegId, rt: RegId, rd: RegId) -> &mut Self {
                self.op(Instruction::Binary { op: $op, rs, rt, rd })
            }
        )*
    };
}

macro_rules! unary_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rs: RegId, rd: RegId) -> &mut Self {
                self.op(Instruction::Unary { op: $op, rs, rd })
            }
        )*
    };
}

impl Body<'_> {
    fn fail(&mut self, e: EzError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Emits a raw instruction.
    pub fn op(&mut self, instr: Instruction) -> &mut Self {
        *self.statements += 1;
        // Eagerly reject the aliasing the recipes cannot implement.
        if let Instruction::Binary { op, rs, rt, rd } = instr {
            if op.rd_excludes_sources() && (rd == rs || rd == rt) {
                self.fail(EzError::RegisterAliasing { mnemonic: op.mnemonic() });
                return self;
            }
        }
        self.items.push(Item::Instr(instr));
        self
    }

    binary_methods! {
        /// `rd = rs + rt`.
        add => BinaryOp::Add;
        /// `rd = rs - rt`.
        sub => BinaryOp::Sub;
        /// `rd = rs * rt` (8/16/32-bit inputs).
        mul => BinaryOp::Mul;
        /// `rd += rs * rt`.
        mac => BinaryOp::Mac;
        /// `rd = rs / rt` (quotient).
        qdiv => BinaryOp::QDiv;
        /// `rd = rs / rt`, remainder overwrites `rt`.
        qrdiv => BinaryOp::QRDiv;
        /// `rd = rs % rt`.
        rdiv => BinaryOp::RDiv;
        /// `rd = rs & rt`.
        and => BinaryOp::And;
        /// `rd = !(rs & rt)`.
        nand => BinaryOp::Nand;
        /// `rd = !(rs | rt)`.
        nor => BinaryOp::Nor;
        /// `rd = rs | rt`.
        or => BinaryOp::Or;
        /// `rd = rs ^ rt`.
        xor => BinaryOp::Xor;
        /// `rd = !(rs ^ rt)`.
        xnor => BinaryOp::Xnor;
        /// Bitwise select: `rd = (rd & rs) | (!rd & rt)`.
        mux => BinaryOp::Mux;
        /// `rd = max(rs, rt)` (unsigned).
        max => BinaryOp::Max;
        /// `rd = min(rs, rt)` (unsigned).
        min => BinaryOp::Min;
    }

    unary_methods! {
        /// `rd = rs + 1`.
        inc => UnaryOp::Inc;
        /// `rd = popcount(rs)`.
        popc => UnaryOp::Popc;
        /// `rd = max(rs, 0)` (two's complement).
        relu => UnaryOp::Relu;
        /// `rd = !rs`.
        inv => UnaryOp::Inv;
        /// `rd = reverse_bits(rs)`.
        bflip => UnaryOp::BFlip;
        /// `rd = rs << 1`.
        lshift => UnaryOp::LShift;
        /// `rd = rs`.
        mov => UnaryOp::Mov;
    }

    /// `rd = 0` in every lane.
    pub fn init0(&mut self, rd: RegId) -> &mut Self {
        self.op(Instruction::Init { value: InitValue::Zero, rd })
    }

    /// `rd = 1` in every lane.
    pub fn init1(&mut self, rd: RegId) -> &mut Self {
        self.op(Instruction::Init { value: InitValue::One, rd })
    }

    /// Per-lane sort: after this, `rs` holds the smaller and `rt` the
    /// larger value.
    pub fn cas(&mut self, rs: RegId, rt: RegId) -> &mut Self {
        self.op(Instruction::Cas { rs, rt })
    }

    /// Emits a bare comparison (conditional register result), for uses
    /// outside structured control flow.
    pub fn cmp(&mut self, cond: Cond) -> &mut Self {
        self.op(cond.instruction())
    }

    /// Calls a named subroutine (resolved at assembly).
    pub fn call(&mut self, name: &str) -> &mut Self {
        *self.statements += 1;
        self.items.push(Item::Call(name.to_string()));
        self
    }

    /// Inserts a pipeline bubble.
    pub fn nop(&mut self) -> &mut Self {
        self.op(Instruction::Nop)
    }

    fn alloc_mask_regs(&mut self) -> Option<(RegId, RegId)> {
        let ro = self.pool.pop();
        let rm = self.pool.pop();
        match (ro, rm) {
            (Some(ro), Some(rm)) => {
                self.depth += 1;
                Some((ro, rm))
            }
            (ro, _) => {
                if let Some(r) = ro {
                    self.pool.push(r);
                }
                self.fail(EzError::MaskPoolExhausted { depth: self.depth + 1 });
                None
            }
        }
    }

    fn release_mask_regs(&mut self, ro: RegId, rm: RegId) {
        self.depth -= 1;
        self.pool.push(rm);
        self.pool.push(ro);
    }

    /// Emits the nesting-safe mask intersection prologue (Fig. 7c):
    /// captures the enclosing mask in `ro`, evaluates `cond`, and sets
    /// the mask to `enclosing AND cond` (materialized in `rm`).
    fn begin_predicated(&mut self, cond: Cond, ro: RegId, rm: RegId) {
        self.items.push(Item::Instr(Instruction::GetMask { rd: ro }));
        self.items.push(Item::Instr(cond.instruction()));
        self.items.push(Item::Instr(Instruction::SetMask { rs: COND_REG }));
        self.items.push(Item::Instr(Instruction::GetMask { rd: rm }));
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::Binary {
            op: BinaryOp::And,
            rs: rm,
            rt: ro,
            rd: rm,
        }));
        self.items.push(Item::Instr(Instruction::SetMask { rs: rm }));
    }

    /// `if (cond) { then }` with per-lane predication; nests arbitrarily
    /// within the mask-register pool.
    pub fn if_then(&mut self, cond: Cond, then: impl FnOnce(&mut Body<'_>)) -> &mut Self {
        *self.statements += 1;
        let Some((ro, rm)) = self.alloc_mask_regs() else { return self };
        self.begin_predicated(cond, ro, rm);
        then(self);
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::SetMask { rs: ro }));
        self.release_mask_regs(ro, rm);
        self
    }

    /// `if (cond) { then } else { otherwise }` with per-lane predication.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then: impl FnOnce(&mut Body<'_>),
        otherwise: impl FnOnce(&mut Body<'_>),
    ) -> &mut Self {
        *self.statements += 1;
        let Some((ro, rm)) = self.alloc_mask_regs() else { return self };
        self.begin_predicated(cond, ro, rm);
        then(self);
        // Else mask: since rm ⊆ ro, (ro XOR rm) = ro AND NOT rm.
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::Binary {
            op: BinaryOp::Xor,
            rs: rm,
            rt: ro,
            rd: rm,
        }));
        self.items.push(Item::Instr(Instruction::SetMask { rs: rm }));
        otherwise(self);
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::SetMask { rs: ro }));
        self.release_mask_regs(ro, rm);
        self
    }

    /// `while (cond) { body }` — a hardware dynamic loop: lanes leave as
    /// their condition fails, and the EFI exits when all lanes are done
    /// (Fig. 7a).
    pub fn while_loop(&mut self, cond: Cond, body: impl FnOnce(&mut Body<'_>)) -> &mut Self {
        *self.statements += 1;
        *self.dynamic_loops += 1;
        let Some((ro, rm)) = self.alloc_mask_regs() else { return self };
        self.items.push(Item::Instr(Instruction::GetMask { rd: ro }));
        let head = self.items.len();
        self.items.push(Item::Instr(cond.instruction()));
        self.items.push(Item::Instr(Instruction::SetMask { rs: COND_REG }));
        self.items.push(Item::Instr(Instruction::GetMask { rd: rm }));
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::Binary {
            op: BinaryOp::And,
            rs: rm,
            rt: ro,
            rd: rm,
        }));
        self.items.push(Item::Instr(Instruction::SetMask { rs: rm }));
        body(self);
        self.items.push(Item::JumpCondLocal(head));
        self.items.push(Item::Instr(Instruction::Unmask));
        self.items.push(Item::Instr(Instruction::SetMask { rs: ro }));
        self.release_mask_regs(ro, rm);
        self
    }

    /// `for (counter = 0; counter < limit; counter++) { body }` — a
    /// dynamic counted loop using a counter and limit register.
    pub fn for_loop(
        &mut self,
        counter: RegId,
        limit: RegId,
        body: impl FnOnce(&mut Body<'_>),
    ) -> &mut Self {
        *self.statements += 1;
        self.init0(counter);
        self.while_loop(Cond::Lt(counter, limit), |b| {
            body(b);
            b.inc(counter, counter);
        })
    }

    /// Statically unrolled repetition (`n` copies of the body; no loop
    /// hardware involved).
    pub fn repeat(&mut self, n: usize, mut body: impl FnMut(&mut Body<'_>)) -> &mut Self {
        *self.statements += 1;
        for _ in 0..n {
            body(self);
        }
        self
    }
}

/// Builder for transfer-ensemble bodies.
#[derive(Debug)]
pub struct Transfer<'a> {
    items: &'a mut Vec<Item>,
    statements: &'a mut usize,
}

impl Transfer<'_> {
    /// Copies register `rs` of `src_vrf` to register `rd` of `dst_vrf`,
    /// for every RFH pair of the block.
    pub fn memcpy(&mut self, src_vrf: u16, rs: RegId, dst_vrf: u16, rd: RegId) -> &mut Self {
        *self.statements += 1;
        self.items.push(Item::Instr(Instruction::Memcpy {
            src_vrf: VrfId(src_vrf),
            rs,
            dst_vrf: VrfId(dst_vrf),
            rd,
        }));
        self
    }
}

/// Builder for `SEND` blocks (one or more move blocks).
#[derive(Debug)]
pub struct SendBlock<'a> {
    items: &'a mut Vec<Item>,
    statements: &'a mut usize,
}

impl SendBlock<'_> {
    /// Adds a move block with `(local_src_rfh, remote_dst_rfh)` pairs.
    pub fn transfer(
        &mut self,
        pairs: &[(u16, u16)],
        f: impl FnOnce(&mut Transfer<'_>),
    ) -> &mut Self {
        *self.statements += 1;
        for &(src, dst) in pairs {
            self.items.push(Item::Instr(Instruction::Move { src: RfhId(src), dst: RfhId(dst) }));
        }
        let mut t = Transfer { items: self.items, statements: self.statements };
        f(&mut t);
        self.items.push(Item::Instr(Instruction::MoveDone));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> RegId {
        RegId(i)
    }

    #[test]
    fn straight_line_ensemble_assembles() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0), (1, 0)], |b| {
            b.add(r(0), r(1), r(2)).sub(r(2), r(1), r(3));
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        assert_eq!(p.len(), 2 + 2 + 1 + 1); // headers + body + footer + halt
        assert_eq!(p[0], Instruction::Compute { rfh: RfhId(0), vrf: VrfId(0) });
        assert_eq!(p[4], Instruction::ComputeDone);
        assert_eq!(p[5], Instruction::Return);
    }

    #[test]
    fn while_loop_lowered_like_fig7a() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.while_loop(Cond::Gt(r(0), r(1)), |b| {
                b.sub(r(0), r(2), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let text = p.to_string();
        assert!(text.contains("CMPGT"));
        assert!(text.contains("SETMASK r63"), "loads conditional register: {text}");
        assert!(text.contains("JUMP_COND"));
        assert!(text.contains("UNMASK"));
        // The JUMP_COND targets the comparison at the loop head.
        let jump = p
            .iter()
            .find_map(|i| match i {
                Instruction::JumpCond { target } => Some(target.index()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(p[jump], Instruction::Compare { op: CompareOp::Gt, .. }));
    }

    #[test]
    fn if_else_uses_mask_arithmetic() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.if_else(
                Cond::Eq(r(0), r(1)),
                |b| {
                    b.add(r(0), r(1), r(2));
                },
                |b| {
                    b.sub(r(0), r(1), r(2));
                },
            );
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let text = p.to_string();
        assert!(text.contains("GETMASK"));
        assert!(text.contains("XOR"), "else mask from XOR: {text}");
        assert!(text.matches("SETMASK").count() >= 3);
    }

    #[test]
    fn nesting_allocates_distinct_mask_registers() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.if_then(Cond::Gt(r(0), r(1)), |b| {
                b.if_then(Cond::Lt(r(2), r(3)), |b| {
                    b.add(r(0), r(1), r(4));
                });
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        // Outer level uses r13/r12, inner r11/r10.
        let getmasks: Vec<_> = p
            .iter()
            .filter_map(|i| match i {
                Instruction::GetMask { rd } => Some(rd.0),
                _ => None,
            })
            .collect();
        assert!(getmasks.contains(&13));
        assert!(getmasks.contains(&11));
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let mut ez = EzProgram::with_mask_pool(vec![RegId(13), RegId(12)]);
        let err = ez
            .ensemble(&[(0, 0)], |b| {
                b.if_then(Cond::Gt(r(0), r(1)), |b| {
                    b.if_then(Cond::Lt(r(2), r(3)), |b| {
                        b.nop();
                    });
                });
            })
            .unwrap_err();
        // The inner `if` is the second nesting level: the error must name
        // the nesting depth of the construct that failed to allocate.
        assert_eq!(err, EzError::MaskPoolExhausted { depth: 2 });
    }

    #[test]
    fn pool_exhaustion_depth_counts_nesting_not_leftover_registers() {
        // Four-register pool (two levels): a depth-3 chain fails at 3,
        // even though sibling constructs before it allocated and released.
        let mut ez = EzProgram::new();
        let err = ez
            .ensemble(&[(0, 0)], |b| {
                b.if_then(Cond::Gt(r(0), r(1)), |b| {
                    b.nop();
                });
                b.if_then(Cond::Gt(r(0), r(1)), |b| {
                    b.if_then(Cond::Lt(r(2), r(3)), |b| {
                        b.if_then(Cond::Eq(r(4), r(5)), |b| {
                            b.nop();
                        });
                    });
                });
            })
            .unwrap_err();
        assert_eq!(err, EzError::MaskPoolExhausted { depth: 3 });
    }

    #[test]
    fn subroutine_call_resolves_and_returns() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.call("double");
        })
        .unwrap();
        ez.subroutine("double", |b| {
            b.add(r(0), r(0), r(1));
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        // JUMP lands on the subroutine's first instruction; sub ends RETURN.
        let target = p
            .iter()
            .find_map(|i| match i {
                Instruction::Jump { target } => Some(target.index()),
                _ => None,
            })
            .unwrap();
        assert!(matches!(p[target], Instruction::Binary { op: BinaryOp::Add, .. }));
        assert_eq!(p[p.len() - 1], Instruction::Return);
    }

    #[test]
    fn unknown_subroutine_rejected_at_assembly() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.call("nope");
        })
        .unwrap();
        assert!(matches!(ez.assemble(), Err(EzError::UnknownSubroutine(_))));
    }

    #[test]
    fn duplicate_subroutine_rejected() {
        let mut ez = EzProgram::new();
        ez.subroutine("f", |b| {
            b.nop();
        })
        .unwrap();
        assert!(matches!(
            ez.subroutine("f", |b| {
                b.nop();
            }),
            Err(EzError::DuplicateSubroutine(_))
        ));
    }

    #[test]
    fn aliasing_multiply_rejected() {
        let mut ez = EzProgram::new();
        let err = ez
            .ensemble(&[(0, 0)], |b| {
                b.mul(r(0), r(1), r(0));
            })
            .unwrap_err();
        assert!(matches!(err, EzError::RegisterAliasing { mnemonic: "MUL" }));
    }

    #[test]
    fn dynamic_loop_count_sees_through_sugar() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.while_loop(Cond::Gt(r(0), r(1)), |b| {
                b.sub(r(0), r(2), r(0));
            });
            b.for_loop(r(3), r(4), |b| {
                b.add(r(5), r(2), r(5));
            });
            // Static unrolling is bounded by construction: not counted.
            b.repeat(4, |b| {
                b.add(r(6), r(2), r(6));
            });
        })
        .unwrap();
        assert_eq!(ez.dynamic_loops(), 2, "one while + one for (not the repeat)");

        let mut straight = EzProgram::new();
        straight
            .ensemble(&[(0, 0)], |b| {
                b.add(r(0), r(1), r(2));
            })
            .unwrap();
        assert_eq!(straight.dynamic_loops(), 0);
    }

    #[test]
    fn transfer_and_send_blocks() {
        let mut ez = EzProgram::new();
        ez.transfer(&[(0, 1)], |t| {
            t.memcpy(0, r(0), 0, r(1));
        });
        ez.send(3, |s| {
            s.transfer(&[(0, 2)], |t| {
                t.memcpy(0, r(0), 1, r(0));
            });
        });
        ez.recv(2);
        ez.sync();
        let p = ez.assemble().unwrap();
        let text = p.to_string();
        assert!(text.contains("MOVE h0 h1"));
        assert!(text.contains("SEND mpu3"));
        assert!(text.contains("RECV mpu2"));
        assert!(text.contains("MPU_SYNC"));
    }

    #[test]
    fn statement_count_tracks_high_level_lines() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.while_loop(Cond::Gt(r(0), r(1)), |b| {
                b.sub(r(0), r(2), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        // The high-level program is far smaller than the lowered binary.
        assert!(ez.statements() < p.len());
        assert_eq!(ez.statements(), 3); // ensemble + while + sub
    }

    #[test]
    fn for_loop_counts_iterations() {
        // Functional behaviour is covered by the integration tests with the
        // simulator; here: structural sanity.
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.for_loop(r(5), r(6), |b| {
                b.add(r(0), r(1), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let text = p.to_string();
        assert!(text.contains("INIT0 r5"));
        assert!(text.contains("CMPLT r5 r6"));
        assert!(text.contains("INC r5 r5"));
    }

    #[test]
    fn repeat_unrolls_statically() {
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.repeat(4, |b| {
                b.inc(r(0), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let incs = p.iter().filter(|i| i.mnemonic() == "INC").count();
        assert_eq!(incs, 4);
        assert!(!p.to_string().contains("JUMP_COND"));
    }
}
