//! Instruction → micro-op recipes.
//!
//! The MPU control path's I2M decoder expands each ISA instruction into a
//! *recipe*: a technology-specific micro-op sequence template (paper §VI-B).
//! This module synthesizes those recipes from a backend's [`LogicFamily`],
//! using textbook bit-serial algorithms: ripple-carry addition, shift-add
//! multiplication, restoring division, borrow-chain comparison.
//!
//! Recipes are *functionally exact*: executing a recipe's micro-ops on a
//! [`crate::BitPlaneVrf`] computes the instruction's architectural
//! semantics (defined in [`semantics`]) on every enabled lane. Property
//! tests in this crate verify that equivalence on random data for all
//! three logic families.
//!
//! # Register aliasing
//!
//! Multi-step recipes (`MUL`, `MAC`, `QDIV`, `QRDIV`, `RDIV`) accumulate
//! into their destination and therefore require `rd` to be distinct from
//! the sources; [`build_recipe`] panics otherwise (the `ezpim` assembler
//! enforces this statically). Divisions additionally use two
//! hardware-reserved temporary registers ([`RecipeCtx::temp_regs`]).

use crate::bitplane::Plane;
use crate::datapath::{CostTable, RecipeCost};
use crate::logic::{GateBuilder, LogicFamily};
use crate::microop::MicroOp;
use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp, DATA_BITS};

const W: usize = DATA_BITS as usize;
/// Input width (bits) for `MUL`/`MAC`, per Table II ("only 8-/16-/32-bit
/// inputs"); we model the widest supported case.
pub const MUL_INPUT_BITS: usize = 32;

/// Operand width (bits) for the division family. Like `MUL`, divisions are
/// narrow-operand instructions (bit-serial restoring division costs grow
/// quadratically with width); operands are taken from the low 32 bits and
/// results are zero-extended.
pub const DIV_INPUT_BITS: usize = 32;

/// Context a backend supplies for recipe synthesis.
///
/// `build_recipe` is a pure function of `(RecipeCtx, Instruction)`, so the
/// context doubles as a cache key for cross-simulation recipe sharing
/// (`Hash`/`Eq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecipeCtx {
    /// The backend's native logic family.
    pub family: LogicFamily,
    /// Two architectural registers reserved as recipe temporaries
    /// (division needs a remainder register and a trial-subtraction
    /// register, mapped to buffer rows in real datapaths).
    pub temp_regs: (u8, u8),
    /// Recipe-optimizer configuration (see [`crate::opt`]). Part of the
    /// cache key: recipes optimized under different configurations are
    /// distinct template entries. [`build_recipe`] itself ignores this —
    /// synthesis always emits the unoptimized template; the optimizer runs
    /// as a separate pass in [`crate::DatapathModel::recipe`].
    pub opt: crate::opt::OptConfig,
    /// Per-micro-op costs: the optimizer's objective and the input of
    /// [`RecipeCtx::recipe_cost`].
    pub costs: CostTable,
    /// Bit-stages a warm pipeline overlaps; `None` when the datapath is
    /// not bit-pipelined.
    pub pipeline_depth: Option<u32>,
}

impl RecipeCtx {
    /// The temporary registers this context's recipes may overwrite: the
    /// two [`Self::temp_regs`] for bit-serial families, none for a
    /// word-serial one (its recipes need no temporaries).
    pub fn reserved_temps(&self) -> Option<(RegId, RegId)> {
        let (a, b) = self.temp_regs;
        (!self.family.word_serial()).then_some((RegId(a.into()), RegId(b.into())))
    }

    /// What `recipe` costs under this context on a VRF of `lanes` lanes:
    /// a pure function of the recipe memo key, so every memoized compiled
    /// form carries exactly the costs its key names.
    /// Panics if the recipe issues a kind the context has no cost for.
    pub fn recipe_cost(&self, recipe: &Recipe, lanes: usize) -> RecipeCost {
        let (mut cycles, mut fj_per_lane) = (0, 0);
        for op in recipe.ops() {
            let kind = op.kind();
            let cost = self.costs.get(kind).unwrap_or_else(|| panic!("no cost for {kind}"));
            cycles += u64::from(cost.cycles);
            fj_per_lane += u64::from(cost.fj_per_lane);
        }
        if self.family.word_serial() {
            cycles *= lanes as u64;
        }
        let stage_cycles =
            self.pipeline_depth.map_or(cycles, |depth| (cycles / u64::from(depth)).max(1));
        RecipeCost { cycles, stage_cycles, fj_per_lane }
    }
}

/// A synthesized micro-op sequence implementing one ISA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recipe {
    ops: Vec<MicroOp>,
    scratch_high_water: usize,
    saved_uops: u32,
}

impl Recipe {
    /// The micro-ops, in issue order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Total micro-op count (the paper's "an instruction can expand into
    /// hundreds, if not thousands, of micro-ops").
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty recipe (e.g. `NOP`).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Peak number of simultaneously live scratch planes.
    pub fn scratch_high_water(&self) -> usize {
        self.scratch_high_water
    }

    /// Micro-ops the recipe optimizer removed relative to the synthesized
    /// template this recipe was derived from (zero for unoptimized
    /// recipes). The simulator charges this into `Stats::uops_saved` so
    /// optimization payoffs are visible per wave.
    pub fn saved_uops(&self) -> u32 {
        self.saved_uops
    }

    /// Rebuilds this recipe with an optimized op sequence, preserving the
    /// (conservative) scratch high-water mark and recording the saving.
    pub(crate) fn with_optimized_ops(&self, ops: Vec<MicroOp>, saved_uops: u32) -> Recipe {
        Recipe { ops, scratch_high_water: self.scratch_high_water, saved_uops }
    }

    /// Compiles this recipe for a `(lanes, regs)` VRF geometry: plane
    /// operands resolve to flat storage offsets and mask-target decisions
    /// are precomputed, so [`crate::BitPlaneVrf::run_compiled`] executes
    /// the sequence without per-op plane resolution. Byte-identical to
    /// interpreting [`Recipe::ops`] in order. The compiled form carries
    /// [`Self::saved_uops`] along.
    pub fn compile(&self, lanes: usize, regs: usize) -> crate::CompiledRecipe {
        crate::compiled::compile(&self.ops, [lanes, regs, 1], self.saved_uops)
    }

    /// Compiles this recipe as [`Self::compile`] does, for the VRFs of a
    /// machine of geometry `g`, kept in plane banks of
    /// [`crate::Geometry::bank_vrfs`] members ([`crate::PlaneBank`]).
    pub fn compile_for(&self, g: &crate::Geometry) -> crate::CompiledRecipe {
        let layout = [g.lanes_per_vrf, g.regs_per_vrf, g.bank_vrfs()];
        crate::compiled::compile(&self.ops, layout, self.saved_uops)
    }

    /// Builds a recipe from an explicit micro-op sequence.
    ///
    /// Intended for conformance tooling (e.g. injecting a deliberately
    /// corrupted recipe into a recipe pool to prove the differential
    /// harness catches it) and for experimenting with hand-written
    /// sequences. The scratch high-water mark is conservatively taken as
    /// the highest scratch plane index touched, plus one.
    pub fn from_ops(ops: Vec<MicroOp>) -> Self {
        let scratch = |p: &Plane| match *p {
            Plane::Scratch(i) => Some(i as usize + 1),
            _ => None,
        };
        let scratch_high_water = ops
            .iter()
            .flat_map(|op| {
                let planes: Vec<&Plane> = match op {
                    MicroOp::Nor { a, b, out }
                    | MicroOp::And { a, b, out }
                    | MicroOp::Or { a, b, out }
                    | MicroOp::Xor { a, b, out } => vec![a, b, out],
                    MicroOp::Tra { a, b, c, out } | MicroOp::Lut { a, b, c, out, .. } => {
                        vec![a, b, c, out]
                    }
                    MicroOp::Not { a, out } | MicroOp::Copy { a, out } => vec![a, out],
                    MicroOp::FullAdd { a, b, carry, sum } => vec![a, b, carry, sum],
                    MicroOp::Set { out, .. } => vec![out],
                    MicroOp::Word { .. } => vec![],
                };
                planes.into_iter().filter_map(scratch).collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0);
        Self { ops, scratch_high_water, saved_uops: 0 }
    }
}

fn rp(reg: u16, bit: usize) -> Plane {
    Plane::Reg { reg: reg as u8, bit: bit as u8 }
}

/// Builds the recipe for a compute-class instruction, or `None` for
/// instructions handled by the control path (ensemble markers, jumps,
/// masking, `MEMCPY`, `NOP`).
///
/// # Panics
///
/// Panics if a multi-step instruction aliases `rd` with a source register
/// (see module docs), if a divide-family operand is a reserved temporary,
/// or if a register index exceeds 63. [`crate::DatapathModel::operand_error`]
/// rejects the first two from the same facts
/// ([`BinaryOp::rd_excludes_sources`], [`BinaryOp::uses_temps`]), so these
/// panics are invariants no checked instruction reaches.
pub fn build_recipe(ctx: RecipeCtx, instr: &Instruction) -> Option<Recipe> {
    if ctx.family.word_serial() {
        return build_word_recipe(instr);
    }
    let mut g = GateBuilder::new(ctx.family);
    match *instr {
        Instruction::Binary { op, rs, rt, rd } => build_binary(&mut g, ctx, op, rs.0, rt.0, rd.0),
        Instruction::Unary { op, rs, rd } => build_unary(&mut g, op, rs.0, rd.0),
        Instruction::Compare { op, rs, rt } => build_compare(&mut g, op, rs.0, rt.0),
        Instruction::Fuzzy { rs, rt, rd } => build_fuzzy(&mut g, rs.0, rt.0, rd.0),
        Instruction::Cas { rs, rt } => build_cas(&mut g, rs.0, rt.0),
        Instruction::Init { value, rd } => build_init(&mut g, value, rd.0),
        _ => return None,
    }
    let scratch_high_water = g.scratch_high_water();
    Some(Recipe { ops: g.finish(), scratch_high_water, saved_uops: 0 })
}

/// The register-renamed *shape* of a compute instruction, the key of the
/// decoder's per-operation template (paper §VI-B, Fig. 9), or `None` for
/// instructions [`build_recipe`] has no recipe for.
///
/// Register operands are renamed, in operand order (`rs`, `rt`, `rd`), to
/// the lowest ids that are not [`RecipeCtx::temp_regs`]; an operand that
/// *is* a temp register keeps its id. Repeated operands rename alike, so
/// the aliasing pattern — and with it every [`build_recipe`] panic — is
/// unchanged. Synthesis and the optimizer only ever test planes for
/// equality, so they commute with this renaming: the shape's recipe,
/// compiled and then relocated to `instr`'s registers
/// ([`crate::CompiledRecipe::relocate`]), equals the instruction's own
/// recipe compiled, `OptStats` included (DESIGN.md §10).
pub fn recipe_shape(ctx: &RecipeCtx, instr: &Instruction) -> Option<Instruction> {
    let (ta, tb) = ctx.temp_regs;
    let is_temp = |r: u16| r == u16::from(ta) || r == u16::from(tb);
    let mut renamed: Vec<(RegId, RegId)> = Vec::with_capacity(3);
    let mut next = 0;
    map_operands(instr, |r| {
        if is_temp(r.0) {
            return r;
        }
        if let Some(&(_, to)) = renamed.iter().find(|&&(from, _)| from == r) {
            return to;
        }
        while is_temp(next) {
            next += 1;
        }
        let to = RegId(next);
        next += 1;
        renamed.push((r, to));
        to
    })
}

/// `instr` with each register operand replaced by `f` of it, called in
/// operand order (`rs`, `rt`, `rd`); `None` for instructions without a
/// recipe.
pub(crate) fn map_operands(
    instr: &Instruction,
    mut f: impl FnMut(RegId) -> RegId,
) -> Option<Instruction> {
    Some(match *instr {
        Instruction::Binary { op, rs, rt, rd } => {
            Instruction::Binary { op, rs: f(rs), rt: f(rt), rd: f(rd) }
        }
        Instruction::Unary { op, rs, rd } => Instruction::Unary { op, rs: f(rs), rd: f(rd) },
        Instruction::Compare { op, rs, rt } => Instruction::Compare { op, rs: f(rs), rt: f(rt) },
        Instruction::Fuzzy { rs, rt, rd } => Instruction::Fuzzy { rs: f(rs), rt: f(rt), rd: f(rd) },
        Instruction::Cas { rs, rt } => Instruction::Cas { rs: f(rs), rt: f(rt) },
        Instruction::Init { value, rd } => Instruction::Init { value, rd: f(rd) },
        _ => return None,
    })
}

/// The register operands of `instr`, in operand order.
pub(crate) fn operands(instr: &Instruction) -> Vec<u16> {
    let mut regs = Vec::with_capacity(3);
    map_operands(instr, |r| {
        regs.push(r.0);
        r
    });
    regs
}

/// Word-serial synthesis fallback (UPMEM-style DPUs): the substrate has no
/// inter-lane bit-plane primitives, so every compute instruction lowers to
/// a single [`MicroOp::Word`] evaluated lane-by-lane by the near-bank
/// core. The ISA aliasing contract is enforced identically to the
/// bit-serial builders so the same programs are legal on every backend.
fn build_word_recipe(instr: &Instruction) -> Option<Recipe> {
    match *instr {
        Instruction::Binary { op, rs, rt, rd } => assert_no_alias(op, rd.0, &[rs.0, rt.0]),
        Instruction::Unary { .. }
        | Instruction::Compare { .. }
        | Instruction::Fuzzy { .. }
        | Instruction::Cas { .. }
        | Instruction::Init { .. } => {}
        _ => return None,
    }
    Some(Recipe {
        ops: vec![MicroOp::Word { instr: *instr }],
        scratch_high_water: 0,
        saved_uops: 0,
    })
}

fn build_binary(g: &mut GateBuilder, ctx: RecipeCtx, op: BinaryOp, rs: u16, rt: u16, rd: u16) {
    assert_no_alias(op, rd, &[rs, rt]);
    match op {
        BinaryOp::Add => ripple_add(g, rs, rt, rd, false),
        BinaryOp::Sub => ripple_add(g, rs, rt, rd, true),
        BinaryOp::And => bitwise(g, rs, rt, rd, GateBuilder::and),
        BinaryOp::Nand => bitwise(g, rs, rt, rd, GateBuilder::nand),
        BinaryOp::Nor => bitwise(g, rs, rt, rd, GateBuilder::nor),
        BinaryOp::Or => bitwise(g, rs, rt, rd, GateBuilder::or),
        BinaryOp::Xor => bitwise(g, rs, rt, rd, GateBuilder::xor),
        BinaryOp::Xnor => bitwise(g, rs, rt, rd, GateBuilder::xnor),
        BinaryOp::Mux => {
            // rd holds the select bitmask and receives the result:
            // rd[j] = rd[j] ? rs[j] : rt[j].
            for j in 0..W {
                g.mux(rp(rd, j), rp(rs, j), rp(rt, j), rp(rd, j));
            }
        }
        BinaryOp::Max | BinaryOp::Min => {
            let lt = borrow_less_than(g, rs, rt);
            for j in 0..W {
                // lt = (rs < rt); max picks rt, min picks rs.
                match op {
                    BinaryOp::Max => g.mux(lt, rp(rt, j), rp(rs, j), rp(rd, j)),
                    _ => g.mux(lt, rp(rs, j), rp(rt, j), rp(rd, j)),
                }
            }
            g.release(lt);
        }
        BinaryOp::Mul => {
            for j in 0..W {
                g.set(rp(rd, j), false);
            }
            shift_add_multiply(g, rs, rt, rd);
        }
        BinaryOp::Mac => {
            shift_add_multiply(g, rs, rt, rd);
        }
        BinaryOp::QDiv | BinaryOp::QRDiv | BinaryOp::RDiv => {
            restoring_divide(g, ctx, op, rs, rt, rd);
        }
    }
}

/// Asserts that `rd` aliases none of `sources` when `op`'s recipe writes
/// `rd` while still reading them ([`BinaryOp::rd_excludes_sources`]).
fn assert_no_alias(op: BinaryOp, rd: u16, sources: &[u16]) {
    assert!(
        !op.rd_excludes_sources() || !sources.contains(&rd),
        "{}: rd must not alias a source register (multi-step recipe)",
        op.mnemonic()
    );
}

fn bitwise(
    g: &mut GateBuilder,
    rs: u16,
    rt: u16,
    rd: u16,
    gate: fn(&mut GateBuilder, Plane, Plane, Plane),
) {
    for j in 0..W {
        gate(g, rp(rs, j), rp(rt, j), rp(rd, j));
    }
}

/// `rd = rs + rt` (or `rs - rt` when `subtract`, via `rs + !rt + 1`).
fn ripple_add(g: &mut GateBuilder, rs: u16, rt: u16, rd: u16, subtract: bool) {
    let carry = g.alloc();
    g.set(carry, subtract);
    if subtract {
        let nt = g.alloc();
        for j in 0..W {
            g.not(rp(rt, j), nt);
            g.full_add(rp(rs, j), nt, carry, rp(rd, j));
        }
        g.release(nt);
    } else {
        for j in 0..W {
            g.full_add(rp(rs, j), rp(rt, j), carry, rp(rd, j));
        }
    }
    g.release(carry);
}

/// Computes the borrow of `rs - rt`, i.e. a scratch plane holding
/// `rs < rt` (unsigned) per lane. Caller releases the returned plane.
fn borrow_less_than(g: &mut GateBuilder, rs: u16, rt: u16) -> Plane {
    let carry = g.alloc();
    let junk = g.alloc();
    let nt = g.alloc();
    g.set(carry, true);
    for j in 0..W {
        g.not(rp(rt, j), nt);
        g.full_add(rp(rs, j), nt, carry, junk);
    }
    // No carry-out means a borrow occurred: rs < rt.
    let lt = g.alloc();
    g.not(carry, lt);
    g.release(nt);
    g.release(junk);
    g.release(carry);
    lt
}

/// `rd += rs * rt` with 32-bit inputs and a 64-bit accumulator.
fn shift_add_multiply(g: &mut GateBuilder, rs: u16, rt: u16, rd: u16) {
    for i in 0..MUL_INPUT_BITS {
        let carry = g.alloc();
        let t = g.alloc();
        g.set(carry, false);
        for j in 0..MUL_INPUT_BITS {
            // Partial-product bit: rt[j] & rs[i], accumulated at rd[i+j].
            g.and(rp(rt, j), rp(rs, i), t);
            g.full_add(rp(rd, i + j), t, carry, rp(rd, i + j));
        }
        // Propagate the final carry through the upper accumulator bits.
        for k in (i + MUL_INPUT_BITS)..W {
            g.half_add(rp(rd, k), carry, rp(rd, k));
        }
        g.release(t);
        g.release(carry);
    }
}

/// Restoring division: quotient and/or remainder of `rs / rt` (unsigned,
/// on the low [`DIV_INPUT_BITS`] bits; results zero-extended). Division by
/// zero yields an all-ones quotient and remainder `rs`, the natural output
/// of the restoring-division hardware.
fn restoring_divide(g: &mut GateBuilder, ctx: RecipeCtx, op: BinaryOp, rs: u16, rt: u16, rd: u16) {
    let mnemonic = op.mnemonic();
    let (ta, tb) = ctx.temp_regs;
    let (ta, tb) = (ta as u16, tb as u16);
    assert!(
        !op.uses_temps() || (![rs, rt, rd].contains(&ta) && ![rs, rt, rd].contains(&tb)),
        "{mnemonic}: operands collide with reserved temp registers r{ta}/r{tb}"
    );
    let writes_quotient = matches!(op, BinaryOp::QDiv | BinaryOp::QRDiv);
    const DW: usize = DIV_INPUT_BITS;

    if writes_quotient {
        for j in DW..W {
            g.set(rp(rd, j), false);
        }
    }
    // R (remainder) = 0.
    for j in 0..DW {
        g.set(rp(ta, j), false);
    }
    for i in (0..DW).rev() {
        // R <<= 1; R[0] = N[i].
        for j in (1..DW).rev() {
            g.copy(rp(ta, j - 1), rp(ta, j));
        }
        g.copy(rp(rs, i), rp(ta, 0));
        // T = R - D (borrow chain); carry-out==1 means R >= D.
        let carry = g.alloc();
        let nt = g.alloc();
        g.set(carry, true);
        for j in 0..DW {
            g.not(rp(rt, j), nt);
            g.full_add(rp(ta, j), nt, carry, rp(tb, j));
        }
        g.release(nt);
        if writes_quotient {
            g.copy(carry, rp(rd, i));
        }
        // R = carry ? T : R.
        for j in 0..DW {
            g.mux(carry, rp(tb, j), rp(ta, j), rp(ta, j));
        }
        g.release(carry);
    }
    match op {
        BinaryOp::RDiv => {
            for j in 0..DW {
                g.copy(rp(ta, j), rp(rd, j));
            }
            for j in DW..W {
                g.set(rp(rd, j), false);
            }
        }
        BinaryOp::QRDiv => {
            // Remainder overwrites rt, per Table II.
            for j in 0..DW {
                g.copy(rp(ta, j), rp(rt, j));
            }
            for j in DW..W {
                g.set(rp(rt, j), false);
            }
        }
        _ => {}
    }
}

fn build_unary(g: &mut GateBuilder, op: UnaryOp, rs: u16, rd: u16) {
    match op {
        UnaryOp::Inc => {
            let carry = g.alloc();
            g.set(carry, true);
            for j in 0..W {
                g.half_add(rp(rs, j), carry, rp(rd, j));
            }
            g.release(carry);
        }
        UnaryOp::Popc => {
            // 7-bit accumulator in scratch; add each source bit.
            let acc: Vec<Plane> = (0..7).map(|_| g.alloc()).collect();
            for &p in &acc {
                g.set(p, false);
            }
            let c = g.alloc();
            for i in 0..W {
                g.copy(rp(rs, i), c);
                for &p in &acc {
                    g.half_add(p, c, p);
                }
            }
            g.release(c);
            for (k, &p) in acc.iter().enumerate() {
                g.copy(p, rp(rd, k));
            }
            for j in 7..W {
                g.set(rp(rd, j), false);
            }
            for p in acc.into_iter().rev() {
                g.release(p);
            }
        }
        UnaryOp::Relu => {
            let keep = g.alloc();
            g.not(rp(rs, W - 1), keep);
            for j in 0..W {
                g.and(rp(rs, j), keep, rp(rd, j));
            }
            g.release(keep);
        }
        UnaryOp::Inv => {
            for j in 0..W {
                g.not(rp(rs, j), rp(rd, j));
            }
        }
        UnaryOp::BFlip => {
            if rs == rd {
                // In-place reversal: swap symmetric bit pairs via scratch.
                let t = g.alloc();
                for j in 0..W / 2 {
                    g.copy(rp(rs, j), t);
                    g.copy(rp(rs, W - 1 - j), rp(rd, j));
                    g.copy(t, rp(rd, W - 1 - j));
                }
                g.release(t);
            } else {
                for j in 0..W {
                    g.copy(rp(rs, W - 1 - j), rp(rd, j));
                }
            }
        }
        UnaryOp::LShift => {
            for j in (1..W).rev() {
                g.copy(rp(rs, j - 1), rp(rd, j));
            }
            g.set(rp(rd, 0), false);
        }
        UnaryOp::Mov => {
            for j in 0..W {
                g.copy(rp(rs, j), rp(rd, j));
            }
        }
    }
}

fn build_compare(g: &mut GateBuilder, op: CompareOp, rs: u16, rt: u16) {
    match op {
        CompareOp::Eq => {
            let acc = g.alloc();
            let x = g.alloc();
            g.set(acc, false);
            for j in 0..W {
                g.xor(rp(rs, j), rp(rt, j), x);
                g.or(acc, x, acc);
            }
            g.not(acc, Plane::Cond);
            g.release(x);
            g.release(acc);
        }
        CompareOp::Lt => {
            let lt = borrow_less_than(g, rs, rt);
            g.copy(lt, Plane::Cond);
            g.release(lt);
        }
        CompareOp::Gt => {
            let lt = borrow_less_than(g, rt, rs);
            g.copy(lt, Plane::Cond);
            g.release(lt);
        }
    }
}

fn build_fuzzy(g: &mut GateBuilder, rs: u16, rt: u16, rd: u16) {
    // Equality ignoring bit positions set in rd.
    let acc = g.alloc();
    let x = g.alloc();
    let nskip = g.alloc();
    g.set(acc, false);
    for j in 0..W {
        g.xor(rp(rs, j), rp(rt, j), x);
        g.not(rp(rd, j), nskip);
        g.and(x, nskip, x);
        g.or(acc, x, acc);
    }
    g.not(acc, Plane::Cond);
    g.release(nskip);
    g.release(x);
    g.release(acc);
}

fn build_cas(g: &mut GateBuilder, rs: u16, rt: u16) {
    // After CAS: rs = min, rt = max (per-lane sort).
    let lt = borrow_less_than(g, rs, rt);
    let tmin = g.alloc();
    let tmax = g.alloc();
    for j in 0..W {
        g.mux(lt, rp(rs, j), rp(rt, j), tmin);
        g.mux(lt, rp(rt, j), rp(rs, j), tmax);
        g.copy(tmin, rp(rs, j));
        g.copy(tmax, rp(rt, j));
    }
    g.release(tmax);
    g.release(tmin);
    g.release(lt);
}

fn build_init(g: &mut GateBuilder, value: InitValue, rd: u16) {
    g.set(rp(rd, 0), value == InitValue::One);
    for j in 1..W {
        g.set(rp(rd, j), false);
    }
}

/// Golden architectural semantics of the compute instructions, used by
/// recipe equivalence tests and by reference kernel implementations.
pub mod semantics {
    use mpu_isa::{BinaryOp, CompareOp, UnaryOp};

    /// Result of `rd = rs OP rt` (for `MUX` and `MAC`, `rd_in` is the
    /// third input). `QRDIV` also rewrites `rt`; see [`qrdiv`].
    pub fn binary(op: BinaryOp, rs: u64, rt: u64, rd_in: u64) -> u64 {
        match op {
            BinaryOp::Add => rs.wrapping_add(rt),
            BinaryOp::Sub => rs.wrapping_sub(rt),
            BinaryOp::Mul => mul32(rs, rt),
            BinaryOp::Mac => rd_in.wrapping_add(mul32(rs, rt)),
            BinaryOp::QDiv | BinaryOp::QRDiv => qrdiv(rs, rt).0,
            BinaryOp::RDiv => qrdiv(rs, rt).1,
            BinaryOp::And => rs & rt,
            BinaryOp::Nand => !(rs & rt),
            BinaryOp::Nor => !(rs | rt),
            BinaryOp::Or => rs | rt,
            BinaryOp::Xor => rs ^ rt,
            BinaryOp::Xnor => !(rs ^ rt),
            BinaryOp::Mux => (rd_in & rs) | (!rd_in & rt),
            BinaryOp::Max => rs.max(rt),
            BinaryOp::Min => rs.min(rt),
        }
    }

    /// 32-bit-input multiply with a full 64-bit product.
    pub fn mul32(rs: u64, rt: u64) -> u64 {
        (rs & 0xffff_ffff).wrapping_mul(rt & 0xffff_ffff)
    }

    /// The `(quotient, remainder)` pair of the division family: operands
    /// are the low 32 bits (like `MUL`, divisions are narrow-operand
    /// instructions), results zero-extended; division by zero yields an
    /// all-ones 32-bit quotient and the dividend as remainder.
    pub fn qrdiv(rs: u64, rt: u64) -> (u64, u64) {
        let (n, d) = (rs & 0xffff_ffff, rt & 0xffff_ffff);
        match (n.checked_div(d), n.checked_rem(d)) {
            (Some(q), Some(r)) => (q, r),
            _ => (0xffff_ffff, n),
        }
    }

    /// Result of `rd = OP rs`.
    pub fn unary(op: UnaryOp, rs: u64) -> u64 {
        match op {
            UnaryOp::Inc => rs.wrapping_add(1),
            UnaryOp::Popc => rs.count_ones() as u64,
            UnaryOp::Relu => {
                if rs >> 63 == 1 {
                    0
                } else {
                    rs
                }
            }
            UnaryOp::Inv => !rs,
            UnaryOp::BFlip => rs.reverse_bits(),
            UnaryOp::LShift => rs << 1,
            UnaryOp::Mov => rs,
        }
    }

    /// Per-lane comparison result (unsigned).
    pub fn compare(op: CompareOp, rs: u64, rt: u64) -> bool {
        match op {
            CompareOp::Eq => rs == rt,
            CompareOp::Gt => rs > rt,
            CompareOp::Lt => rs < rt,
        }
    }

    /// `FUZZY`: equality ignoring the bit positions set in `rd`.
    pub fn fuzzy(rs: u64, rt: u64, rd: u64) -> bool {
        (rs ^ rt) & !rd == 0
    }

    /// `CAS`: the `(rs, rt)` pair after the per-lane sort.
    pub fn cas(rs: u64, rt: u64) -> (u64, u64) {
        (rs.min(rt), rs.max(rt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::BitPlaneVrf;
    use crate::microop::MicroOpKind;
    use mpu_isa::RegId;

    const FAMILIES: [LogicFamily; 5] = LogicFamily::ALL;

    fn ctx(family: LogicFamily) -> RecipeCtx {
        RecipeCtx { family, ..crate::DatapathModel::racer().recipe_ctx() }
    }

    fn run(family: LogicFamily, instr: Instruction, setup: &[(u8, Vec<u64>)]) -> BitPlaneVrf {
        let mut vrf = BitPlaneVrf::new(8, 16);
        for (reg, values) in setup {
            vrf.write_lane_values(*reg, values);
        }
        let recipe = build_recipe(ctx(family), &instr).expect("compute instruction");
        for op in recipe.ops() {
            op.apply(&mut vrf);
        }
        vrf
    }

    fn lanes(vals: &[u64]) -> Vec<u64> {
        let mut v = vals.to_vec();
        v.resize(8, 0);
        v
    }

    #[test]
    fn add_matches_semantics_all_families() {
        let a = [0u64, 1, u64::MAX, 5, 1 << 63, 0xdead_beef, 42, 7];
        let b = [0u64, 1, 1, 11, 1 << 63, 0xcafe_f00d, 58, u64::MAX];
        for family in FAMILIES {
            let vrf = run(
                family,
                Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(got[i], a[i].wrapping_add(b[i]), "{family:?} lane {i}");
            }
        }
    }

    #[test]
    fn sub_and_inc() {
        let a = [10u64, 0, u64::MAX, 100, 1, 2, 3, 4];
        let b = [3u64, 1, u64::MAX, 7, 0, 5, 3, 2];
        for family in FAMILIES {
            let vrf = run(
                family,
                Instruction::Binary { op: BinaryOp::Sub, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(got[i], a[i].wrapping_sub(b[i]), "{family:?} SUB lane {i}");
            }
            let vrf = run(
                family,
                Instruction::Unary { op: UnaryOp::Inc, rs: RegId(0), rd: RegId(2) },
                &[(0, lanes(&a))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(got[i], a[i].wrapping_add(1), "{family:?} INC lane {i}");
            }
        }
    }

    #[test]
    fn mul_and_mac_32bit_inputs() {
        let a = [0u64, 3, 0xffff_ffff, 1 << 20, 7, 123_456, 2, 0x8000_0000];
        let b = [5u64, 3, 0xffff_ffff, 1 << 20, 0, 654_321, 1 << 31, 2];
        let acc = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for family in FAMILIES {
            let vrf = run(
                family,
                Instruction::Binary { op: BinaryOp::Mul, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(got[i], semantics::mul32(a[i], b[i]), "{family:?} MUL lane {i}");
            }
            let vrf = run(
                family,
                Instruction::Binary { op: BinaryOp::Mac, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b)), (2, lanes(&acc))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(
                    got[i],
                    acc[i].wrapping_add(semantics::mul32(a[i], b[i])),
                    "{family:?} MAC lane {i}"
                );
            }
        }
    }

    #[test]
    fn division_family_nor() {
        // Full family sweep is covered by proptests; exercise NOR here.
        let n = [100u64, 7, 0, (1 << 31) + 5, 1 << 30, 17, 81, 5];
        let d = [7u64, 100, 5, 3, 1 << 20, 17, 9, 0];
        let vrf = run(
            LogicFamily::Nor,
            Instruction::Binary { op: BinaryOp::QDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            &[(0, lanes(&n)), (1, lanes(&d))],
        );
        let got = vrf.read_lane_values(2);
        for i in 0..8 {
            assert_eq!(got[i], semantics::binary(BinaryOp::QDiv, n[i], d[i], 0), "QDIV lane {i}");
        }
        let vrf = run(
            LogicFamily::Nor,
            Instruction::Binary { op: BinaryOp::RDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            &[(0, lanes(&n)), (1, lanes(&d))],
        );
        let got = vrf.read_lane_values(2);
        for i in 0..8 {
            assert_eq!(got[i], semantics::binary(BinaryOp::RDiv, n[i], d[i], 0), "RDIV lane {i}");
        }
        let vrf = run(
            LogicFamily::Nor,
            Instruction::Binary { op: BinaryOp::QRDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
            &[(0, lanes(&n)), (1, lanes(&d))],
        );
        let q = vrf.read_lane_values(2);
        let r = vrf.read_lane_values(1);
        for i in 0..8 {
            let (eq, er) = semantics::qrdiv(n[i], d[i]);
            assert_eq!(q[i], eq, "QRDIV quotient lane {i}");
            assert_eq!(r[i], er, "QRDIV remainder lane {i}");
        }
    }

    #[test]
    fn comparisons_write_conditional_register() {
        let a = [1u64, 5, 5, 0, u64::MAX, 3, 9, 2];
        let b = [2u64, 5, 4, 0, 0, 4, 9, 1];
        for family in FAMILIES {
            for op in CompareOp::ALL {
                let vrf = run(
                    family,
                    Instruction::Compare { op, rs: RegId(0), rt: RegId(1) },
                    &[(0, lanes(&a)), (1, lanes(&b))],
                );
                for i in 0..8 {
                    assert_eq!(
                        vrf.lane_bit(Plane::Cond, i),
                        semantics::compare(op, a[i], b[i]),
                        "{family:?} {op:?} lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_min_mux_cas() {
        let a = [1u64, 9, 5, 0, u64::MAX, 3, 1 << 50, 2];
        let b = [2u64, 5, 5, 7, 0, 4, 1 << 49, 1];
        let m = [!0u64, 0, 0xff, 0xf0f0, 1, !0 >> 1, 0, 5];
        for family in FAMILIES {
            for op in [BinaryOp::Max, BinaryOp::Min] {
                let vrf = run(
                    family,
                    Instruction::Binary { op, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                    &[(0, lanes(&a)), (1, lanes(&b))],
                );
                let got = vrf.read_lane_values(2);
                for i in 0..8 {
                    assert_eq!(
                        got[i],
                        semantics::binary(op, a[i], b[i], 0),
                        "{family:?} {op:?} {i}"
                    );
                }
            }
            let vrf = run(
                family,
                Instruction::Binary { op: BinaryOp::Mux, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b)), (2, lanes(&m))],
            );
            let got = vrf.read_lane_values(2);
            for i in 0..8 {
                assert_eq!(got[i], (m[i] & a[i]) | (!m[i] & b[i]), "{family:?} MUX {i}");
            }
            let vrf = run(
                family,
                Instruction::Cas { rs: RegId(0), rt: RegId(1) },
                &[(0, lanes(&a)), (1, lanes(&b))],
            );
            let lo = vrf.read_lane_values(0);
            let hi = vrf.read_lane_values(1);
            for i in 0..8 {
                assert_eq!((lo[i], hi[i]), semantics::cas(a[i], b[i]), "{family:?} CAS {i}");
            }
        }
    }

    #[test]
    fn unary_ops_match_semantics() {
        let a = [0u64, 1, u64::MAX, 1 << 63, 0xdead_beef, 5, (1 << 63) - 1, 3];
        for family in FAMILIES {
            for op in UnaryOp::ALL {
                let vrf = run(
                    family,
                    Instruction::Unary { op, rs: RegId(0), rd: RegId(2) },
                    &[(0, lanes(&a))],
                );
                let got = vrf.read_lane_values(2);
                for i in 0..8 {
                    assert_eq!(got[i], semantics::unary(op, a[i]), "{family:?} {op:?} lane {i}");
                }
            }
        }
    }

    #[test]
    fn bflip_in_place() {
        let a = [0x8000_0000_0000_0001u64, 1, 2, 3, 4, 5, 6, 7];
        for family in FAMILIES {
            let vrf = run(
                family,
                Instruction::Unary { op: UnaryOp::BFlip, rs: RegId(0), rd: RegId(0) },
                &[(0, lanes(&a))],
            );
            let got = vrf.read_lane_values(0);
            for i in 0..8 {
                assert_eq!(got[i], a[i].reverse_bits(), "{family:?} lane {i}");
            }
        }
    }

    #[test]
    fn fuzzy_and_init() {
        let a = [0b1010u64, 0b1010, 0xff00, 5, 5, 0, 1, 2];
        let b = [0b1000u64, 0b0010, 0xff0f, 5, 6, 0, 3, 2];
        let skip = [0b0010u64, 0b1000, 0x00ff, 0, 3, 0, 2, 0];
        for family in FAMILIES {
            let vrf = run(
                family,
                Instruction::Fuzzy { rs: RegId(0), rt: RegId(1), rd: RegId(2) },
                &[(0, lanes(&a)), (1, lanes(&b)), (2, lanes(&skip))],
            );
            for i in 0..8 {
                assert_eq!(
                    vrf.lane_bit(Plane::Cond, i),
                    semantics::fuzzy(a[i], b[i], skip[i]),
                    "{family:?} FUZZY lane {i}"
                );
            }
            let vrf = run(
                family,
                Instruction::Init { value: InitValue::One, rd: RegId(3) },
                &[(3, lanes(&a))],
            );
            assert!(vrf.read_lane_values(3).iter().all(|&v| v == 1), "{family:?} INIT1");
        }
    }

    #[test]
    fn masked_lanes_do_not_change() {
        // Disable lanes 4..8, run an ADD, check they kept old rd contents.
        let a = [1u64; 8];
        let b = [2u64; 8];
        let old = [9u64; 8];
        for family in FAMILIES {
            let mut vrf = BitPlaneVrf::new(8, 16);
            vrf.write_lane_values(0, &a);
            vrf.write_lane_values(1, &b);
            vrf.write_lane_values(2, &old);
            vrf.set_plane_words(Plane::Mask, &[0b0000_1111]);
            let recipe = build_recipe(
                ctx(family),
                &Instruction::Binary {
                    op: BinaryOp::Add,
                    rs: RegId(0),
                    rt: RegId(1),
                    rd: RegId(2),
                },
            )
            .unwrap();
            for op in recipe.ops() {
                op.apply(&mut vrf);
            }
            let got = vrf.read_lane_values(2);
            for (i, &lane) in got.iter().enumerate().take(4) {
                assert_eq!(lane, 3, "{family:?} enabled lane {i}");
            }
            for (i, &lane) in got.iter().enumerate().take(8).skip(4) {
                assert_eq!(lane, 9, "{family:?} disabled lane {i}");
            }
        }
    }

    #[test]
    fn recipes_use_only_family_ops() {
        for family in FAMILIES {
            for op in BinaryOp::ALL {
                let instr = Instruction::Binary { op, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
                let recipe = build_recipe(ctx(family), &instr).unwrap();
                for uop in recipe.ops() {
                    assert!(
                        family.supports(uop.kind()),
                        "{family:?} {op:?} emitted {:?}",
                        uop.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn recipe_sizes_reflect_bit_serial_costs() {
        let c = ctx(LogicFamily::Nor);
        let add = build_recipe(
            c,
            &Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        )
        .unwrap();
        // 64 x (9 NOR + 1 copy) + 1 set = 641.
        assert_eq!(add.len(), 641);
        let and = build_recipe(
            c,
            &Instruction::Binary { op: BinaryOp::And, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        )
        .unwrap();
        assert_eq!(and.len(), 3 * 64);
        let mul = build_recipe(
            c,
            &Instruction::Binary { op: BinaryOp::Mul, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        )
        .unwrap();
        assert!(mul.len() > 10_000, "MUL expands into thousands of micro-ops: {}", mul.len());
        let div = build_recipe(
            c,
            &Instruction::Binary { op: BinaryOp::QDiv, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        )
        .unwrap();
        assert!(div.len() > 12_000, "QDIV is the largest recipe: {}", div.len());
        assert!(add.scratch_high_water() <= 16);
    }

    #[test]
    fn control_instructions_have_no_recipe() {
        let c = ctx(LogicFamily::Nor);
        assert!(build_recipe(c, &Instruction::Nop).is_none());
        assert!(build_recipe(c, &Instruction::Unmask).is_none());
        assert!(build_recipe(c, &Instruction::ComputeDone).is_none());
    }

    #[test]
    #[should_panic(expected = "must not alias")]
    fn mul_aliasing_rejected() {
        build_recipe(
            ctx(LogicFamily::Nor),
            &Instruction::Binary { op: BinaryOp::Mul, rs: RegId(2), rt: RegId(1), rd: RegId(2) },
        );
    }

    #[test]
    #[should_panic(expected = "temp registers")]
    fn division_colliding_with_temps_rejected() {
        build_recipe(
            ctx(LogicFamily::Nor),
            &Instruction::Binary { op: BinaryOp::QDiv, rs: RegId(14), rt: RegId(1), rd: RegId(2) },
        );
    }

    #[test]
    fn word_recipes_are_single_ops_with_no_scratch() {
        let c = ctx(LogicFamily::WordSerial);
        for op in BinaryOp::ALL {
            let instr = Instruction::Binary { op, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
            let recipe = build_recipe(c, &instr).unwrap();
            assert_eq!(recipe.len(), 1, "{op:?}");
            assert_eq!(recipe.scratch_high_water(), 0);
        }
        assert!(build_recipe(c, &Instruction::Nop).is_none());
    }

    #[test]
    #[should_panic(expected = "must not alias")]
    fn word_mul_aliasing_rejected() {
        build_recipe(
            ctx(LogicFamily::WordSerial),
            &Instruction::Binary { op: BinaryOp::Mul, rs: RegId(2), rt: RegId(1), rd: RegId(2) },
        );
    }

    #[test]
    fn histogram_counts_ops() {
        let recipe = build_recipe(
            ctx(LogicFamily::Maj),
            &Instruction::Binary { op: BinaryOp::And, rs: RegId(0), rt: RegId(1), rd: RegId(2) },
        )
        .unwrap();
        let mix = recipe.compile(64, 16).mix();
        assert_eq!(mix[MicroOpKind::Tra.index()], 64);
        assert_eq!(mix.iter().sum::<u32>() as usize, recipe.len());
    }
}
