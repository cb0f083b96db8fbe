//! Pre-compiled recipes: micro-op sequences with plane addresses resolved
//! and gate functions decoded.
//!
//! [`MicroOp::apply`] re-resolves every `Plane` operand — a match plus
//! bounds asserts — on every application, and a 32-bit MUL replays ~19k
//! micro-ops per VRF per wave. [`CompiledRecipe`] hoists that work to
//! synthesis time: each operand becomes a word offset into the VRF's flat
//! storage, and each output carries its precomputed "honours the lane
//! mask" flag. The steady-state execution loop is pure word arithmetic.
//!
//! The simulator's recipe pool compiles each register-renamed instruction
//! *shape* ([`crate::recipe_shape`]) once per geometry and derives every
//! instruction's template from it by relocation
//! ([`CompiledRecipe::relocate`]): each offset inside a shape operand
//! register's plane block is rebased to the instruction's register, and
//! word-serial ops rename their registers. That is the paper's I2M decoder
//! binding a template to its operands through the pointer table; the
//! result equals compiling the instruction's own recipe.
//!
//! Compilation also gives every single-output micro-op one form: a gate
//! computing a named word function ([`LutFn`]) of at most three operands.
//! Fixed-function ops (NOR, TRA, COPY, ...) name their function directly;
//! a pLUTo LUT query is decoded from its truth table once, here, the way
//! the paper's I2M decoder resolves an instruction to its template once.
//! Constant and repeated operands are folded into the table, inputs the
//! table ignores are dropped, and what remains is matched against a closed
//! set of named functions (`nor`, `maj`, `mux`, ...). A LUT-family 2-input
//! gate, whose third input is tied to `Const(false)`, thus runs as one
//! two-operand word loop; only tables outside the set keep the
//! branch-free [`lut3_word`] evaluation. Execution dispatches on the
//! function once per op, outside the word loop.
//!
//! The word loop itself is the crate's one kernel,
//! [`crate::bitplane::plane_kernel`], generic over the plane width. The
//! bookkeeping path ([`run_ops`]) reaches it through
//! [`BitPlaneVrf::plane_op`], which picks the width per op and finishes
//! each write; the fast loop ([`run_ops_fast`]) picks the width once per
//! run of recipes and applies each op to every storage of a wave before
//! the next op, so at the shipped widths (1, 4 and 8 words per plane)
//! every op is decoded once per wave and runs as one fully unrolled
//! `[u64; W]` load-compute-store per storage. A full RACER wave is one
//! storage, its plane bank, at 8 words ([`crate::PlaneBank`]).
//!
//! Compilation changes no plane write: a compiled recipe executes the
//! *same* plane writes, with the same fault-site draws, in the same order
//! as interpreting the micro-ops, so results are byte-identical
//! (differential tests in `tests/inplace_differential.rs` and the
//! exhaustive decode test below enforce this).

use crate::bitplane::{
    fill, plane_kernel, with_width, BitPlaneVrf, Plane, VrfState, WidthJob, SCRATCH_PLANES,
};
use crate::microop::{lut3_word, MicroOp, MicroOpKind};
use crate::recipe::{map_operands, operands};
use crate::DATA_BITS;
use mpu_isa::{Instruction, RegId};
use std::borrow::BorrowMut;
use std::sync::Arc;

/// The word function of a compiled gate, decoded from its truth table
/// (see [`decode`]). Functions of one input read `a`, of two `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LutFn {
    /// The constant `0` or `1` (reads nothing).
    Const(bool),
    /// `a`.
    Copy,
    /// `!a`.
    Not,
    /// `a & b`.
    And,
    /// `a | b`.
    Or,
    /// `a ^ b`.
    Xor,
    /// `!(a | b)`.
    Nor,
    /// `!(a & b)`.
    Nand,
    /// `!(a ^ b)`.
    Xnor,
    /// `a & !b`.
    AndNot,
    /// `a | !b`.
    OrNot,
    /// `maj(a, b, c)` (table `0xe8`).
    Maj,
    /// `a ^ b ^ c` (table `0x96`).
    Xor3,
    /// `a ? b : c` (table `0xd8`).
    Mux,
    /// Any other function of three distinct inputs, evaluated by the
    /// branch-free [`lut3_word`].
    Table(u8),
}

/// The named word functions as truth tables over the operand slots
/// `(a, b, c)` (bit `i` is the output for `a | b<<1 | c<<2`); a function
/// of fewer inputs ignores the trailing slots. Every function of at most
/// two inputs is named.
const NAMED: [(u8, LutFn); 15] = [
    (0x00, LutFn::Const(false)),
    (0xff, LutFn::Const(true)),
    (0xaa, LutFn::Copy),
    (0x55, LutFn::Not),
    (0x88, LutFn::And),
    (0xee, LutFn::Or),
    (0x66, LutFn::Xor),
    (0x11, LutFn::Nor),
    (0x77, LutFn::Nand),
    (0x99, LutFn::Xnor),
    (0x22, LutFn::AndNot),
    (0xbb, LutFn::OrNot),
    (0xe8, LutFn::Maj),
    (0x96, LutFn::Xor3),
    (0xd8, LutFn::Mux),
];

/// Per operand slot, the truth-table entries whose index has its bit set.
const SLOT: [u8; 3] = [0xaa, 0xcc, 0xf0];

/// Operand slot orders tried when naming a table: slot `i` of the
/// permuted table is slot `perm[i]` of the original.
const PERMS: [[usize; 3]; 6] = [[0, 1, 2], [1, 0, 2], [0, 2, 1], [2, 0, 1], [1, 2, 0], [2, 1, 0]];

/// `table` with slot `i`'s input fixed to `value`; slot `i` is dead after.
const fn fix(table: u8, i: usize, value: bool) -> u8 {
    let s = 1 << i;
    if value {
        let one = table & SLOT[i];
        one | one >> s
    } else {
        let zero = table & !SLOT[i];
        zero | zero << s
    }
}

/// `table` with slot `j`'s input tied to slot `i`'s; slot `j` is dead after.
const fn tie(table: u8, i: usize, j: usize) -> u8 {
    // Keep the entries where both inputs agree, copied across slot `j`.
    let agree = table & !(SLOT[i] ^ SLOT[j]);
    let s = 1 << j;
    agree | (agree & !SLOT[i]) << s | (agree & SLOT[i]) >> s
}

/// `table` with its slots permuted by `perm` (see [`PERMS`]).
const fn permute(table: u8, perm: [usize; 3]) -> u8 {
    let mut out = 0;
    let mut j = 0;
    while j < 8 {
        let idx = (j & 1) << perm[0] | (j >> 1 & 1) << perm[1] | (j >> 2 & 1) << perm[2];
        out |= (table >> idx & 1) << j;
        j += 1;
    }
    out
}

/// Every truth table's name, with the index into [`PERMS`] of the first
/// slot order under which it has that name — or [`LutFn::Table`] in the
/// identity order when it has none. Evaluated when the crate is built.
static CLASSES: [(LutFn, u8); 256] = {
    let mut classes = [(LutFn::Const(false), 0); 256];
    let mut t = 0;
    while t < 256 {
        classes[t] = (LutFn::Table(t as u8), 0);
        // Search backwards so that the first matching order wins.
        let mut p = PERMS.len();
        while p > 0 {
            p -= 1;
            let permuted = permute(t as u8, PERMS[p]);
            let mut n = 0;
            while n < NAMED.len() {
                if NAMED[n].0 == permuted {
                    classes[t] = (NAMED[n].1, p as u8);
                }
                n += 1;
            }
        }
        t += 1;
    }
    classes
};

/// Decodes the 3-input truth table `table` over the planes `ins` into the
/// word function it computes and, per operand slot of that function, the
/// index into `ins` it reads (slots past the function's inputs are never
/// read).
///
/// Constant operands and repeats of an earlier operand are first folded
/// into the table, leaving their slots dead. Naming the folded table
/// ([`CLASSES`]) then reduces it to its support: a table with dead slots
/// equals a named function of fewer inputs once its live slots are
/// permuted to the front. A table over three distinct live inputs with no
/// name stays a [`LutFn::Table`] in operand order.
#[inline]
pub(crate) fn decode(table: u8, ins: [Plane; 3]) -> (LutFn, [usize; 3]) {
    let mut t = table;
    for (i, p) in ins.into_iter().enumerate() {
        if let Plane::Const(value) = p {
            t = fix(t, i, value);
        } else if let Some(k) = ins[..i].iter().position(|&q| q == p) {
            t = tie(t, k, i);
        }
    }
    let (func, perm) = CLASSES[usize::from(t)];
    (func, PERMS[usize::from(perm)])
}

/// One micro-op with operands resolved to word offsets into VRF storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CompiledOp {
    /// Any single-output plane op — NOR, TRA, NOT, AND, OR, XOR, COPY,
    /// SET or a LUT query — as `out = func(a, b, c)`; operands the function
    /// does not read hold any valid offset. `kind` is the source micro-op's
    /// kind, which alone selects the fault-site draw.
    Gate { kind: MicroOpKind, func: LutFn, a: u32, b: u32, c: u32, out: u32, masked: bool },
    /// CMOS full adder; `latch` is the reserved scratch plane staging the
    /// sum so the carry-in can be read before the carry plane is
    /// overwritten — the exact plane-write sequence of the interpreter.
    FullAdd {
        a: u32,
        b: u32,
        carry: u32,
        sum: u32,
        latch: u32,
        carry_masked: bool,
        sum_masked: bool,
    },
    /// Word-serial instruction (UPMEM-style DPU). Operands stay symbolic:
    /// execution reads whole registers through the VRF's transpose path,
    /// so there is nothing to pre-resolve — and the fast word loop cannot
    /// run it (a recipe containing one is not [`CompiledRecipe::fast`]).
    Word { instr: Instruction },
}

/// A recipe compiled for one VRF geometry: plane operands resolved to flat
/// storage offsets, mask-target decisions precomputed. The offsets are for
/// VRFs kept in plane banks of [`Self::bank`] members
/// ([`crate::PlaneBank`]; 1 for a VRF that owns its planes): plane `p`
/// starts at word `p × bank × words`.
///
/// Built via [`crate::Recipe::compile`] or [`Self::relocate`] and executed
/// with [`BitPlaneVrf::run_compiled`]. Execution is byte-identical to
/// interpreting the recipe's micro-ops in order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRecipe {
    ops: Vec<CompiledOp>,
    lanes: usize,
    regs: usize,
    bank: usize,
    mix: [u32; MicroOpKind::ALL.len()],
    fast: bool,
    saved_uops: u32,
}

impl CompiledRecipe {
    /// Lane count this recipe was compiled for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Architectural register count this recipe was compiled for.
    pub fn regs(&self) -> usize {
        self.regs
    }

    /// VRFs per plane bank this recipe was compiled for.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Number of compiled micro-ops (equals the source recipe's length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty recipe.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Micro-op counts per kind, indexed by [`MicroOpKind::index`].
    /// Precomputed at compile time so execution tracing can attribute
    /// micro-op classes without rescanning the recipe.
    pub fn mix(&self) -> [u32; MicroOpKind::ALL.len()] {
        self.mix
    }

    /// The resolved op sequence.
    pub(crate) fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// True when [`crate::run_batch`] may run this recipe on its
    /// bookkeeping-free word loop: the geometry has no padding bits
    /// (`lanes % 64 == 0`), no op writes the mask plane, and no op is
    /// word-serial.
    pub fn fast(&self) -> bool {
        self.fast
    }

    /// Micro-ops the recipe optimizer removed from the synthesized template
    /// ([`crate::Recipe::saved_uops`]). The simulator charges this into
    /// `Stats::uops_saved`.
    pub fn saved_uops(&self) -> u32 {
        self.saved_uops
    }

    /// This template, compiled for the instruction shape `shape`
    /// ([`crate::recipe_shape`]), bound to `instr`'s registers: every
    /// offset inside the plane block of one of `shape`'s operand registers
    /// moves to the block of `instr`'s register in the same operand slot,
    /// and every word-serial op renames its registers the same way. Temp
    /// registers, scratch and special planes stay put. The result equals
    /// compiling `instr`'s own recipe.
    ///
    /// # Panics
    ///
    /// Panics as compiling `instr`'s recipe would if a bound plane lies in
    /// a register the VRF does not have ("register 16 out of range (VRF has
    /// 16)"), at the first such operand in compile order. Word-serial ops
    /// resolve registers only when they run, so they never panic here.
    pub fn relocate(&self, shape: &Instruction, instr: &Instruction) -> CompiledRecipe {
        let binding: Vec<(u16, u16)> = operands(shape).into_iter().zip(operands(instr)).collect();
        let bind = |r: u16| binding.iter().find(|&&(from, _)| from == r).map_or(r, |&(_, to)| to);
        let pitch = self.bank * self.lanes.div_ceil(64);
        let (regs, block) = (self.regs, DATA_BITS * pitch as u32);
        let arch = regs as u32 * block;
        let rebase = |offset: u32| {
            if offset >= arch {
                return offset;
            }
            let reg = offset / block;
            let to = u32::from(bind(reg as u16));
            assert!((to as usize) < regs, "register {to} out of range (VRF has {regs})");
            offset - reg * block + to * block
        };
        let ops = self
            .ops
            .iter()
            .map(|op| match *op {
                // Fields in the order `compile` resolves them, so the first
                // register out of range is the one compiling would report.
                CompiledOp::Gate { kind, func, a, b, c, out, masked } => {
                    let [a, b, c, out] = [a, b, c, out].map(rebase);
                    CompiledOp::Gate { kind, func, a, b, c, out, masked }
                }
                CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked, sum_masked } => {
                    let [carry, sum, a, b] = [carry, sum, a, b].map(rebase);
                    CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked, sum_masked }
                }
                CompiledOp::Word { instr: w } => CompiledOp::Word {
                    instr: map_operands(&w, |r| RegId(bind(r.0))).expect("a compute instruction"),
                },
            })
            .collect();
        CompiledRecipe { ops, ..*self }
    }
}

/// Plane-address resolver for a VRF geometry; mirrors the (private)
/// layout arithmetic of [`BitPlaneVrf`], including its panic conditions,
/// so compile-time errors match interpret-time errors.
struct Layout {
    regs: usize,
    /// Words from one plane's start to the next.
    pitch: usize,
}

impl Layout {
    fn base(&self, plane: Plane) -> u32 {
        let arch = self.regs * DATA_BITS as usize;
        let index = match plane {
            Plane::Reg { reg, bit } => {
                let (reg, bit) = (reg as usize, bit as usize);
                assert!(reg < self.regs, "register {reg} out of range (VRF has {})", self.regs);
                assert!(bit < DATA_BITS as usize, "bit {bit} out of range");
                reg * DATA_BITS as usize + bit
            }
            Plane::Scratch(i) => {
                assert!((i as usize) < SCRATCH_PLANES, "scratch plane {i} out of range");
                arch + i as usize
            }
            Plane::Cond => arch + SCRATCH_PLANES,
            Plane::Mask => arch + SCRATCH_PLANES + 1,
            Plane::Const(false) => arch + SCRATCH_PLANES + 2,
            Plane::Const(true) => arch + SCRATCH_PLANES + 3,
        };
        (index * self.pitch) as u32
    }

    fn out(&self, plane: Plane) -> (u32, bool) {
        assert!(!matches!(plane, Plane::Const(_)), "constant planes are read-only");
        (self.base(plane), BitPlaneVrf::is_masked_target(plane))
    }
}

/// Compiles a micro-op sequence for `(lanes, regs)` VRFs kept in plane
/// banks of `bank` members; the optimizer removed `saved_uops` micro-ops
/// from its template.
pub(crate) fn compile(
    ops: &[MicroOp],
    [lanes, regs, bank]: [usize; 3],
    saved_uops: u32,
) -> CompiledRecipe {
    assert!(lanes > 0, "a VRF needs at least one lane");
    assert!(regs > 0 && regs <= 64, "register count must be in 1..=64");
    assert!(bank > 0, "a plane bank needs at least one member");
    let layout = Layout { regs, pitch: bank * lanes.div_ceil(64) };
    let latch = layout.base(Plane::Scratch(SCRATCH_PLANES as u16 - 1));
    let mask = layout.base(Plane::Mask);
    let mut mix = [0u32; MicroOpKind::ALL.len()];
    let mut fast = lanes.is_multiple_of(64);
    // Fills operand slots a function does not read.
    const F: Plane = Plane::Const(false);
    let compiled = ops
        .iter()
        .map(|op| {
            let kind = op.kind();
            mix[kind.index()] += 1;
            let (func, ins, out) = match *op {
                MicroOp::Nor { a, b, out } => (LutFn::Nor, [a, b, F], out),
                MicroOp::Not { a, out } => (LutFn::Not, [a, F, F], out),
                MicroOp::And { a, b, out } => (LutFn::And, [a, b, F], out),
                MicroOp::Or { a, b, out } => (LutFn::Or, [a, b, F], out),
                MicroOp::Xor { a, b, out } => (LutFn::Xor, [a, b, F], out),
                MicroOp::Tra { a, b, c, out } => (LutFn::Maj, [a, b, c], out),
                MicroOp::Copy { a, out } => (LutFn::Copy, [a, F, F], out),
                MicroOp::Set { out, value } => (LutFn::Const(value), [F; 3], out),
                MicroOp::Lut { a, b, c, out, table } => {
                    // The slots permute the operands, so each is still
                    // resolved below and an out-of-range plane panics as it
                    // does in `apply`.
                    let ins = [a, b, c];
                    let (func, slots) = decode(table, ins);
                    (func, slots.map(|k| ins[k]), out)
                }
                MicroOp::FullAdd { a, b, carry, sum } => {
                    let (carry, carry_masked) = layout.out(carry);
                    let (sum, sum_masked) = layout.out(sum);
                    fast &= carry != mask && sum != mask;
                    return CompiledOp::FullAdd {
                        a: layout.base(a),
                        b: layout.base(b),
                        carry,
                        sum,
                        latch,
                        carry_masked,
                        sum_masked,
                    };
                }
                MicroOp::Word { instr } => {
                    fast = false;
                    return CompiledOp::Word { instr };
                }
            };
            let [a, b, c] = ins.map(|p| layout.base(p));
            let (out, masked) = layout.out(out);
            fast &= out != mask;
            CompiledOp::Gate { kind, func, a, b, c, out, masked }
        })
        .collect();
    CompiledRecipe { ops: compiled, lanes, regs, bank, mix, fast, saved_uops }
}

/// Where decoded ops run their word loop: the VRF itself, with its
/// post-write bookkeeping, for [`run_ops`]; a wave's bare storages at one
/// chunk width for [`run_ops_fast`]. Both run [`plane_kernel`]: `out =
/// f(ins)` over word offsets into VRF storage, with `out` free to alias
/// any input.
trait WordLoops {
    fn op(&mut self, ins: [usize; 3], out: usize, masked: bool, f: impl Fn(u64, u64, u64) -> u64);
}

impl<S: AsRef<[u64]> + AsMut<[u64]>, T: BorrowMut<VrfState>> WordLoops for BitPlaneVrf<S, T> {
    #[inline(always)]
    fn op(&mut self, ins: [usize; 3], out: usize, masked: bool, f: impl Fn(u64, u64, u64) -> u64) {
        self.plane_op(ins, out, masked, f)
    }
}

/// Runs one decoded gate: the match on `func` happens once per op, and
/// each arm's word loop is monomorphized over its constant function.
/// Functions of fewer than three inputs repeat a read operand in the
/// unused slots.
#[inline(always)]
fn run_gate(l: &mut impl WordLoops, func: LutFn, [a, b, c]: [u32; 3], out: u32, masked: bool) {
    let (a, b, c, out) = (a as usize, b as usize, c as usize, out as usize);
    let (one, two, three) = ([a; 3], [a, b, b], [a, b, c]);
    match func {
        LutFn::Const(value) => l.op([out; 3], out, masked, fill(value)),
        LutFn::Copy => l.op(one, out, masked, |x, _, _| x),
        LutFn::Not => l.op(one, out, masked, |x, _, _| !x),
        LutFn::And => l.op(two, out, masked, |x, y, _| x & y),
        LutFn::Or => l.op(two, out, masked, |x, y, _| x | y),
        LutFn::Xor => l.op(two, out, masked, |x, y, _| x ^ y),
        LutFn::Nor => l.op(two, out, masked, |x, y, _| !(x | y)),
        LutFn::Nand => l.op(two, out, masked, |x, y, _| !(x & y)),
        LutFn::Xnor => l.op(two, out, masked, |x, y, _| !(x ^ y)),
        LutFn::AndNot => l.op(two, out, masked, |x, y, _| x & !y),
        LutFn::OrNot => l.op(two, out, masked, |x, y, _| x | !y),
        LutFn::Maj => l.op(three, out, masked, |x, y, z| (x & y) | (y & z) | (x & z)),
        LutFn::Xor3 => l.op(three, out, masked, |x, y, z| x ^ y ^ z),
        LutFn::Mux => l.op(three, out, masked, |x, y, z| (x & y) | (!x & z)),
        LutFn::Table(t) => l.op(three, out, masked, |x, y, z| lut3_word(t, x, y, z)),
    }
}

/// Runs a full adder: the same three plane writes, in the same order, as
/// the interpreted FULLADD — stage the sum, update the carry, then land
/// the sum.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_full_add(
    l: &mut impl WordLoops,
    a: u32,
    b: u32,
    carry: u32,
    sum: u32,
    latch: u32,
    carry_masked: bool,
    sum_masked: bool,
) {
    let (a, b, carry, sum, latch) =
        (a as usize, b as usize, carry as usize, sum as usize, latch as usize);
    l.op([a, b, carry], latch, false, |x, y, z| x ^ y ^ z);
    l.op([a, b, carry], carry, carry_masked, |x, y, z| (x & y) | (y & z) | (x & z));
    l.op([latch; 3], sum, sum_masked, |x, _, _| x);
}

/// Executes a compiled recipe over a VRF's flat storage. Called through
/// [`BitPlaneVrf::run_compiled`], which has already checked the geometry.
pub(crate) fn run<S, T>(vrf: &mut BitPlaneVrf<S, T>, recipe: &CompiledRecipe)
where
    S: AsRef<[u64]> + AsMut<[u64]>,
    T: BorrowMut<VrfState>,
{
    run_ops(vrf, &recipe.ops);
}

/// Executes a slice of resolved ops — the shared word-loop core of both
/// [`run`] and the block tier's compute runs, so every execution path
/// performs the identical plane writes (and fault-site draws) in the
/// identical order.
pub(crate) fn run_ops<S, T>(vrf: &mut BitPlaneVrf<S, T>, ops: &[CompiledOp])
where
    S: AsRef<[u64]> + AsMut<[u64]>,
    T: BorrowMut<VrfState>,
{
    // GETMASK-style mask suspension is a control-path affair, but honour it
    // here too so compiled execution and `MicroOp::apply` never diverge.
    let me = vrf.mask_enabled();
    let inject = vrf.fault_model().is_some();
    for op in ops {
        // With a fault model attached, draw exactly one transient-fault
        // site per micro-op on its output plane — the same `(kind, plane)`
        // sequence `MicroOp::apply` draws, so both paths stay
        // byte-identical under injection.
        match *op {
            CompiledOp::Gate { kind, func, a, b, c, out, masked } => {
                run_gate(vrf, func, [a, b, c], out, masked && me);
                if inject {
                    vrf.post_op_at(kind, out as usize);
                }
            }
            CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked, sum_masked } => {
                run_full_add(vrf, a, b, carry, sum, latch, carry_masked && me, sum_masked && me);
                if inject {
                    vrf.post_op_at(MicroOpKind::FullAdd, sum as usize);
                }
            }
            CompiledOp::Word { instr } => {
                // Re-dispatch through the interpreter's op: `apply` calls
                // the shared word evaluator and then makes the same single
                // fault draw on the primary destination, so both tiers are
                // byte-identical by construction.
                MicroOp::Word { instr }.apply(vrf);
            }
        }
    }
}

/// A wave's bare storages at chunk width `W`: the word loop of
/// [`run_ops_fast`], with every post-write bookkeeping step statically
/// discharged. Each op runs over every storage before the next op, so it
/// is decoded once per wave. The first storage is held apart from the
/// rest: a wave held in one storage — a lone VRF, or adjacent members of a
/// plane bank — allocates nothing and runs each op as a single kernel
/// call.
struct FastLoops<'a, 'b, const W: usize> {
    first: &'a mut [u64],
    rest: &'a mut [&'b mut [u64]],
    chunks: usize,
    mask: usize,
}

impl<const W: usize> WordLoops for FastLoops<'_, '_, W> {
    #[inline(always)]
    fn op(&mut self, ins: [usize; 3], out: usize, masked: bool, f: impl Fn(u64, u64, u64) -> u64) {
        let mask = masked.then_some(self.mask);
        plane_kernel::<W>(self.first, self.chunks, ins, out, mask, &f);
        for st in self.rest.iter_mut() {
            plane_kernel::<W>(st, self.chunks, ins, out, mask, &f)
        }
    }
}

/// Executes fast recipes, in order, over a wave's plane storages with
/// every [`BitPlaneVrf`] post-write bookkeeping step statically
/// discharged — the block tier's fast path. Each micro-op is decoded once
/// and applied to every storage before the next one.
///
/// Each storage starts at a member's first word and holds `width` words
/// of each plane the recipes were compiled for: one member's `words`, or
/// adjacent members of a plane bank side by side, which then run as one
/// wide VRF. `mask` is the offset of the mask plane. The masked merge
/// `(new & m) | (old & !m)` under a full mask is the plain write, so the
/// ops' mask flags are ignored unless `merge`.
///
/// The caller ([`crate::run_batch`]) must have proven:
///
/// * every recipe is [`CompiledRecipe::fast`] and compiled for the
///   storages' layout: `lanes % 64 == 0` (no padding bits to re-zero after
///   a write), no op writes the mask plane (the cached mask popcount
///   cannot go stale), no op is word-serial;
/// * no member has a fault model — no fault-site draws, no forced lanes;
/// * every member has mask-honouring enabled (no suspended `GETMASK`
///   readout in flight);
/// * no VRF is a member twice. Members are independent, so running op by
///   op across the wave leaves each one as running its recipes alone.
///
/// Under those conditions `finish_write` is a no-op for every single op,
/// so this loop performs the *identical* plane writes as [`run_ops`] —
/// byte-identical storage afterwards — while touching only the operand
/// words.
pub(crate) fn run_ops_fast(
    first: &mut [u64],
    rest: &mut [&mut [u64]],
    width: usize,
    mask: usize,
    merge: bool,
    recipes: &[Arc<CompiledRecipe>],
) {
    struct Fast<'a, 'b> {
        first: &'a mut [u64],
        rest: &'a mut [&'b mut [u64]],
        mask: usize,
        recipes: &'a [Arc<CompiledRecipe>],
        merge: bool,
    }
    impl WidthJob for Fast<'_, '_> {
        // Inlined into each arm of `with_width`, so at the shipped widths
        // the chunk count is the literal 1 and each op is one fully
        // unrolled `[u64; W]` load-compute-store per storage.
        #[inline(always)]
        fn run<const W: usize>(self, chunks: usize) {
            let (first, rest, mask) = (self.first, self.rest, self.mask);
            let l = &mut FastLoops::<W> { first, rest, chunks, mask };
            let merge = self.merge;
            for recipe in self.recipes {
                for op in recipe.ops() {
                    match *op {
                        CompiledOp::Gate { func, a, b, c, out, masked, .. } => {
                            run_gate(l, func, [a, b, c], out, masked && merge)
                        }
                        CompiledOp::FullAdd {
                            a,
                            b,
                            carry,
                            sum,
                            latch,
                            carry_masked,
                            sum_masked,
                        } => {
                            let (carry_masked, sum_masked) =
                                (carry_masked && merge, sum_masked && merge);
                            run_full_add(l, a, b, carry, sum, latch, carry_masked, sum_masked)
                        }
                        CompiledOp::Word { .. } => {
                            // Word ops need the whole VRF (transpose reads/writes),
                            // so a recipe containing one is never fast.
                            unreachable!("word-serial ops are excluded from the fast path")
                        }
                    }
                }
            }
        }
    }
    // The width is fixed per wave, so it is matched once per run.
    with_width(width, Fast { first, rest, mask, recipes, merge });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::{build_recipe, RecipeCtx};
    use crate::LogicFamily;
    use mpu_isa::{BinaryOp, Instruction, RegId};

    fn ctx(family: LogicFamily) -> RecipeCtx {
        RecipeCtx { family, ..crate::DatapathModel::racer().recipe_ctx() }
    }

    #[test]
    fn compiled_matches_interpreted_for_add() {
        let instr =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        for family in LogicFamily::ALL {
            let recipe = build_recipe(ctx(family), &instr).unwrap();
            let compiled = recipe.compile(100, 16);
            assert_eq!(compiled.len(), recipe.len());

            let mut a = BitPlaneVrf::new(100, 16);
            let xs: Vec<u64> = (0..100).map(|i| i * 3 + 1).collect();
            let ys: Vec<u64> = (0..100).map(|i| i * 7 + 2).collect();
            a.write_lane_values(0, &xs);
            a.write_lane_values(1, &ys);
            let mut b = a.clone();

            for op in recipe.ops() {
                op.apply(&mut a);
            }
            b.run_compiled(&compiled);
            assert_eq!(a, b, "family {family:?}");
        }
    }

    #[test]
    fn fault_injection_is_byte_identical_across_paths() {
        // Both execution paths must draw the same fault-site sequence:
        // one draw per micro-op, on the op's output plane.
        let instr =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        for family in [LogicFamily::Nor, LogicFamily::Maj, LogicFamily::Bitline, LogicFamily::Lut] {
            let recipe = build_recipe(ctx(family), &instr).unwrap();
            let compiled = recipe.compile(100, 16);

            let mut a = BitPlaneVrf::new(100, 16);
            a.write_lane_values(0, &[0x1234_5678; 100]);
            a.write_lane_values(1, &[0x9abc_def0; 100]);
            let mut fm = crate::FaultModel::new(0xBEEF, 100);
            for kind in crate::MicroOpKind::ALL {
                fm.set_transient_rate(kind, 0.25);
            }
            a.set_fault_model(Some(fm));
            let mut b = a.clone();

            for op in recipe.ops() {
                op.apply(&mut a);
            }
            b.run_compiled(&compiled);
            assert_eq!(a, b, "family {family:?}");
            let model = a.fault_model().unwrap();
            assert!(model.site() > 0, "a 25% rate over a full ADD recipe must draw");
            assert!(model.injected() > 0, "and some flips must land");
        }
    }

    #[test]
    fn word_fault_injection_is_byte_identical_across_paths() {
        // A word recipe is a single micro-op, so drive the rate to 1.0 to
        // guarantee the one draw lands on both paths.
        let instr =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        let recipe = build_recipe(ctx(LogicFamily::WordSerial), &instr).unwrap();
        let compiled = recipe.compile(100, 16);

        let mut a = BitPlaneVrf::new(100, 16);
        a.write_lane_values(0, &[0x1234_5678; 100]);
        a.write_lane_values(1, &[0x9abc_def0; 100]);
        let mut fm = crate::FaultModel::new(0xBEEF, 100);
        for kind in crate::MicroOpKind::ALL {
            fm.set_transient_rate(kind, 1.0);
        }
        a.set_fault_model(Some(fm));
        let mut b = a.clone();

        for op in recipe.ops() {
            op.apply(&mut a);
        }
        b.run_compiled(&compiled);
        assert_eq!(a, b);
        let model = a.fault_model().unwrap();
        assert_eq!(model.site(), 2, "one decision draw + one lane draw per word recipe");
        assert!(model.injected() > 0);
    }

    #[test]
    #[should_panic(expected = "different VRF geometry")]
    fn geometry_mismatch_is_rejected() {
        let instr =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        let recipe = build_recipe(ctx(LogicFamily::Nor), &instr).unwrap();
        let compiled = recipe.compile(64, 16);
        let mut vrf = BitPlaneVrf::new(128, 16);
        vrf.run_compiled(&compiled);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn compiling_const_writes_panics_like_the_interpreter() {
        compile(&[MicroOp::Set { out: Plane::Const(true), value: false }], [64, 4, 1], 0);
    }

    #[test]
    fn decode_names_the_synthesized_gates() {
        let (a, b, c) = (Plane::Scratch(0), Plane::Reg { reg: 1, bit: 3 }, Plane::Scratch(5));
        let (f, t) = (Plane::Const(false), Plane::Const(true));
        for (table, ins, want, reads) in [
            // LUT-family gates (`lut2` ties `c` to `Const(false)`).
            (0x01, [a, f, f], LutFn::Not, &[a][..]),
            (0x01, [a, b, f], LutFn::Nor, &[a, b][..]),
            (0x06, [a, b, f], LutFn::Xor, &[a, b][..]),
            (0x07, [a, b, f], LutFn::Nand, &[a, b][..]),
            (0x08, [a, b, f], LutFn::And, &[a, b][..]),
            (0x09, [a, b, f], LutFn::Xnor, &[a, b][..]),
            (0x0e, [a, b, f], LutFn::Or, &[a, b][..]),
            (0xe8, [a, b, c], LutFn::Maj, &[a, b, c][..]),
            (0x96, [a, b, c], LutFn::Xor3, &[a, b, c][..]),
            (0xd8, [a, b, c], LutFn::Mux, &[a, b, c][..]),
            // `!a & b` permutes into `b & !a`; `b ? a : c` into a mux.
            (0x04, [a, b, f], LutFn::AndNot, &[b, a][..]),
            (0xb8, [a, b, c], LutFn::Mux, &[b, a, c][..]),
            // Constant and repeated operands fold into the table.
            (0xe8, [a, b, f], LutFn::And, &[a, b][..]),
            (0xe8, [a, t, c], LutFn::Or, &[a, c][..]),
            (0x96, [a, a, c], LutFn::Copy, &[c][..]),
            (0x06, [b, b, f], LutFn::Const(false), &[][..]),
            (0xd8, [t, b, c], LutFn::Copy, &[b][..]),
            (0x2b, [a, b, c], LutFn::Table(0x2b), &[a, b, c][..]),
        ] {
            let (func, slots) = decode(table, ins);
            let arity = match func {
                LutFn::Const(_) => 0,
                LutFn::Copy | LutFn::Not => 1,
                LutFn::Maj | LutFn::Xor3 | LutFn::Mux | LutFn::Table(_) => 3,
                _ => 2,
            };
            let read: Vec<Plane> = slots[..arity].iter().map(|&k| ins[k]).collect();
            assert_eq!((func, &read[..]), (want, reads), "table {table:#04x} over {ins:?}");
        }
    }

    /// Seeded pseudo-random words (xorshift64).
    fn random_words(state: &mut u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                *state
            })
            .collect()
    }

    #[test]
    fn lut_decode_matches_minterm_oracle_exhaustively() {
        use crate::microop::lut3_minterms;
        let (s0, s1, r) = (Plane::Scratch(0), Plane::Scratch(1), Plane::Reg { reg: 2, bit: 5 });
        let sources = [s0, s1, r, Plane::Const(false), Plane::Const(true)];
        // Unmasked (scratch) and masked (register) outputs, both fresh and
        // aliasing an input.
        let (fresh_scratch, fresh_reg) = (Plane::Scratch(2), Plane::Reg { reg: 3, bit: 1 });
        let outs = [fresh_scratch, fresh_reg, s0, r];
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let mut seeded = |lanes: usize| {
            let mut vrf = BitPlaneVrf::new(lanes, 4);
            for p in [s0, s1, r, fresh_scratch, fresh_reg, Plane::Mask] {
                vrf.set_plane_words(p, &random_words(&mut state, lanes.div_ceil(64)));
            }
            vrf
        };
        let base100 = seeded(100);
        // The fast loop's leg cycles through the shipped plane widths (1, 4
        // and 8 words) and a chunked one (2) by table index, so every width
        // sees all 256 tables at the cost of one.
        let fast_bases = [64, 128, 256, 512].map(|lanes| (lanes, seeded(lanes)));
        let (mut want, mut applied, mut compiled) =
            (base100.clone(), base100.clone(), base100.clone());
        // The expected VRF: `base` with only `out` rewritten, computed by the
        // minterm oracle and merged under the mask for register outputs.
        let oracle = |base: &BitPlaneVrf, want: &mut BitPlaneVrf, op: MicroOp| {
            let MicroOp::Lut { a, b, c, out, table } = op else { unreachable!() };
            let [x, y, z, old, m] = [a, b, c, out, Plane::Mask].map(|p| base.plane_words(p));
            let new: Vec<u64> = (0..x.len())
                .map(|w| {
                    let v = lut3_minterms(table, x[w], y[w], z[w]);
                    if matches!(out, Plane::Reg { .. }) {
                        (v & m[w]) | (old[w] & !m[w])
                    } else {
                        v
                    }
                })
                .collect();
            want.clone_from(base);
            want.set_plane_words(out, &new);
        };
        for table in 0..=255u8 {
            let (fast_lanes, base_fast) = &fast_bases[usize::from(table) % fast_bases.len()];
            for a in sources {
                for b in sources {
                    for c in sources {
                        for out in outs {
                            let op = MicroOp::Lut { a, b, c, out, table };
                            let func = decode(table, [a, b, c]).0;
                            // 100 lanes: `apply` against the oracle, then the
                            // general compiled loop against `apply`, padding
                            // words included.
                            oracle(&base100, &mut want, op);
                            applied.clone_from(&base100);
                            op.apply(&mut applied);
                            assert!(applied == want, "apply: {op:?}");
                            compiled.clone_from(&base100);
                            run_ops(&mut compiled, compile(&[op], [100, 4, 1], 0).ops());
                            assert!(compiled == applied, "run_ops as {func:?}: {op:?}");
                            // The fast loop against the oracle.
                            oracle(base_fast, &mut want, op);
                            let mut fast = base_fast.clone();
                            let recipe = Arc::new(compile(&[op], [*fast_lanes, 4, 1], 0));
                            let (width, mask) = (fast.words(), fast.mask_base());
                            let merge = fast.mask_lanes() != *fast_lanes;
                            run_ops_fast(
                                fast.storage_mut(),
                                &mut [],
                                width,
                                mask,
                                merge,
                                &[recipe],
                            );
                            assert!(fast == want, "run_ops_fast as {func:?}: {op:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn decoding_never_changes_the_fault_kind() {
        // A LUT-family NOR (`c` tied to `Const(false)`) decodes to a plain
        // two-operand NOR word loop, yet must still draw its fault site as
        // a LUT query: only `Lut` has a non-zero rate here.
        let ops: Vec<MicroOp> = (0..8u8)
            .map(|i| MicroOp::Lut {
                a: Plane::Reg { reg: 0, bit: i },
                b: Plane::Reg { reg: 1, bit: i },
                c: Plane::Const(false),
                out: Plane::Reg { reg: 2, bit: i },
                table: 0x01,
            })
            .collect();
        let compiled = compile(&ops, [100, 4, 1], 0);
        for op in compiled.ops() {
            assert!(
                matches!(op, CompiledOp::Gate { kind: MicroOpKind::Lut, func: LutFn::Nor, .. }),
                "{op:?}"
            );
        }
        let mut a = BitPlaneVrf::new(100, 4);
        a.write_lane_values(0, &(0..100).map(|i| i * 0x9e37_79b9).collect::<Vec<_>>());
        a.write_lane_values(1, &(0..100).map(|i| i * 0x7f4a_7c15 + 3).collect::<Vec<_>>());
        let mut fm = crate::FaultModel::new(0xBEEF, 100);
        fm.set_transient_rate(MicroOpKind::Lut, 1.0);
        a.set_fault_model(Some(fm));
        let mut b = a.clone();
        for op in &ops {
            op.apply(&mut a);
        }
        b.run_compiled(&compiled);
        assert!(a == b, "compiled and op-by-op storage diverged under injection");
        for vrf in [&a, &b] {
            let model = vrf.fault_model().unwrap();
            // One `Lut` site per op: at rate 1.0, a decision draw that
            // always hits plus the lane draw.
            assert_eq!(model.site(), 2 * ops.len() as u64);
            assert!(model.injected() > 0);
        }
    }
}
