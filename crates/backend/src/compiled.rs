//! Pre-compiled recipes: micro-op sequences with plane addresses resolved.
//!
//! [`MicroOp::apply`] re-resolves every `Plane` operand — a match plus
//! bounds asserts — on every application, and a 32-bit MUL replays ~19k
//! micro-ops per VRF per wave. [`CompiledRecipe`] hoists that work to
//! synthesis time: each operand becomes a word offset into the VRF's flat
//! storage, and each output carries its precomputed "honours the lane
//! mask" flag. The compiled form is built once per `(recipe, geometry)`
//! and cached alongside the recipe in the simulator's recipe cache/pool,
//! so the steady-state execution loop is pure word arithmetic.
//!
//! Compilation is purely an address-resolution step: a compiled recipe
//! executes the *same* plane writes in the same order as interpreting the
//! micro-ops, so results are byte-identical (differential tests in
//! `tests/inplace_differential.rs` enforce this).

use crate::bitplane::{BitPlaneVrf, Plane, SCRATCH_PLANES};
use crate::microop::{lut3_word, MicroOp, MicroOpKind};
use crate::DATA_BITS;
use mpu_isa::Instruction;

/// Two-input boolean function of a compiled micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Func2 {
    /// `!(a | b)` (ReRAM NOR).
    Nor,
    /// `!a` (input duplicated on both ports).
    NotA,
    /// `a & b`.
    And,
    /// `a | b`.
    Or,
    /// `a ^ b`.
    Xor,
}

/// One micro-op with operands resolved to word offsets into VRF storage.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompiledOp {
    /// Two-input plane op: `out = func(a, b)`.
    Op2 { func: Func2, a: u32, b: u32, out: u32, masked: bool },
    /// Majority vote: `out = maj(a, b, c)` (DRAM TRA).
    Maj { a: u32, b: u32, c: u32, out: u32, masked: bool },
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
    /// Row copy: `out = a`.
    Copy { a: u32, out: u32, masked: bool },
    /// Constant preset: `out = value`.
    Fill { out: u32, masked: bool, value: bool },
    /// pLUTo LUT query: `out = table[a | b<<1 | c<<2]` per lane.
    Lut { a: u32, b: u32, c: u32, out: u32, table: u8, masked: bool },
    /// Word-serial instruction (UPMEM-style DPU). Operands stay symbolic:
    /// execution reads whole registers through the VRF's transpose path,
    /// so there is nothing to pre-resolve — and the fast word loop cannot
    /// run it (the fuser marks traces containing word ops as non-fast).
    Word { instr: Instruction },
}

/// A recipe compiled for one VRF geometry: plane operands resolved to flat
/// storage offsets, mask-target decisions precomputed.
///
/// Built via [`crate::Recipe::compile`] and executed with
/// [`BitPlaneVrf::run_compiled`]. Execution is byte-identical to
/// interpreting the recipe's micro-ops in order.
#[derive(Debug, Clone)]
pub struct CompiledRecipe {
    ops: Vec<CompiledOp>,
    lanes: usize,
    regs: usize,
    mix: [u32; MicroOpKind::ALL.len()],
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

    /// The resolved op sequence (ensemble-trace fusion concatenates these).
    pub(crate) fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }
}

/// Plane-address resolver for a VRF geometry; mirrors the (private)
/// layout arithmetic of [`BitPlaneVrf`], including its panic conditions,
/// so compile-time errors match interpret-time errors.
struct Layout {
    regs: usize,
    words: usize,
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
        (index * self.words) as u32
    }

    fn out(&self, plane: Plane) -> (u32, bool) {
        assert!(!matches!(plane, Plane::Const(_)), "constant planes are read-only");
        (self.base(plane), BitPlaneVrf::is_masked_target(plane))
    }
}

/// Compiles a micro-op sequence for a `(lanes, regs)` VRF geometry.
pub(crate) fn compile(ops: &[MicroOp], lanes: usize, regs: usize) -> CompiledRecipe {
    assert!(lanes > 0, "a VRF needs at least one lane");
    assert!(regs > 0 && regs <= 64, "register count must be in 1..=64");
    let layout = Layout { regs, words: lanes.div_ceil(64) };
    let latch = layout.base(Plane::Scratch(SCRATCH_PLANES as u16 - 1));
    let mut mix = [0u32; MicroOpKind::ALL.len()];
    for op in ops {
        mix[op.kind().index()] += 1;
    }
    let compiled = ops
        .iter()
        .map(|op| match *op {
            MicroOp::Nor { a, b, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Op2 {
                    func: Func2::Nor,
                    a: layout.base(a),
                    b: layout.base(b),
                    out,
                    masked,
                }
            }
            MicroOp::Not { a, out } => {
                let (out, masked) = layout.out(out);
                let a = layout.base(a);
                CompiledOp::Op2 { func: Func2::NotA, a, b: a, out, masked }
            }
            MicroOp::And { a, b, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Op2 {
                    func: Func2::And,
                    a: layout.base(a),
                    b: layout.base(b),
                    out,
                    masked,
                }
            }
            MicroOp::Or { a, b, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Op2 {
                    func: Func2::Or,
                    a: layout.base(a),
                    b: layout.base(b),
                    out,
                    masked,
                }
            }
            MicroOp::Xor { a, b, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Op2 {
                    func: Func2::Xor,
                    a: layout.base(a),
                    b: layout.base(b),
                    out,
                    masked,
                }
            }
            MicroOp::Tra { a, b, c, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Maj {
                    a: layout.base(a),
                    b: layout.base(b),
                    c: layout.base(c),
                    out,
                    masked,
                }
            }
            MicroOp::FullAdd { a, b, carry, sum } => {
                let (carry, carry_masked) = layout.out(carry);
                let (sum, sum_masked) = layout.out(sum);
                CompiledOp::FullAdd {
                    a: layout.base(a),
                    b: layout.base(b),
                    carry,
                    sum,
                    latch,
                    carry_masked,
                    sum_masked,
                }
            }
            MicroOp::Copy { a, out } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Copy { a: layout.base(a), out, masked }
            }
            MicroOp::Set { out, value } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Fill { out, masked, value }
            }
            MicroOp::Lut { a, b, c, out, table } => {
                let (out, masked) = layout.out(out);
                CompiledOp::Lut {
                    a: layout.base(a),
                    b: layout.base(b),
                    c: layout.base(c),
                    out,
                    table,
                    masked,
                }
            }
            MicroOp::Word { instr } => CompiledOp::Word { instr },
        })
        .collect();
    CompiledRecipe { ops: compiled, lanes, regs, mix }
}

/// Executes a compiled recipe over a VRF's flat storage. Called through
/// [`BitPlaneVrf::run_compiled`], which has already checked the geometry.
pub(crate) fn run(vrf: &mut BitPlaneVrf, recipe: &CompiledRecipe) {
    run_ops(vrf, &recipe.ops);
}

/// Executes a slice of resolved ops — the shared word-loop core of both
/// [`run`] and the fused ensemble-trace tier, so every execution path
/// performs the identical plane writes (and fault-site draws) in the
/// identical order.
pub(crate) fn run_ops(vrf: &mut BitPlaneVrf, ops: &[CompiledOp]) {
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
            CompiledOp::Op2 { func, a, b, out, masked } => {
                let (a, b, out, masked) = (a as usize, b as usize, out as usize, masked && me);
                match func {
                    Func2::Nor => vrf.op2(a, b, out, masked, |x, y| !(x | y)),
                    Func2::NotA => vrf.op2(a, b, out, masked, |x, _| !x),
                    Func2::And => vrf.op2(a, b, out, masked, |x, y| x & y),
                    Func2::Or => vrf.op2(a, b, out, masked, |x, y| x | y),
                    Func2::Xor => vrf.op2(a, b, out, masked, |x, y| x ^ y),
                }
                if inject {
                    let kind = match func {
                        Func2::Nor => MicroOpKind::Nor,
                        Func2::NotA => MicroOpKind::Not,
                        Func2::And => MicroOpKind::And,
                        Func2::Or => MicroOpKind::Or,
                        Func2::Xor => MicroOpKind::Xor,
                    };
                    vrf.post_op_at(kind, out);
                }
            }
            CompiledOp::Maj { a, b, c, out, masked } => {
                vrf.op3(
                    a as usize,
                    b as usize,
                    c as usize,
                    out as usize,
                    masked && me,
                    |x, y, z| (x & y) | (y & z) | (x & z),
                );
                if inject {
                    vrf.post_op_at(MicroOpKind::Tra, out as usize);
                }
            }
            CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked, sum_masked } => {
                let (a, b, carry) = (a as usize, b as usize, carry as usize);
                // Same three plane writes, in the same order, as the
                // interpreted FullAdd: stage the sum, update the carry,
                // then land the sum.
                vrf.op3(a, b, carry, latch as usize, false, |x, y, z| x ^ y ^ z);
                vrf.op3(a, b, carry, carry, carry_masked && me, |x, y, z| {
                    (x & y) | (y & z) | (x & z)
                });
                vrf.copy_op(latch as usize, sum as usize, sum_masked && me);
                if inject {
                    vrf.post_op_at(MicroOpKind::FullAdd, sum as usize);
                }
            }
            CompiledOp::Copy { a, out, masked } => {
                vrf.copy_op(a as usize, out as usize, masked && me);
                if inject {
                    vrf.post_op_at(MicroOpKind::Copy, out as usize);
                }
            }
            CompiledOp::Fill { out, masked, value } => {
                vrf.fill_op(out as usize, masked && me, value);
                if inject {
                    vrf.post_op_at(MicroOpKind::Set, out as usize);
                }
            }
            CompiledOp::Lut { a, b, c, out, table, masked } => {
                vrf.op3(
                    a as usize,
                    b as usize,
                    c as usize,
                    out as usize,
                    masked && me,
                    |x, y, z| lut3_word(table, x, y, z),
                );
                if inject {
                    vrf.post_op_at(MicroOpKind::Lut, out as usize);
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

/// Pointwise two-input word loop without post-write bookkeeping.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn op2_fast(
    st: &mut [u64],
    words: usize,
    mask: usize,
    a: usize,
    b: usize,
    out: usize,
    masked: bool,
    f: impl Fn(u64, u64) -> u64,
) {
    if masked {
        for w in 0..words {
            let new = f(st[a + w], st[b + w]);
            let m = st[mask + w];
            st[out + w] = (new & m) | (st[out + w] & !m);
        }
    } else {
        for w in 0..words {
            st[out + w] = f(st[a + w], st[b + w]);
        }
    }
}

/// Pointwise three-input word loop without post-write bookkeeping.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn op3_fast(
    st: &mut [u64],
    words: usize,
    mask: usize,
    a: usize,
    b: usize,
    c: usize,
    out: usize,
    masked: bool,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    if masked {
        for w in 0..words {
            let new = f(st[a + w], st[b + w], st[c + w]);
            let m = st[mask + w];
            st[out + w] = (new & m) | (st[out + w] & !m);
        }
    } else {
        for w in 0..words {
            st[out + w] = f(st[a + w], st[b + w], st[c + w]);
        }
    }
}

/// Executes a slice of resolved ops with every [`BitPlaneVrf`] post-write
/// bookkeeping step statically discharged — the ensemble-trace fast path.
///
/// The caller must have proven (the fuser records this as
/// [`crate::EnsembleTrace`]'s fast flag, re-checked per VRF at replay):
///
/// * `lanes % 64 == 0` — no padding bits to re-zero after a write;
/// * no op in the stream writes the mask plane — the cached mask popcount
///   cannot go stale;
/// * no fault model is attached — no fault-site draws, no forced lanes;
/// * mask-honouring is enabled (no suspended `GETMASK` readout in flight).
///
/// Under those conditions `finish_write` is a no-op for every single op,
/// so this loop performs the *identical* plane writes as [`run_ops`] —
/// byte-identical storage afterwards — while touching only the operand
/// words.
pub(crate) fn run_ops_fast(vrf: &mut BitPlaneVrf, ops: &[CompiledOp]) {
    debug_assert!(vrf.fault_model().is_none(), "fast path excludes fault models");
    debug_assert!(vrf.mask_enabled(), "fast path requires mask-honouring enabled");
    debug_assert_eq!(vrf.lanes() % 64, 0, "fast path requires no padding bits");
    let words = vrf.words();
    let mask = vrf.mask_base();
    let st = vrf.storage_mut();
    // Single-word planes (64-lane VRFs, e.g. RACER) are the hottest
    // geometry; the literal-1 call lets the word loops constant-fold away.
    if words == 1 {
        run_ops_fast_inner(st, 1, mask, ops);
    } else {
        run_ops_fast_inner(st, words, mask, ops);
    }
}

#[inline(always)]
fn run_ops_fast_inner(st: &mut [u64], words: usize, mask: usize, ops: &[CompiledOp]) {
    for op in ops {
        match *op {
            CompiledOp::Op2 { func, a, b, out, masked } => {
                let (a, b, out) = (a as usize, b as usize, out as usize);
                match func {
                    Func2::Nor => op2_fast(st, words, mask, a, b, out, masked, |x, y| !(x | y)),
                    Func2::NotA => op2_fast(st, words, mask, a, b, out, masked, |x, _| !x),
                    Func2::And => op2_fast(st, words, mask, a, b, out, masked, |x, y| x & y),
                    Func2::Or => op2_fast(st, words, mask, a, b, out, masked, |x, y| x | y),
                    Func2::Xor => op2_fast(st, words, mask, a, b, out, masked, |x, y| x ^ y),
                }
            }
            CompiledOp::Maj { a, b, c, out, masked } => {
                let (a, b, c, out) = (a as usize, b as usize, c as usize, out as usize);
                op3_fast(st, words, mask, a, b, c, out, masked, |x, y, z| {
                    (x & y) | (y & z) | (x & z)
                });
            }
            CompiledOp::FullAdd { a, b, carry, sum, latch, carry_masked, sum_masked } => {
                let (a, b, carry, sum, latch) =
                    (a as usize, b as usize, carry as usize, sum as usize, latch as usize);
                // Same three plane writes, in the same order, as run_ops.
                op3_fast(st, words, mask, a, b, carry, latch, false, |x, y, z| x ^ y ^ z);
                op3_fast(st, words, mask, a, b, carry, carry, carry_masked, |x, y, z| {
                    (x & y) | (y & z) | (x & z)
                });
                op2_fast(st, words, mask, latch, latch, sum, sum_masked, |x, _| x);
            }
            CompiledOp::Copy { a, out, masked } => {
                let (a, out) = (a as usize, out as usize);
                if masked {
                    op2_fast(st, words, mask, a, a, out, true, |x, _| x);
                } else if a != out {
                    for w in 0..words {
                        st[out + w] = st[a + w];
                    }
                }
            }
            CompiledOp::Fill { out, masked, value } => {
                let out = out as usize;
                let word = if value { !0u64 } else { 0u64 };
                if masked {
                    for w in 0..words {
                        let m = st[mask + w];
                        st[out + w] = (word & m) | (st[out + w] & !m);
                    }
                } else {
                    st[out..out + words].fill(word);
                }
            }
            CompiledOp::Lut { a, b, c, out, table, masked } => {
                let (a, b, c, out) = (a as usize, b as usize, c as usize, out as usize);
                op3_fast(st, words, mask, a, b, c, out, masked, |x, y, z| {
                    lut3_word(table, x, y, z)
                });
            }
            CompiledOp::Word { .. } => {
                // Word ops need the whole VRF (transpose reads/writes), so
                // the fuser never marks traces containing them as fast.
                unreachable!("word-serial ops are excluded from the fast path")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::{build_recipe, RecipeCtx};
    use crate::LogicFamily;
    use mpu_isa::{BinaryOp, Instruction, RegId};

    fn ctx(family: LogicFamily) -> RecipeCtx {
        RecipeCtx { family, temp_regs: (14, 15), opt: Default::default() }
    }

    #[test]
    fn compiled_matches_interpreted_for_add() {
        let instr =
            Instruction::Binary { op: BinaryOp::Add, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        for family in [
            LogicFamily::Nor,
            LogicFamily::Maj,
            LogicFamily::Bitline,
            LogicFamily::Lut,
            LogicFamily::WordSerial,
        ] {
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
        compile(&[MicroOp::Set { out: Plane::Const(true), value: false }], 64, 4);
    }
}
