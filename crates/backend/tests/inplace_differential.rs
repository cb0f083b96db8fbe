//! Differential properties: the in-place engine vs a naive reference.
//!
//! The allocation-free engine in `bitplane.rs` (and its compiled-recipe
//! fast path) must be **byte-identical** to the obvious semantics: stage
//! every result in a freshly allocated buffer, merge through the mask,
//! commit, trim. `RefVrf` below is that naive engine — the shape of the
//! pre-optimization implementation — and these properties pit the two
//! against each other across all logic families, random mask patterns,
//! random micro-op soups, and aliased `out == a` / `out == b` operands.
//! The last two properties pin the block tier's width-specialized word
//! loops (`run_batch`) to op-by-op execution at every plane width, and its
//! wave-wide runs, over every plane-bank layout, to each member running its
//! recipes alone.

use proptest::prelude::*;
use pum_backend::{
    build_recipe, run_batch, BitPlaneVrf, FaultModel, Geometry, LogicFamily, MicroOp, MicroOpKind,
    Plane, PlaneBank, Recipe, RecipeCtx, DATA_BITS, SCRATCH_PLANES,
};
use std::sync::Arc;

use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp};

const W: usize = DATA_BITS as usize;

// ----------------------------------------------------------------------
// Naive reference engine: allocate, compute, mask-merge, commit, trim.
// ----------------------------------------------------------------------

#[derive(Clone)]
struct RefVrf {
    lanes: usize,
    regs: usize,
    words: usize,
    storage: Vec<u64>,
    mask_enabled: bool,
}

impl RefVrf {
    fn new(lanes: usize, regs: usize) -> Self {
        let words = lanes.div_ceil(64);
        let n_planes = regs * W + SCRATCH_PLANES + 4;
        let mut vrf =
            Self { lanes, regs, words, storage: vec![0; n_planes * words], mask_enabled: true };
        vrf.commit(Plane::Mask, vec![!0u64; words]);
        let c1 = vrf.plane_index(Plane::Const(true));
        vrf.storage[c1 * words..(c1 + 1) * words].fill(!0);
        vrf.trim(c1);
        vrf
    }

    fn plane_index(&self, plane: Plane) -> usize {
        let arch = self.regs * W;
        match plane {
            Plane::Reg { reg, bit } => reg as usize * W + bit as usize,
            Plane::Scratch(i) => arch + i as usize,
            Plane::Cond => arch + SCRATCH_PLANES,
            Plane::Mask => arch + SCRATCH_PLANES + 1,
            Plane::Const(false) => arch + SCRATCH_PLANES + 2,
            Plane::Const(true) => arch + SCRATCH_PLANES + 3,
        }
    }

    fn plane(&self, plane: Plane) -> Vec<u64> {
        let i = self.plane_index(plane);
        self.storage[i * self.words..(i + 1) * self.words].to_vec()
    }

    fn trim(&mut self, index: usize) {
        let extra = self.words * 64 - self.lanes;
        if extra > 0 {
            self.storage[index * self.words + self.words - 1] &= !0u64 >> extra;
        }
    }

    /// Staged commit: mask-merge into a fresh buffer, then copy back.
    fn commit(&mut self, out: Plane, mut new: Vec<u64>) {
        assert!(!matches!(out, Plane::Const(_)), "constant planes are read-only");
        let masked = self.mask_enabled && matches!(out, Plane::Reg { .. } | Plane::Cond);
        let i = self.plane_index(out);
        if masked {
            let mask = self.plane(Plane::Mask);
            let old = self.plane(out);
            for w in 0..self.words {
                new[w] = (new[w] & mask[w]) | (old[w] & !mask[w]);
            }
        }
        self.storage[i * self.words..(i + 1) * self.words].copy_from_slice(&new);
        self.trim(i);
    }

    fn apply2(&mut self, a: Plane, b: Plane, out: Plane, f: impl Fn(u64, u64) -> u64) {
        let (a, b) = (self.plane(a), self.plane(b));
        self.commit(out, a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect());
    }

    fn apply3(
        &mut self,
        a: Plane,
        b: Plane,
        c: Plane,
        out: Plane,
        f: impl Fn(u64, u64, u64) -> u64,
    ) {
        let (a, b, c) = (self.plane(a), self.plane(b), self.plane(c));
        let new = (0..self.words).map(|w| f(a[w], b[w], c[w])).collect();
        self.commit(out, new);
    }

    fn apply(&mut self, op: &MicroOp) {
        let latch = Plane::Scratch(SCRATCH_PLANES as u16 - 1);
        match *op {
            MicroOp::Nor { a, b, out } => self.apply2(a, b, out, |x, y| !(x | y)),
            MicroOp::Tra { a, b, c, out } => {
                self.apply3(a, b, c, out, |x, y, z| (x & y) | (y & z) | (x & z))
            }
            MicroOp::Not { a, out } => self.apply2(a, a, out, |x, _| !x),
            MicroOp::And { a, b, out } => self.apply2(a, b, out, |x, y| x & y),
            MicroOp::Or { a, b, out } => self.apply2(a, b, out, |x, y| x | y),
            MicroOp::Xor { a, b, out } => self.apply2(a, b, out, |x, y| x ^ y),
            MicroOp::FullAdd { a, b, carry, sum } => {
                self.apply3(a, b, carry, latch, |x, y, z| x ^ y ^ z);
                self.apply3(a, b, carry, carry, |x, y, z| (x & y) | (y & z) | (x & z));
                let staged = self.plane(latch);
                self.commit(sum, staged);
            }
            MicroOp::Copy { a, out } => {
                let staged = self.plane(a);
                self.commit(out, staged);
            }
            MicroOp::Set { out, value } => {
                let word = if value { !0u64 } else { 0 };
                self.commit(out, vec![word; self.words]);
            }
            // Independent LUT reference: walk the set table bits and OR the
            // AND minterms (not shared with the engine's `lut3_word`).
            MicroOp::Lut { a, b, c, out, table } => {
                self.apply3(a, b, c, out, |x, y, z| {
                    let mut r = 0u64;
                    for idx in 0..8u8 {
                        if table >> idx & 1 == 1 {
                            r |= (if idx & 1 != 0 { x } else { !x })
                                & (if idx & 2 != 0 { y } else { !y })
                                & (if idx & 4 != 0 { z } else { !z });
                        }
                    }
                    r
                });
            }
            MicroOp::Word { .. } => {
                unimplemented!("word ops are covered by recipe-level differential tests")
            }
        }
    }

    /// Per-bit packing, exactly as the pre-transpose data-load path did.
    fn write_lane_values(&mut self, reg: u8, values: &[u64]) {
        for bit in 0..W as u8 {
            let mut words = vec![0u64; self.words];
            for (lane, &v) in values.iter().enumerate() {
                words[lane / 64] |= ((v >> bit) & 1) << (lane % 64);
            }
            let i = self.plane_index(Plane::Reg { reg, bit });
            self.storage[i * self.words..(i + 1) * self.words].copy_from_slice(&words);
        }
    }

    fn read_lane_values(&self, reg: u8) -> Vec<u64> {
        let mut values = vec![0u64; self.lanes];
        for bit in 0..W as u8 {
            let plane = self.plane(Plane::Reg { reg, bit });
            for (lane, v) in values.iter_mut().enumerate() {
                *v |= ((plane[lane / 64] >> (lane % 64)) & 1) << bit;
            }
        }
        values
    }

    /// Overwrites a plane, bypassing the mask.
    fn set_plane(&mut self, plane: Plane, words: Vec<u64>) {
        let i = self.plane_index(plane);
        self.storage[i * self.words..(i + 1) * self.words].copy_from_slice(&words);
        self.trim(i);
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

fn all_planes(regs: usize) -> Vec<Plane> {
    let mut planes = Vec::new();
    for reg in 0..regs as u8 {
        for bit in 0..W as u8 {
            planes.push(Plane::Reg { reg, bit });
        }
    }
    for i in 0..SCRATCH_PLANES as u16 {
        planes.push(Plane::Scratch(i));
    }
    planes.extend([Plane::Cond, Plane::Mask, Plane::Const(false), Plane::Const(true)]);
    planes
}

/// Asserts every plane of the in-place engine matches the reference.
fn assert_engines_agree(fast: &BitPlaneVrf, reference: &RefVrf, ctx: &str) {
    for plane in all_planes(reference.regs) {
        assert_eq!(
            fast.plane_words(plane),
            reference.plane(plane).as_slice(),
            "{ctx}: plane {plane} diverged"
        );
    }
    assert_eq!(
        fast.mask_lanes(),
        fast.count_lanes_set(Plane::Mask),
        "{ctx}: cached mask popcount is stale"
    );
}

/// `(kind, a, b, c, out2, value)` descriptor, decoded against plane pools.
type OpSpec = (u8, usize, usize, usize, usize, bool);

fn arb_op() -> impl Strategy<Value = OpSpec> {
    (0u8..10, 0usize..1024, 0usize..1024, 0usize..1024, 0usize..1024, prop::bool::ANY)
}

/// Decodes an [`OpSpec`] against the input/output plane pools. Inputs may
/// be any plane (constants included); outputs exclude the read-only
/// constant planes but include mask, cond, and scratch.
fn build_op(spec: OpSpec, regs: usize) -> MicroOp {
    let inputs = all_planes(regs);
    let outs: Vec<Plane> =
        inputs.iter().copied().filter(|p| !matches!(p, Plane::Const(_))).collect();
    let (kind, a, b, c, o2, value) = spec;
    let a = inputs[a % inputs.len()];
    let b = inputs[b % inputs.len()];
    let cp = inputs[c % inputs.len()];
    let out = outs[c % outs.len()];
    let out2 = outs[o2 % outs.len()];
    match kind % 10 {
        0 => MicroOp::Nor { a, b, out: out2 },
        1 => MicroOp::Tra { a, b, c: cp, out: out2 },
        2 => MicroOp::Not { a, out: out2 },
        3 => MicroOp::And { a, b, out: out2 },
        4 => MicroOp::Or { a, b, out: out2 },
        5 => MicroOp::Xor { a, b, out: out2 },
        6 => MicroOp::FullAdd { a, b, carry: out, sum: out2 },
        7 => MicroOp::Copy { a, out: out2 },
        8 => MicroOp::Set { out: out2, value },
        _ => MicroOp::Lut { a, b, c: cp, out: out2, table: (spec.1 ^ spec.2 ^ spec.3) as u8 },
    }
}

/// Builds both engines with identical register data and mask pattern.
fn seeded_pair(lanes: usize, regs: usize, seed: u64, mask: &[u64]) -> (BitPlaneVrf, RefVrf) {
    let mut fast = BitPlaneVrf::new(lanes, regs);
    let mut reference = RefVrf::new(lanes, regs);
    for reg in 0..regs as u8 {
        let values: Vec<u64> = (0..lanes as u64)
            .map(|i| (i + 1).wrapping_mul(seed | 1).wrapping_add(reg as u64) ^ (seed >> 7))
            .collect();
        fast.write_lane_values(reg, &values);
        reference.write_lane_values(reg, &values);
    }
    let words = lanes.div_ceil(64);
    let mask_words: Vec<u64> = (0..words).map(|w| mask[w % mask.len()]).collect();
    fast.set_plane_words(Plane::Mask, &mask_words);
    reference.set_plane(Plane::Mask, mask_words);
    (fast, reference)
}

fn ctx(family: LogicFamily) -> RecipeCtx {
    // Synthesis reads only the family, temp registers and optimizer config.
    RecipeCtx { family, ..pum_backend::DatapathModel::racer().recipe_ctx() }
}

fn family_recipes(family: LogicFamily) -> Vec<(String, Recipe)> {
    let binaries = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::And,
        BinaryOp::Nand,
        BinaryOp::Nor,
        BinaryOp::Or,
        BinaryOp::Xor,
        BinaryOp::Xnor,
        BinaryOp::Mul,
    ];
    let mut recipes = Vec::new();
    for op in binaries {
        let instr = Instruction::Binary { op, rs: RegId(0), rt: RegId(1), rd: RegId(2) };
        recipes.push((format!("{op:?}"), build_recipe(ctx(family), &instr).unwrap()));
    }
    for op in [UnaryOp::Inc, UnaryOp::Inv, UnaryOp::LShift, UnaryOp::Mov] {
        let instr = Instruction::Unary { op, rs: RegId(0), rd: RegId(2) };
        recipes.push((format!("{op:?}"), build_recipe(ctx(family), &instr).unwrap()));
    }
    for op in CompareOp::ALL {
        let instr = Instruction::Compare { op, rs: RegId(0), rt: RegId(1) };
        recipes.push((format!("{op:?}"), build_recipe(ctx(family), &instr).unwrap()));
    }
    let init = Instruction::Init { value: InitValue::One, rd: RegId(3) };
    recipes.push(("Init".into(), build_recipe(ctx(family), &init).unwrap()));
    recipes
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random micro-op soups (including aliased and masked outputs, odd
    /// lane counts) leave both engines with byte-identical planes.
    #[test]
    fn random_op_sequences_match_reference(
        lanes in prop::sample::select(vec![64usize, 65, 100, 128, 130, 512]),
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<u64>(), 8),
        specs in prop::collection::vec(arb_op(), 24),
    ) {
        let regs = 4;
        let (mut fast, mut reference) = seeded_pair(lanes, regs, seed, &mask);
        for (i, &spec) in specs.iter().enumerate() {
            let op = build_op(spec, regs);
            op.apply(&mut fast);
            reference.apply(&op);
            assert_engines_agree(&fast, &reference, &format!("lanes={lanes} op#{i} {op:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Explicit aliasing: `out == a` and `out == b` on every two-input op
    /// behave exactly like the staged reference.
    #[test]
    fn aliased_operands_match_reference(
        lanes in prop::sample::select(vec![64usize, 100, 512]),
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<u64>(), 8),
    ) {
        let regs = 2;
        let (mut fast, mut reference) = seeded_pair(lanes, regs, seed, &mask);
        let a = Plane::Scratch(0);
        let b = Plane::Scratch(1);
        let r = Plane::Reg { reg: 0, bit: 7 }; // masked target
        fast.copy_plane(Plane::Reg { reg: 0, bit: 0 }, a);
        reference.apply(&MicroOp::Copy { a: Plane::Reg { reg: 0, bit: 0 }, out: a });
        fast.copy_plane(Plane::Reg { reg: 1, bit: 0 }, b);
        reference.apply(&MicroOp::Copy { a: Plane::Reg { reg: 1, bit: 0 }, out: b });
        let cases = [
            MicroOp::Nor { a, b, out: a },
            MicroOp::Xor { a, b, out: b },
            MicroOp::And { a, b, out: a },
            MicroOp::Or { a, b, out: b },
            MicroOp::Not { a, out: a },
            MicroOp::Nor { a: r, b, out: r },
            MicroOp::Xor { a, b: r, out: r },
            MicroOp::Tra { a, b: a, c: a, out: a },
            MicroOp::FullAdd { a, b, carry: a, sum: b },
            MicroOp::Copy { a, out: a },
            MicroOp::Lut { a, b, c: a, out: a, table: 0x96 },
            MicroOp::Lut { a, b: r, c: b, out: r, table: 0xe8 },
        ];
        for op in cases {
            op.apply(&mut fast);
            reference.apply(&op);
            assert_engines_agree(&fast, &reference, &format!("lanes={lanes} {op:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Whole recipes of every logic family — interpreted, compiled *and*
    /// batched through the block tier — match the reference engine
    /// plane-for-plane, with and without padding lanes.
    #[test]
    fn all_logic_families_match_reference(
        family in prop::sample::select(vec![
            LogicFamily::Nor,
            LogicFamily::Maj,
            LogicFamily::Bitline,
            LogicFamily::Lut,
        ]),
        lanes in prop::sample::select(vec![100usize, 256, 512]),
        seed in any::<u64>(),
        mask in prop::collection::vec(any::<u64>(), 8),
    ) {
        let regs = 16;
        for (name, recipe) in family_recipes(family) {
            let (mut fast, mut reference) = seeded_pair(lanes, regs, seed, &mask);
            let (mut compiled_vrf, mut batch_vrf) = (fast.clone(), fast.clone());
            let compiled = Arc::new(recipe.compile(lanes, regs));
            for op in recipe.ops() {
                op.apply(&mut fast);
                reference.apply(op);
            }
            compiled_vrf.run_compiled(&compiled);
            batch_vrf = run_alone(&batch_vrf, &compiled);
            let ctx = format!("{family:?}/{name} at {lanes} lanes");
            assert_engines_agree(&fast, &reference, &format!("{ctx} interpreted"));
            assert_eq!(fast, compiled_vrf, "{ctx}: compiled form diverged");
            assert_eq!(fast, batch_vrf, "{ctx}: batched form diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `read_lane_values ∘ write_lane_values = id`, including lane counts
    /// that are not multiples of 64 and short writes (implicit zero-pad).
    #[test]
    fn transpose_roundtrip(
        lanes in prop::sample::select(vec![1usize, 7, 63, 64, 65, 100, 127, 128, 130, 257, 512]),
        seed in any::<u64>(),
        fill in 0usize..=100,
    ) {
        let len = lanes * fill / 100;
        let values: Vec<u64> =
            (0..len as u64).map(|i| (i + 1).wrapping_mul(seed | 1)).collect();
        let mut vrf = BitPlaneVrf::new(lanes, 2);
        vrf.write_lane_values(1, &values);
        let mut expect = values.clone();
        expect.resize(lanes, 0);
        prop_assert_eq!(vrf.read_lane_values(1), expect);
    }

    /// The word-level transpose writes exactly the planes the per-bit
    /// packer wrote, and reads back exactly what it read.
    #[test]
    fn transpose_matches_per_bit_reference(
        lanes in prop::sample::select(vec![1usize, 63, 64, 65, 100, 128, 130, 512]),
        seed in any::<u64>(),
    ) {
        let regs = 2;
        let values: Vec<u64> =
            (0..lanes as u64).map(|i| i.wrapping_mul(seed | 1) ^ (seed << 13)).collect();
        let mut fast = BitPlaneVrf::new(lanes, regs);
        let mut reference = RefVrf::new(lanes, regs);
        fast.write_lane_values(0, &values);
        reference.write_lane_values(0, &values);
        for bit in 0..W as u8 {
            let plane = Plane::Reg { reg: 0, bit };
            let expect = reference.plane(plane);
            prop_assert_eq!(fast.plane_words(plane), expect.as_slice(), "bit {}", bit);
        }
        prop_assert_eq!(fast.read_lane_values(0), reference.read_lane_values(0));
    }
}

// ----------------------------------------------------------------------
// Width-specialized word loops
// ----------------------------------------------------------------------

/// Truth tables that decode to every compiled gate function over three
/// distinct inputs: the constants, every function of one or two inputs,
/// `maj`, `xor3`, `mux` — and `0x2b`, which has no name and runs as a
/// table.
const ARM_TABLES: [u8; 16] = [
    0x00, 0xff, 0xaa, 0x55, 0x88, 0xee, 0x66, 0x11, 0x77, 0x99, 0x22, 0xbb, 0xe8, 0x96, 0xd8, 0x2b,
];

/// Operand pool: unmasked scratch planes (the full adder's latch among
/// them), masked register and cond planes, then the read-only planes.
const POOL: [Plane; 10] = [
    Plane::Scratch(0),
    Plane::Scratch(1),
    Plane::Scratch(SCRATCH_PLANES as u16 - 1),
    Plane::Reg { reg: 0, bit: 0 },
    Plane::Reg { reg: 0, bit: 63 },
    Plane::Reg { reg: 1, bit: 5 },
    Plane::Cond,
    Plane::Mask,
    Plane::Const(false),
    Plane::Const(true),
];

/// Writable pool planes. The mask plane is excluded: a recipe writing it
/// is not eligible for the fast loop.
const OUTS: usize = 7;

/// `(kind, a, b, c, out, alias)` descriptor for [`width_op`].
type WidthSpec = (u8, usize, usize, usize, usize, u8);

/// Decodes a [`WidthSpec`]: kinds below 16 are LUT queries over
/// [`ARM_TABLES`], then the full adder (`c` picks its carry plane) and the
/// fixed-function ops. `alias` 1 makes `a` the output, 2 sets
/// `a == b == c`, 3 sets `a == b == c == out`.
fn width_op((kind, a, b, c, out, alias): WidthSpec) -> MicroOp {
    let out = POOL[out % OUTS];
    let (mut a, mut b, mut c) = (POOL[a % POOL.len()], POOL[b % POOL.len()], POOL[c % POOL.len()]);
    match alias % 4 {
        1 => a = out,
        2 => (b, c) = (a, a),
        3 => (a, b, c) = (out, out, out),
        _ => {}
    }
    match kind % 22 {
        k @ 0..16 => MicroOp::Lut { a, b, c, out, table: ARM_TABLES[k as usize] },
        16 => MicroOp::FullAdd { a, b, carry: POOL[kind as usize / 22 % OUTS], sum: out },
        17 => MicroOp::Set { out, value: kind >= 128 },
        18 => MicroOp::Tra { a, b, c, out },
        19 => MicroOp::Nor { a, b, out },
        20 => MicroOp::Copy { a, out },
        _ => MicroOp::Not { a, out },
    }
}

/// `vrf` after `run_batch` runs `recipe` on it as the one member of a
/// bank of one.
fn run_alone(vrf: &BitPlaneVrf, recipe: &Arc<pum_backend::CompiledRecipe>) -> BitPlaneVrf {
    let mut bank = PlaneBank::new(vrf.lanes(), vrf.regs(), 1);
    bank.member(0).restore(&vrf.snapshot());
    run_batch(std::slice::from_mut(&mut bank), &[(0, 0)], std::slice::from_ref(recipe));
    let mut out = vrf.clone();
    out.restore(&bank.member_ref(0).snapshot());
    out
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The block tier's word loops, compiled for each plane width — the
    /// shipped 1, 4 and 8 words, and 2, 3, 10 and 16 words run in chunks —
    /// equal op-by-op `MicroOp::apply` under a full, a partial and an
    /// empty mask, with outputs aliasing inputs and `a == b == c`. Both
    /// run the same word kernel, so the naive reference checks `apply`.
    #[test]
    fn width_specialized_word_loops_match_op_by_op(
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (any::<u8>(), 0usize..64, 0usize..64, 0usize..64, 0usize..64, any::<u8>()),
            48,
        ),
    ) {
        let ops: Vec<MicroOp> = specs.into_iter().map(width_op).collect();
        let recipe = Recipe::from_ops(ops);
        let mut state = seed | 1;
        for lanes in [64usize, 128, 192, 256, 512, 640, 1024] {
            let words = lanes / 64;
            let compiled = Arc::new(recipe.compile(lanes, 2));
            prop_assert!(compiled.fast(), "the stream must run on the fast loop");
            let (mut base, mut ref_base) = (BitPlaneVrf::new(lanes, 2), RefVrf::new(lanes, 2));
            for &plane in &POOL[..OUTS] {
                let words = random_words(&mut state, words);
                base.set_plane_words(plane, &words);
                ref_base.set_plane(plane, words);
            }
            let partial = random_words(&mut state, words);
            for (name, mask) in [("full", vec![!0; words]), ("partial", partial), ("empty", vec![0; words])] {
                let mut applied = base.clone();
                applied.set_plane_words(Plane::Mask, &mask);
                let mut stepped = applied.clone();
                let mut reference = ref_base.clone();
                reference.set_plane(Plane::Mask, mask);
                for op in recipe.ops() {
                    op.apply(&mut applied);
                    reference.apply(op);
                }
                assert_engines_agree(&applied, &reference, &format!("{lanes} lanes, {name} mask"));
                let batched = run_alone(&stepped, &compiled);
                stepped.run_compiled(&compiled);
                prop_assert!(batched == applied, "run_batch at {} lanes, {} mask", lanes, name);
                prop_assert!(stepped == applied, "run_compiled at {} lanes, {} mask", lanes, name);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Wave-wide runs
// ----------------------------------------------------------------------

/// VRFs in the store a wave's members index.
const STORE: usize = 8;

/// A seeded draw from `0..n`.
fn below(state: &mut u64, n: u64) -> u64 {
    random_words(state, 1)[0] % n
}

/// A machine geometry whose VRFs sit in plane banks of `bank` members
/// (1 unless `lanes <= 64`; see [`Geometry::bank_vrfs`]).
fn banked(lanes: usize, bank: usize) -> Geometry {
    let g = Geometry {
        lanes_per_vrf: lanes,
        regs_per_vrf: 2,
        vrfs_per_rfh: STORE,
        rfhs_per_mpu: bank,
        active_vrfs_per_rfh: 1,
        mpus_per_chip: 1,
        mem_bytes_per_mpu: 0,
    };
    assert_eq!(g.bank_vrfs(), bank);
    g
}

/// A shuffled prefix of the store's slots: distinct members.
fn distinct_slots(state: &mut u64, size: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = (0..STORE).collect();
    for i in (1..STORE).rev() {
        slots.swap(i, below(state, i as u64 + 1) as usize);
    }
    slots.truncate(size);
    slots
}

/// Draws of the store's slots that may repeat one.
fn repeating_slots(state: &mut u64, size: usize) -> Vec<usize> {
    (0..size).map(|_| below(state, STORE as u64) as usize).collect()
}

/// The wave property: for each `(lanes, bank)` layout, an 8-VRF store in
/// banks of `bank` members, seeded planes, and every member's mask full,
/// partial or empty; with `faults`, now and then one member gets a fault
/// model. `run_batch` over the wave `slots` draws must leave the store as
/// running the recipes through `run_compiled` recipe by recipe and,
/// within each, member by member (for distinct members: each member
/// running its recipes alone). The recipes are cut from `specs`: random
/// fast ones with aliased operands and, now and then, one that writes the
/// mask and so is not fast.
fn check_wave_runs(
    seed: u64,
    specs: Vec<WidthSpec>,
    layouts: &[(usize, usize)],
    faults: bool,
    slots: impl Fn(&mut u64, usize) -> Vec<usize>,
) -> Result<(), TestCaseError> {
    let mut state = seed | 1;
    let mut ops: Vec<MicroOp> = specs.into_iter().map(width_op).collect();
    // Cut the stream into recipes of 1 to 16 ops; a quarter of them end
    // by loading the mask, which takes them off the fast loop.
    let mut recipes = Vec::new();
    while !ops.is_empty() {
        let len = ops.len().min(1 + below(&mut state, 16) as usize);
        let mut recipe: Vec<MicroOp> = ops.drain(..len).collect();
        if below(&mut state, 4) == 0 {
            let a = POOL[below(&mut state, POOL.len() as u64) as usize];
            recipe.push(MicroOp::Copy { a, out: Plane::Mask });
        }
        recipes.push(Recipe::from_ops(recipe));
    }
    for &(lanes, bank) in layouts {
        let words = lanes / 64;
        let g = banked(lanes, bank);
        let compiled: Vec<_> = recipes.iter().map(|r| Arc::new(r.compile_for(&g))).collect();
        let all_full = below(&mut state, 3) == 0;
        let faulty = (faults && below(&mut state, 4) == 0).then(|| below(&mut state, 8) as usize);
        // Store slot `s` is member `s % bank` of bank `s / bank`.
        let at = |s: usize| (s / bank, s % bank);
        let mut store: Vec<PlaneBank> =
            (0..STORE / bank).map(|_| PlaneBank::new(lanes, 2, bank)).collect();
        for s in 0..STORE {
            let (b, m) = at(s);
            let mut vrf = store[b].member(m);
            for &plane in &POOL[..OUTS] {
                vrf.set_plane_words(plane, &random_words(&mut state, words));
            }
            let mask = match if all_full { 0 } else { below(&mut state, 3) } {
                0 => vec![!0; words],
                1 => random_words(&mut state, words),
                _ => vec![0; words],
            };
            vrf.set_plane_words(Plane::Mask, &mask);
            if faulty == Some(s) {
                let mut model = FaultModel::new(seed, lanes);
                model.set_transient_rate(MicroOpKind::Lut, 0.5);
                vrf.set_fault_model(Some(model));
            }
        }
        let size = 1 + below(&mut state, STORE as u64) as usize;
        let members: Vec<(usize, usize)> = slots(&mut state, size).into_iter().map(at).collect();
        let mut want = store.clone();
        for recipe in &compiled {
            for &(b, m) in &members {
                want[b].member(m).run_compiled(recipe);
            }
        }
        run_batch(&mut store, &members, &compiled);
        for (b, (got, want)) in store.iter().zip(&want).enumerate() {
            prop_assert!(
                got == want,
                "bank {} of {} at {} lanes, wave {:?}",
                b,
                bank,
                lanes,
                members
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `run_batch` over a wave — 1 to 8 members of an 8-VRF store, distinct
    /// or repeating one — leaves the store as running the recipes through
    /// `run_compiled` recipe by recipe and, within each, member by member
    /// (for distinct members: each member running its recipes alone). At
    /// 1, 4 and 8 words per plane, each VRF owning its planes, with every
    /// member's mask full, partial or empty, random fast recipes with
    /// aliased operands, and now and then a recipe that writes the mask
    /// and so is not fast.
    #[test]
    fn wave_runs_match_members_running_alone(
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (any::<u8>(), 0usize..64, 0usize..64, 0usize..64, 0usize..64, any::<u8>()),
            48,
        ),
    ) {
        let layouts = [(64, 1), (256, 1), (512, 1)];
        check_wave_runs(seed, specs, &layouts, false, |state, size| {
            if below(state, 2) == 0 {
                distinct_slots(state, size)
            } else {
                repeating_slots(state, size)
            }
        })?;
    }

    /// The wave property over plane banks: at 64 lanes, the store is banks
    /// of 1, 4 or 8 members, and the wave is the whole store in order
    /// (full waves of every bank), a run of adjacent VRFs (a contiguous
    /// or partial wave), a shuffled subset, or draws that may repeat a
    /// VRF; now and then one member has a fault model.
    #[test]
    fn bank_waves_match_members_running_alone(
        seed in any::<u64>(),
        specs in prop::collection::vec(
            (any::<u8>(), 0usize..64, 0usize..64, 0usize..64, 0usize..64, any::<u8>()),
            48,
        ),
    ) {
        let layouts = [(64, 1), (64, 4), (64, 8)];
        check_wave_runs(seed, specs, &layouts, true, |state, size| match below(state, 4) {
            0 => (0..STORE).collect(),
            1 => {
                let start = below(state, (STORE - size + 1) as u64) as usize;
                (start..start + size).collect()
            }
            2 => distinct_slots(state, size),
            _ => repeating_slots(state, size),
        })?;
    }
}
