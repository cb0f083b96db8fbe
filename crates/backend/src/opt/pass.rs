//! The shared dataflow engine behind [`super::optimize`]: hash-consed
//! value numbering (forward), two-bit per-plane liveness (backward), and a
//! copy-coalescing peephole, iterated to a fixpoint.
//!
//! The value lattice models every plane's contents as a node in a
//! hash-consed boolean DAG over the recipe's *entry* state: `Input(plane)`
//! leaves, `And`/`Xor`/`Maj` interior nodes (enough to express all nine
//! micro-op kinds), a `True` constant, and `Merge(old, new)` for masked
//! stores (the post-state of a write to a [`Plane::Reg`]/[`Plane::Cond`]
//! destination, which blends old and new per the wave-constant lane mask).
//! Negation is a bit on the edge (`ValRef::neg`), so double negation —
//! `Nor(x, x)` feeding `Nor(y, y)` — cancels structurally, and constructor
//! normalization folds the absorbing/idempotent identities of each logic
//! family (`x NOR x = !x`, `Maj(x, x, y) = x`, `Maj(x, !x, y) = y`,
//! `Xor(x, x) = 0`, …). Two planes holding the same node are
//! interchangeable at that program point; `Merge` nodes compare equal only
//! when both old and new match, which is exactly the condition under which
//! two masked writes commute with any mask value.
//!
//! Liveness tracks `(enabled, disabled)` lane-set bits per plane: a masked
//! store kills only the enabled half (disabled lanes flow through the
//! merge), an unmasked store kills both, and any read revives both.
//! Architectural planes (`Reg`/`Cond`/`Mask`) are live at recipe exit;
//! scratch planes are not.
//!
//! Data layout: every per-plane table (current value, liveness) is a flat
//! vector indexed by a dense plane slot ([`PlaneIndex`]); holder lists are
//! indexed by the packed [`ValRef`]; only node interning hashes, with a
//! multiplicative [`NodeHasher`]. Node numbers are assigned in insertion
//! order and holder lists keep establishment order, so none of these
//! choices can change a rewrite decision (DESIGN.md §10).

use super::{OptConfig, OptRule, OptStats};
use crate::bitplane::{BitPlaneVrf, Plane, SCRATCH_PLANES};
use crate::logic::LogicFamily;
use crate::microop::{MicroOp, MicroOpKind};
use crate::recipe::Recipe;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fixpoint cap. Each round strictly removes ops or reaches quiescence;
/// synthesized templates converge in two or three rounds.
const MAX_ROUNDS: usize = 4;

const TRUE: ValRef = ValRef(0);
const FALSE: ValRef = ValRef(1);

fn latch_plane() -> Plane {
    Plane::Scratch(SCRATCH_PLANES as u16 - 1)
}

/// A reference to a hash-consed value node, packed as `idx << 1 | neg`:
/// the complement bit rides on the edge, so negation is free and double
/// negation cancels structurally. The packed order is the `(idx, neg)`
/// order operand canonicalization sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct ValRef(u32);

impl ValRef {
    fn not(self) -> ValRef {
        ValRef(self.0 ^ 1)
    }

    /// The same node with a positive edge.
    fn pos(self) -> ValRef {
        ValRef(self.0 & !1)
    }

    fn is_neg(self) -> bool {
        self.0 & 1 != 0
    }

    fn is_const(self) -> bool {
        self.0 < 2
    }

    fn idx(self) -> usize {
        (self.0 >> 1) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    True,
    Input(Plane),
    And(ValRef, ValRef),
    /// Operands stored positive; polarity lifted to the referencing edge.
    Xor(ValRef, ValRef),
    Maj(ValRef, ValRef, ValRef),
    /// Masked-store post-state: `(old, new)` blended by the lane mask.
    Merge(ValRef, ValRef),
}

/// FxHash's multiply-rotate step, for the node-interning table. A node is
/// a few small integers the pass itself assigns (node numbers, plane
/// ids), never bytes from outside the program, so SipHash's flooding
/// resistance buys nothing here; the table maps nodes to insertion-ordered
/// numbers, so the hasher sets its speed and never its answers.
#[derive(Default)]
struct NodeHasher(u64);

impl NodeHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// Dense numbering of the planes one recipe touches: register bits
/// (`reg * bits + bit`), then scratch, cond, mask and the two constants.
/// Sized from the recipe, so per-plane state is a short flat vector.
/// Rewrites only ever redirect to planes the recipe already names (or to
/// the constant planes), so the index built before the first round covers
/// every later round.
#[derive(Clone, Copy)]
struct PlaneIndex {
    bits: usize,
    regs: usize,
    scratch: usize,
}

impl PlaneIndex {
    fn of(ops: &[MicroOp]) -> PlaneIndex {
        let mut ix = PlaneIndex { bits: 1, regs: 0, scratch: SCRATCH_PLANES };
        for p in ops.iter().flat_map(|op| op.reads().into_iter().chain(op.writes())) {
            match p {
                Plane::Reg { reg, bit } => {
                    ix.regs = ix.regs.max(usize::from(reg) + 1);
                    ix.bits = ix.bits.max(usize::from(bit) + 1);
                }
                Plane::Scratch(i) => ix.scratch = ix.scratch.max(usize::from(i) + 1),
                Plane::Cond | Plane::Mask | Plane::Const(_) => {}
            }
        }
        ix
    }

    fn len(self) -> usize {
        self.regs * self.bits + self.scratch + 4
    }

    fn slot(self, p: Plane) -> usize {
        let base = self.regs * self.bits;
        match p {
            Plane::Reg { reg, bit } => {
                debug_assert!(usize::from(reg) < self.regs && usize::from(bit) < self.bits);
                usize::from(reg) * self.bits + usize::from(bit)
            }
            Plane::Scratch(i) => base + usize::from(i),
            Plane::Cond => base + self.scratch,
            Plane::Mask => base + self.scratch + 1,
            Plane::Const(b) => base + self.scratch + 2 + usize::from(b),
        }
    }
}

/// The forward value-numbering state: plane → value, value → holder
/// planes, and the hash-consed node table. Allocated once per recipe and
/// [`Values::reset`] before each forward pass.
struct Values {
    planes: PlaneIndex,
    nodes: Vec<Node>,
    index: HashMap<Node, u32, BuildHasherDefault<NodeHasher>>,
    /// Current value per plane slot; `None` until first read or write.
    val: Vec<Option<ValRef>>,
    /// Planes holding each value, indexed by the packed [`ValRef`], in
    /// the order they came to hold it.
    holders: Vec<Vec<Plane>>,
}

impl Values {
    fn new(planes: PlaneIndex) -> Values {
        let mut vals = Values {
            planes,
            nodes: Vec::new(),
            index: HashMap::default(),
            val: vec![None; planes.len()],
            holders: Vec::new(),
        };
        vals.reset();
        vals
    }

    /// Back to the recipe-entry state (only the `True` node), keeping
    /// every allocation.
    fn reset(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.val.fill(None);
        for list in &mut self.holders {
            list.clear();
        }
        self.intern(Node::True);
    }

    fn node(&self, v: ValRef) -> Node {
        self.nodes[v.idx()]
    }

    fn intern(&mut self, node: Node) -> ValRef {
        let idx = match self.index.get(&node) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(node);
                self.index.insert(node, i);
                let refs = 2 * self.nodes.len();
                if self.holders.len() < refs {
                    self.holders.resize_with(refs, Vec::new);
                }
                i
            }
        };
        ValRef(idx << 1)
    }

    fn cref(value: bool) -> ValRef {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    /// Current value of `p`, creating an `Input` leaf on first read of a
    /// plane that has not been written yet.
    fn read(&mut self, p: Plane) -> ValRef {
        if let Plane::Const(b) = p {
            return Values::cref(b);
        }
        let s = self.planes.slot(p);
        if let Some(v) = self.val[s] {
            return v;
        }
        let v = self.intern(Node::Input(p));
        self.val[s] = Some(v);
        self.holders[v.0 as usize].push(p);
        v
    }

    fn write(&mut self, p: Plane, v: ValRef) {
        let s = self.planes.slot(p);
        if let Some(old) = self.val[s] {
            self.holders[old.0 as usize].retain(|&q| q != p);
        }
        self.val[s] = Some(v);
        self.holders[v.0 as usize].push(p);
    }

    /// The canonical (earliest-established, still-valid) plane holding `v`.
    fn holder(&self, v: ValRef) -> Option<Plane> {
        self.holders[v.0 as usize].first().copied()
    }

    fn mk_and(&mut self, x: ValRef, y: ValRef) -> ValRef {
        if x == TRUE {
            return y;
        }
        if y == TRUE {
            return x;
        }
        if x == FALSE || y == FALSE {
            return FALSE;
        }
        if x == y {
            return x;
        }
        if x == y.not() {
            return FALSE;
        }
        let (x, y) = if x <= y { (x, y) } else { (y, x) };
        self.intern(Node::And(x, y))
    }

    fn mk_or(&mut self, x: ValRef, y: ValRef) -> ValRef {
        self.mk_and(x.not(), y.not()).not()
    }

    fn mk_nor(&mut self, x: ValRef, y: ValRef) -> ValRef {
        self.mk_and(x.not(), y.not())
    }

    fn mk_xor(&mut self, x: ValRef, y: ValRef) -> ValRef {
        if x == y {
            return FALSE;
        }
        if x == y.not() {
            return TRUE;
        }
        if x.is_const() {
            return if x == FALSE { y } else { y.not() };
        }
        if y.is_const() {
            return if y == FALSE { x } else { x.not() };
        }
        let neg = x.is_neg() ^ y.is_neg();
        let (px, py) = (x.pos(), y.pos());
        let (px, py) = if px <= py { (px, py) } else { (py, px) };
        let r = self.intern(Node::Xor(px, py));
        if neg {
            r.not()
        } else {
            r
        }
    }

    fn mk_maj(&mut self, a: ValRef, b: ValRef, c: ValRef) -> ValRef {
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        if a == b.not() {
            return c;
        }
        if a == c.not() {
            return b;
        }
        if b == c.not() {
            return a;
        }
        if a.is_const() {
            return if a == TRUE { self.mk_or(b, c) } else { self.mk_and(b, c) };
        }
        if b.is_const() {
            return if b == TRUE { self.mk_or(a, c) } else { self.mk_and(a, c) };
        }
        if c.is_const() {
            return if c == TRUE { self.mk_or(a, b) } else { self.mk_and(a, b) };
        }
        // Majority is self-dual: Maj(!a, !b, !c) = !Maj(a, b, c). Normalize
        // the all-negated form so both polarities hash to one node.
        let mut v = [a, b, c];
        let neg = v.iter().all(|r| r.is_neg());
        if neg {
            v = [a.not(), b.not(), c.not()];
        }
        v.sort();
        let r = self.intern(Node::Maj(v[0], v[1], v[2]));
        if neg {
            r.not()
        } else {
            r
        }
    }

    /// Exact value of a 3-input LUT query: the OR of the AND minterms for
    /// every set table bit — the definition of [`crate::MicroOp::Lut`]'s
    /// lane semantics, which [`crate::microop::lut3_word`] evaluates. The
    /// constructor normalizations then fold degenerate tables (constants,
    /// pass-throughs, single-input negations) for free.
    fn mk_lut(&mut self, table: u8, a: ValRef, b: ValRef, c: ValRef) -> ValRef {
        let mut v = FALSE;
        for idx in 0..8u8 {
            if table >> idx & 1 == 1 {
                let xa = if idx & 1 != 0 { a } else { a.not() };
                let xb = if idx & 2 != 0 { b } else { b.not() };
                let xc = if idx & 4 != 0 { c } else { c.not() };
                let t = self.mk_and(xa, xb);
                let t = self.mk_and(t, xc);
                v = self.mk_or(v, t);
            }
        }
        v
    }

    fn mk_merge(&mut self, old: ValRef, new: ValRef) -> ValRef {
        if old == new {
            return old;
        }
        // Re-merging the same enabled-lane value is idempotent:
        // merge(merge(o, n), n) = merge(o, n) for any (wave-constant) mask.
        if !old.is_neg() {
            if let Node::Merge(_, prev_new) = self.node(old) {
                if prev_new == new {
                    return old;
                }
            }
        }
        self.intern(Node::Merge(old, new))
    }

    /// Rewrites a read operand in place: constant values are rewired to the
    /// preset constant planes; otherwise the operand is redirected to the
    /// canonical holder of its value (copy propagation when the value is a
    /// plain plane copy, chain collapsing when it is a derived node).
    fn rewrite_operand(&mut self, p: &mut Plane, gate: &RuleGate, stats: &mut OptStats) -> bool {
        let v = self.read(*p);
        if v.is_const() {
            let c = Plane::Const(v == TRUE);
            if *p != c && gate.on(OptRule::ConstFold) {
                stats.rule_mut(OptRule::ConstFold).fires += 1;
                *p = c;
                return true;
            }
            return false;
        }
        let Some(q) = self.holder(v) else { return false };
        if q == *p {
            return false;
        }
        let rule = match self.node(v) {
            Node::Input(_) | Node::Merge(..) => OptRule::CopyProp,
            _ => OptRule::ChainCollapse,
        };
        if !gate.on(rule) {
            return false;
        }
        stats.rule_mut(rule).fires += 1;
        *p = q;
        true
    }
}

/// Which rules may fire, and the substrate's per-kind `(cycles, energy)`
/// prices, read once per recipe into a table indexed by
/// [`MicroOpKind::index`].
struct RuleGate {
    family: LogicFamily,
    config: OptConfig,
    costs: [Option<(u64, f64)>; MicroOpKind::ALL.len()],
}

impl RuleGate {
    fn on(&self, rule: OptRule) -> bool {
        self.config.rule_enabled(rule) && rule.sound_for(self.family)
    }

    /// True when issuing `new` instead of `old` is legal on this substrate
    /// and no worse on both cost axes with a strict improvement on at
    /// least one.
    fn improves(&self, new: MicroOpKind, old: MicroOpKind) -> bool {
        if !self.family.supports(new) {
            return false;
        }
        let (Some((nc, ne)), Some((oc, oe))) = (self.costs[new.index()], self.costs[old.index()])
        else {
            return false;
        };
        nc <= oc && ne <= oe && (nc < oc || ne < oe)
    }
}

struct Slot {
    op: MicroOp,
    live: bool,
    /// Set by the forward pass when the op's value already lived in another
    /// plane before the write — a recomputation bypassed by operand
    /// redirection, attributed to chain collapsing once liveness deletes it.
    dup: bool,
}

pub(super) fn run(
    recipe: &Recipe,
    family: LogicFamily,
    config: OptConfig,
    cost: &dyn Fn(MicroOpKind) -> Option<(u64, f64)>,
) -> (Recipe, OptStats) {
    let mut stats = OptStats::default();
    if !config.enabled {
        return (recipe.clone(), stats);
    }
    let mut ops: Vec<MicroOp> = recipe.ops().to_vec();
    if config.canary {
        if let Some(MicroOp::Set { value, .. }) =
            ops.iter_mut().find(|op| matches!(op, MicroOp::Set { .. }))
        {
            *value = !*value;
        }
    }
    // Word-serial ops execute whole instructions against architectural
    // registers; their dataflow is not expressible in the per-plane value
    // lattice, so recipes containing them pass through unmodified.
    if ops.iter().any(|op| matches!(op, MicroOp::Word { .. })) {
        return (recipe.with_optimized_ops(ops, 0), stats);
    }
    // The merge model assumes the mask plane is wave-constant, and writes
    // to constant planes trap at execution time; synthesized recipes never
    // do either, but `Recipe::from_ops` sequences may — pass those through.
    if ops.iter().any(|op| op.writes().iter().any(|w| matches!(w, Plane::Mask | Plane::Const(_)))) {
        return (recipe.with_optimized_ops(ops, 0), stats);
    }
    let gate = RuleGate { family, config, costs: MicroOpKind::ALL.map(cost) };
    let planes = PlaneIndex::of(&ops);
    let mut vals = Values::new(planes);
    let mut live = vec![None; planes.len()];
    let mut slots: Vec<Slot> =
        ops.into_iter().map(|op| Slot { op, live: true, dup: false }).collect();
    for _ in 0..MAX_ROUNDS {
        for s in &mut slots {
            s.dup = false;
        }
        vals.reset();
        let mut changed = forward(&mut slots, &mut vals, &gate, &mut stats);
        live.fill(None);
        changed |= liveness(&mut slots, planes, &mut live, &gate, &mut stats);
        changed |= coalesce(&mut slots, &gate, &mut stats);
        slots.retain(|s| s.live);
        if !changed {
            break;
        }
    }
    let optimized: Vec<MicroOp> = slots.into_iter().map(|s| s.op).collect();
    let saved = (recipe.len() - optimized.len()) as u32;
    (recipe.with_optimized_ops(optimized, saved), stats)
}

/// Forward value-numbering rewrite pass over the live ops, starting from
/// a freshly reset `vals`.
fn forward(slots: &mut [Slot], vals: &mut Values, gate: &RuleGate, stats: &mut OptStats) -> bool {
    let mut changed = false;
    for slot in slots.iter_mut() {
        if !slot.live {
            continue;
        }
        match slot.op {
            MicroOp::Nor { mut a, mut b, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                slot.op = MicroOp::Nor { a, b, out };
                let va = vals.read(a);
                let vb = vals.read(b);
                let v = vals.mk_nor(va, vb);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::And { mut a, mut b, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                slot.op = MicroOp::And { a, b, out };
                let va = vals.read(a);
                let vb = vals.read(b);
                let v = vals.mk_and(va, vb);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Or { mut a, mut b, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                slot.op = MicroOp::Or { a, b, out };
                let va = vals.read(a);
                let vb = vals.read(b);
                let v = vals.mk_or(va, vb);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Xor { mut a, mut b, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                slot.op = MicroOp::Xor { a, b, out };
                let va = vals.read(a);
                let vb = vals.read(b);
                let v = vals.mk_xor(va, vb);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Tra { mut a, mut b, mut c, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                changed |= vals.rewrite_operand(&mut c, gate, stats);
                slot.op = MicroOp::Tra { a, b, c, out };
                let va = vals.read(a);
                let vb = vals.read(b);
                let vc = vals.read(c);
                let v = vals.mk_maj(va, vb, vc);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Not { mut a, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                slot.op = MicroOp::Not { a, out };
                let v = vals.read(a).not();
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Copy { mut a, out } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                slot.op = MicroOp::Copy { a, out };
                let v = vals.read(a);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Set { out, value } => {
                let v = Values::cref(value);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Lut { mut a, mut b, mut c, out, table } => {
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                changed |= vals.rewrite_operand(&mut c, gate, stats);
                slot.op = MicroOp::Lut { a, b, c, out, table };
                let va = vals.read(a);
                let vb = vals.read(b);
                let vc = vals.read(c);
                let v = vals.mk_lut(table, va, vb, vc);
                changed |= finish_single(slot, out, v, vals, gate, stats);
            }
            MicroOp::Word { .. } => {
                unreachable!("word-serial recipes bypass the optimizer (run() passes them through)")
            }
            MicroOp::FullAdd { mut a, mut b, carry, sum } => {
                // The carry operand is read *and* written — never redirect
                // it: the carry-out must land back in the same plane.
                changed |= vals.rewrite_operand(&mut a, gate, stats);
                changed |= vals.rewrite_operand(&mut b, gate, stats);
                slot.op = MicroOp::FullAdd { a, b, carry, sum };
                let va = vals.read(a);
                let vb = vals.read(b);
                let vc = vals.read(carry);
                let vx = vals.mk_xor(va, vb);
                let vsum = vals.mk_xor(vx, vc);
                let vcout = vals.mk_maj(va, vb, vc);
                // Model apply()'s exact write order: latch, carry, sum.
                vals.write(latch_plane(), vsum);
                let ceff = if BitPlaneVrf::is_masked_target(carry) {
                    vals.mk_merge(vc, vcout)
                } else {
                    vcout
                };
                vals.write(carry, ceff);
                let seff = if BitPlaneVrf::is_masked_target(sum) {
                    let old = vals.read(sum);
                    vals.mk_merge(old, vsum)
                } else {
                    vsum
                };
                vals.write(sum, seff);
            }
        }
    }
    changed
}

/// Post-processes a single-destination op once its result value is known:
/// deletes no-op stores, strength-reduces constant results to `Set` and
/// recomputed results to `Copy` (cost-gated), and updates the value state.
fn finish_single(
    slot: &mut Slot,
    out: Plane,
    v: ValRef,
    vals: &mut Values,
    gate: &RuleGate,
    stats: &mut OptStats,
) -> bool {
    let mut changed = false;
    let masked = BitPlaneVrf::is_masked_target(out);
    let old = vals.read(out);
    let eff = if masked { vals.mk_merge(old, v) } else { v };
    if eff == old && gate.on(OptRule::MaskStrength) {
        // The store provably leaves the destination unchanged — either the
        // written value equals the current contents, or a masked store
        // re-merges the value a previous masked store already merged.
        let rs = stats.rule_mut(OptRule::MaskStrength);
        rs.fires += 1;
        rs.removed_uops += 1;
        slot.live = false;
        return true;
    }
    let kind = slot.op.kind();
    if v.is_const() {
        // (kind rewrites judge `v`, the enabled-lane value; the store's
        // maskedness is a property of the destination and is preserved.)
        if kind != MicroOpKind::Set
            && gate.on(OptRule::ConstFold)
            && gate.improves(MicroOpKind::Set, kind)
        {
            slot.op = MicroOp::Set { out, value: v == TRUE };
            stats.rule_mut(OptRule::ConstFold).fires += 1;
            changed = true;
        }
    } else if gate.on(OptRule::ChainCollapse) {
        if let Some(q) = vals.holder(v) {
            // The value already lives in `q` (q != out, else the no-op
            // branch above would have fired). Mark the recomputation so
            // liveness can attribute its deletion; materialize a Copy only
            // where the substrate prices Copy below the computing kind.
            slot.dup = true;
            if kind != MicroOpKind::Copy && q != out && gate.improves(MicroOpKind::Copy, kind) {
                slot.op = MicroOp::Copy { a: q, out };
                stats.rule_mut(OptRule::ChainCollapse).fires += 1;
                changed = true;
            }
        }
    }
    vals.write(out, eff);
    changed
}

/// Backward two-bit liveness (enabled lanes, mask-disabled lanes) and
/// dead-op deletion, with per-rule attribution of each removal. `live` is
/// indexed by plane slot and starts all `None` (= live as at recipe exit).
fn liveness(
    slots: &mut [Slot],
    planes: PlaneIndex,
    live: &mut [Option<(bool, bool)>],
    gate: &RuleGate,
    stats: &mut OptStats,
) -> bool {
    fn exit_live(p: Plane) -> (bool, bool) {
        match p {
            Plane::Scratch(_) => (false, false),
            _ => (true, true),
        }
    }
    let mut changed = false;
    for slot in slots.iter_mut().rev() {
        if !slot.live {
            continue;
        }
        let writes = slot.op.writes();
        let mut needed = false;
        let mut masked_d_live = false;
        for &w in writes.iter() {
            let (e, d) = live[planes.slot(w)].unwrap_or_else(|| exit_live(w));
            if BitPlaneVrf::is_masked_target(w) {
                // A masked store only defines the enabled lanes; if only
                // the disabled lanes are live, deleting it is exact (they
                // hold the old contents either way).
                if e {
                    needed = true;
                } else if d {
                    masked_d_live = true;
                }
            } else if e || d {
                needed = true;
            }
        }
        if !needed {
            let rule = if slot.dup {
                OptRule::ChainCollapse
            } else if masked_d_live {
                OptRule::MaskStrength
            } else {
                match slot.op.kind() {
                    MicroOpKind::Copy => OptRule::CopyProp,
                    MicroOpKind::Set => OptRule::ConstFold,
                    _ => OptRule::DeadPlane,
                }
            };
            if gate.on(rule) {
                let rs = stats.rule_mut(rule);
                rs.fires += 1;
                rs.removed_uops += 1;
                slot.live = false;
                changed = true;
                continue;
            }
        }
        // Kept: kill the written lane-sets, then revive everything read
        // (kills first so in-place ops end up fully live).
        let mut any_masked = false;
        for &w in writes.iter() {
            let entry = live[planes.slot(w)].get_or_insert_with(|| exit_live(w));
            if BitPlaneVrf::is_masked_target(w) {
                entry.0 = false;
                any_masked = true;
            } else {
                *entry = (false, false);
            }
        }
        for r in slot.op.reads() {
            live[planes.slot(r)] = Some((true, true));
        }
        if any_masked {
            live[planes.slot(Plane::Mask)] = Some((true, true));
        }
    }
    changed
}

/// Copy-coalescing peephole: for `Copy {scratch → dst}`, retarget the
/// scratch plane's defining write straight at `dst` and drop the copy,
/// when nothing between the def and the copy touches either plane and the
/// scratch value is dead after the copy.
fn coalesce(slots: &mut [Slot], gate: &RuleGate, stats: &mut OptStats) -> bool {
    if !gate.on(OptRule::CopyProp) {
        return false;
    }
    let mut changed = false;
    let n = slots.len();
    for k in 0..n {
        if !slots[k].live {
            continue;
        }
        let MicroOp::Copy { a: src, out: dst } = slots[k].op else {
            continue;
        };
        let Plane::Scratch(si) = src else { continue };
        // The FullAdd latch is hardware-reserved; leave it alone.
        if usize::from(si) == SCRATCH_PLANES - 1 {
            continue;
        }
        if src == dst || matches!(dst, Plane::Mask | Plane::Const(_)) {
            continue;
        }
        // Walk back to the defining write of `src`; bail on any
        // intervening read of `src` or any touch of `dst`.
        let mut def = None;
        for j in (0..k).rev() {
            if !slots[j].live {
                continue;
            }
            let op = slots[j].op;
            if op.writes().contains(&src) {
                def = Some(j);
                break;
            }
            if op.reads().contains(&src) || op.reads().contains(&dst) || op.writes().contains(&dst)
            {
                break;
            }
        }
        let Some(j) = def else { continue };
        // `src` must be dead after the copy.
        let mut dead = true;
        for m in slots.iter().take(n).skip(k + 1) {
            if !m.live {
                continue;
            }
            if m.op.reads().contains(&src) {
                dead = false;
                break;
            }
            if m.op.writes().contains(&src) {
                break;
            }
        }
        if !dead {
            continue;
        }
        // Retarget the def. The redirected write adopts `dst`'s natural
        // maskedness, which is exactly what the deleted Copy applied.
        let redirected = match &mut slots[j].op {
            MicroOp::Nor { out, .. }
            | MicroOp::Tra { out, .. }
            | MicroOp::Not { out, .. }
            | MicroOp::And { out, .. }
            | MicroOp::Or { out, .. }
            | MicroOp::Xor { out, .. }
            | MicroOp::Copy { out, .. }
            | MicroOp::Set { out, .. }
            | MicroOp::Lut { out, .. }
                if *out == src =>
            {
                *out = dst;
                true
            }
            MicroOp::FullAdd { carry, sum, .. }
                if *sum == src && *carry != src && dst != *carry && dst != latch_plane() =>
            {
                *sum = dst;
                true
            }
            _ => false,
        };
        if redirected {
            slots[k].live = false;
            let rs = stats.rule_mut(OptRule::CopyProp);
            rs.fires += 1;
            rs.removed_uops += 1;
            changed = true;
        }
    }
    changed
}
