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
//! Data layout: every per-plane table (current value, liveness, holder
//! links) is a flat vector indexed by a dense plane slot ([`PlaneIndex`]).
//! Holder lists are intrusive doubly linked lists threaded through the
//! plane slots: each packed [`ValRef`] has a `[head, tail]` pair, each slot
//! a `[prev, next]` pair, so a write moves a plane between lists in
//! constant time and allocates nothing. Node interning probes an
//! open-addressed table of node numbers, cleared per round. Node numbers
//! are assigned in insertion order and a plane joins a holder list at its
//! tail, so lists keep establishment order and none of these choices can
//! change a rewrite decision (DESIGN.md §10).

use super::{OptConfig, OptRule, OptStats};
use crate::bitplane::{BitPlaneVrf, Plane, SCRATCH_PLANES};
use crate::logic::LogicFamily;
use crate::microop::{MicroOp, MicroOpKind};
use crate::recipe::Recipe;

/// Fixpoint cap. Each round strictly removes ops or reaches quiescence;
/// every synthesized template reaches a round that changes nothing within
/// four (`opt::tests::every_corpus_recipe_converges_within_max_rounds`).
pub(super) const MAX_ROUNDS: usize = 4;

/// The end of a holder list, and a free node-table bucket.
const NIL: u32 = u32::MAX;

const TRUE: ValRef = ValRef(0);
const FALSE: ValRef = ValRef(1);

fn latch_plane() -> Plane {
    Plane::Scratch(SCRATCH_PLANES as u16 - 1)
}

/// A reference to a hash-consed value node, packed as `idx << 1 | neg`:
/// the complement bit rides on the edge, so negation is free and double
/// negation cancels structurally. The packed order is the `(idx, neg)`
/// order operand canonicalization sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    True,
    /// The recipe-entry contents of the plane at this [`PlaneIndex`] slot.
    Input(u32),
    And(ValRef, ValRef),
    /// Operands stored positive; polarity lifted to the referencing edge.
    Xor(ValRef, ValRef),
    Maj(ValRef, ValRef, ValRef),
    /// Masked-store post-state: `(old, new)` blended by the lane mask.
    Merge(ValRef, ValRef),
}

impl Node {
    /// Multiply-rotate hash of the node's tag and operands (FxHash's
    /// step). A node is a few small integers the pass itself assigns, so
    /// no flooding resistance is needed; the table maps nodes to
    /// insertion-ordered numbers, so the hash sets its speed and never its
    /// answers.
    fn hash(self) -> u64 {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let (tag, a, b, c) = match self {
            Node::True => (0, 0, 0, 0),
            Node::Input(s) => (1, s, 0, 0),
            Node::And(a, b) => (2, a.0, b.0, 0),
            Node::Xor(a, b) => (3, a.0, b.0, 0),
            Node::Maj(a, b, c) => (4, a.0, b.0, c.0),
            Node::Merge(a, b) => (5, a.0, b.0, 0),
        };
        let h = (u64::from(a) | u64::from(b) << 32).wrapping_mul(K);
        (h.rotate_left(5) ^ (u64::from(c) << 3 | tag)).wrapping_mul(K)
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
        for op in ops {
            // Every plane an op reads or writes is an operand, except the
            // FullAdd latch, which lies below `SCRATCH_PLANES` anyway.
            op.map_planes(|p| {
                match p {
                    Plane::Reg { reg, bit } => {
                        ix.regs = ix.regs.max(usize::from(reg) + 1);
                        ix.bits = ix.bits.max(usize::from(bit) + 1);
                    }
                    Plane::Scratch(i) => ix.scratch = ix.scratch.max(usize::from(i) + 1),
                    Plane::Cond | Plane::Mask | Plane::Const(_) => {}
                }
                p
            });
        }
        ix
    }

    fn len(self) -> usize {
        self.regs * self.bits + self.scratch + 4
    }

    /// Every plane in slot order: the inverse of [`PlaneIndex::slot`].
    fn planes(self) -> impl Iterator<Item = Plane> {
        let regs = (0..self.regs).flat_map(move |reg| {
            (0..self.bits).map(move |bit| Plane::Reg { reg: reg as u8, bit: bit as u8 })
        });
        let scratch = (0..self.scratch).map(|i| Plane::Scratch(i as u16));
        regs.chain(scratch).chain([
            Plane::Cond,
            Plane::Mask,
            Plane::Const(false),
            Plane::Const(true),
        ])
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
    /// The plane at each slot.
    plane_at: Vec<Plane>,
    nodes: Vec<Node>,
    /// Open-addressed, linearly probed node table: a node number per
    /// bucket, [`NIL`] when free. Its length is a power of two and it is
    /// kept at most half full.
    table: Vec<u32>,
    /// Current value per plane slot; `None` until first read or write.
    val: Vec<Option<ValRef>>,
    /// `[head, tail]` slots of each value's holder list, indexed by the
    /// packed [`ValRef`]: the planes holding it, in the order they came to
    /// hold it.
    ends: Vec<[u32; 2]>,
    /// `[prev, next]` holder-list links per plane slot, meaningful while
    /// the slot holds a value.
    links: Vec<[u32; 2]>,
}

impl Values {
    fn new(planes: PlaneIndex) -> Values {
        let plane_at: Vec<Plane> = planes.planes().collect();
        debug_assert!(plane_at.iter().enumerate().all(|(s, &p)| planes.slot(p) == s));
        let mut vals = Values {
            planes,
            plane_at,
            nodes: Vec::new(),
            table: vec![NIL; 64],
            val: vec![None; planes.len()],
            ends: Vec::new(),
            links: vec![[NIL; 2]; planes.len()],
        };
        vals.reset();
        vals
    }

    /// Back to the recipe-entry state (only the `True` node), keeping
    /// every allocation.
    fn reset(&mut self) {
        self.nodes.clear();
        self.table.fill(NIL);
        self.val.fill(None);
        self.ends.clear();
        self.intern(Node::True);
    }

    fn node(&self, v: ValRef) -> Node {
        self.nodes[v.idx()]
    }

    fn intern(&mut self, node: Node) -> ValRef {
        let mask = self.table.len() - 1;
        let mut b = Values::bucket(node, self.table.len());
        loop {
            let i = self.table[b];
            if i == NIL {
                break;
            }
            if self.nodes[i as usize] == node {
                return ValRef(i << 1);
            }
            b = (b + 1) & mask;
        }
        let i = self.nodes.len() as u32;
        self.nodes.push(node);
        self.table[b] = i;
        self.ends.extend([[NIL; 2]; 2]);
        if 2 * self.nodes.len() > self.table.len() {
            self.grow();
        }
        ValRef(i << 1)
    }

    /// The first bucket probed for `node` in a table of `len` buckets: the
    /// top bits of its hash, the best mixed ones of a multiplicative hash.
    fn bucket(node: Node, len: usize) -> usize {
        (node.hash() >> (64 - len.trailing_zeros())) as usize
    }

    /// Doubles the node table and reinserts every node.
    fn grow(&mut self) {
        let len = 2 * self.table.len();
        self.table.clear();
        self.table.resize(len, NIL);
        let mask = len - 1;
        for (i, &node) in self.nodes.iter().enumerate() {
            let mut b = Values::bucket(node, len);
            while self.table[b] != NIL {
                b = (b + 1) & mask;
            }
            self.table[b] = i as u32;
        }
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
        match p {
            Plane::Const(b) => Values::cref(b),
            _ => self.read_slot(self.planes.slot(p)),
        }
    }

    /// [`Values::read`] of the plane at slot `s`.
    fn read_slot(&mut self, s: usize) -> ValRef {
        if let Some(v) = self.val[s] {
            return v;
        }
        let v = self.intern(Node::Input(s as u32));
        self.val[s] = Some(v);
        self.push_holder(v, s);
        v
    }

    fn write(&mut self, p: Plane, v: ValRef) {
        self.write_slot(self.planes.slot(p), v);
    }

    /// [`Values::write`] to the plane at slot `s`.
    fn write_slot(&mut self, s: usize, v: ValRef) {
        if let Some(old) = self.val[s] {
            self.drop_holder(old, s);
        }
        self.val[s] = Some(v);
        self.push_holder(v, s);
    }

    /// Appends slot `s` to the tail of `v`'s holder list.
    fn push_holder(&mut self, v: ValRef, s: usize) {
        let ends = &mut self.ends[v.0 as usize];
        let tail = ends[1];
        ends[1] = s as u32;
        if tail == NIL {
            ends[0] = s as u32;
        } else {
            self.links[tail as usize][1] = s as u32;
        }
        self.links[s] = [tail, NIL];
    }

    /// Unlinks slot `s` from `v`'s holder list.
    fn drop_holder(&mut self, v: ValRef, s: usize) {
        let [prev, next] = self.links[s];
        let ends = &mut self.ends[v.0 as usize];
        if prev == NIL {
            ends[0] = next;
        } else {
            self.links[prev as usize][1] = next;
        }
        if next == NIL {
            ends[1] = prev;
        } else {
            self.links[next as usize][0] = prev;
        }
    }

    /// The canonical (earliest-established, still-valid) plane holding `v`.
    fn holder(&self, v: ValRef) -> Option<Plane> {
        let head = self.ends[v.0 as usize][0];
        (head != NIL).then(|| self.plane_at[head as usize])
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
        // Minterms `idx` and `idx | 4` share their `(a, b)` half; it is
        // built on first use, in the order the minterms ask for it.
        let mut ab = [None; 4];
        let mut v = FALSE;
        for idx in 0..8u8 {
            if table >> idx & 1 == 1 {
                let pair = usize::from(idx & 3);
                let t = match ab[pair] {
                    Some(t) => t,
                    None => {
                        let xa = if idx & 1 != 0 { a } else { a.not() };
                        let xb = if idx & 2 != 0 { b } else { b.not() };
                        let t = self.mk_and(xa, xb);
                        ab[pair] = Some(t);
                        t
                    }
                };
                let xc = if idx & 4 != 0 { c } else { c.not() };
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

    /// Rewrites a read operand in place and returns its value: constant
    /// values are rewired to the preset constant planes; otherwise the
    /// operand is redirected to the canonical holder of its value (copy
    /// propagation when the value is a plain plane copy, chain collapsing
    /// when it is a derived node). Sets `changed` when it rewrites.
    fn operand(
        &mut self,
        p: &mut Plane,
        gate: &RuleGate,
        stats: &mut OptStats,
        changed: &mut bool,
    ) -> ValRef {
        let (v, s) = match *p {
            Plane::Const(b) => (Values::cref(b), NIL as usize),
            _ => {
                let s = self.planes.slot(*p);
                (self.read_slot(s), s)
            }
        };
        let rule = if v.is_const() {
            let c = Plane::Const(v == TRUE);
            if *p == c || !gate.on(OptRule::ConstFold) {
                return v;
            }
            *p = c;
            OptRule::ConstFold
        } else {
            // `p` holds `v`, so its holder list is not empty.
            let head = self.ends[v.0 as usize][0] as usize;
            if head == s {
                return v;
            }
            let rule = match self.node(v) {
                Node::Input(_) | Node::Merge(..) => OptRule::CopyProp,
                _ => OptRule::ChainCollapse,
            };
            if !gate.on(rule) {
                return v;
            }
            *p = self.plane_at[head];
            rule
        };
        stats.rule_mut(rule).fires += 1;
        *changed = true;
        v
    }
}

/// Which rules may fire, and the substrate's per-kind `(cycles, energy)`
/// prices, read once per recipe into a table indexed by
/// [`MicroOpKind::index`].
struct RuleGate {
    /// [`OptRule::bit`]s of the rules both enabled and sound for the family.
    rules: u32,
    family: LogicFamily,
    costs: [Option<(u64, f64)>; MicroOpKind::ALL.len()],
}

impl RuleGate {
    fn new(
        family: LogicFamily,
        config: OptConfig,
        cost: &dyn Fn(MicroOpKind) -> Option<(u64, f64)>,
    ) -> RuleGate {
        let rules = OptRule::ALL
            .iter()
            .filter(|&&rule| config.rule_enabled(rule) && rule.sound_for(family))
            .fold(0, |bits, rule| bits | rule.bit());
        RuleGate { rules, family, costs: MicroOpKind::ALL.map(cost) }
    }

    fn on(&self, rule: OptRule) -> bool {
        self.rules & rule.bit() != 0
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

/// Optimizes `recipe` (see [`super::optimize`]) and also returns the
/// 1-based round that changed nothing and so ended the fixpoint: `Some(0)`
/// for a recipe passed through without analysis, `None` when
/// [`MAX_ROUNDS`] cut the iteration off while a round still changed the
/// recipe.
pub(super) fn run(
    recipe: &Recipe,
    family: LogicFamily,
    config: OptConfig,
    cost: &dyn Fn(MicroOpKind) -> Option<(u64, f64)>,
) -> (Recipe, OptStats, Option<usize>) {
    let mut stats = OptStats::default();
    if !config.enabled {
        return (recipe.clone(), stats, Some(0));
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
        return (recipe.with_optimized_ops(ops, 0), stats, Some(0));
    }
    // The merge model assumes the mask plane is wave-constant, and writes
    // to constant planes trap at execution time; synthesized recipes never
    // do either, but `Recipe::from_ops` sequences may — pass those through.
    if ops.iter().any(|op| op.writes().iter().any(|w| matches!(w, Plane::Mask | Plane::Const(_)))) {
        return (recipe.with_optimized_ops(ops, 0), stats, Some(0));
    }
    let gate = RuleGate::new(family, config, cost);
    let planes = PlaneIndex::of(&ops);
    let mut vals = Values::new(planes);
    // Liveness at recipe exit: architectural planes are live, scratch
    // planes are not.
    let exit: Vec<(bool, bool)> = planes
        .planes()
        .map(|p| if let Plane::Scratch(_) = p { (false, false) } else { (true, true) })
        .collect();
    let mut live = exit.clone();
    let mut slots: Vec<Slot> =
        ops.into_iter().map(|op| Slot { op, live: true, dup: false }).collect();
    let mut quiescent = None;
    for round in 1..=MAX_ROUNDS {
        for s in &mut slots {
            s.dup = false;
        }
        vals.reset();
        let mut changed = forward(&mut slots, &mut vals, &gate, &mut stats);
        live.copy_from_slice(&exit);
        changed |= liveness(&mut slots, planes, &mut live, &gate, &mut stats);
        changed |= coalesce(&mut slots, &gate, &mut stats);
        slots.retain(|s| s.live);
        if !changed {
            quiescent = Some(round);
            break;
        }
    }
    let optimized: Vec<MicroOp> = slots.into_iter().map(|s| s.op).collect();
    let saved = (recipe.len() - optimized.len()) as u32;
    (recipe.with_optimized_ops(optimized, saved), stats, quiescent)
}

/// Forward value-numbering rewrite pass over the live ops, starting from
/// a freshly reset `vals`.
fn forward(slots: &mut [Slot], vals: &mut Values, gate: &RuleGate, stats: &mut OptStats) -> bool {
    let mut changed = false;
    for slot in slots.iter_mut() {
        if !slot.live {
            continue;
        }
        let mut operand = |p: &mut Plane| vals.operand(p, gate, stats, &mut changed);
        let (out, v) = match slot.op {
            MicroOp::Nor { mut a, mut b, out } => {
                let (va, vb) = (operand(&mut a), operand(&mut b));
                slot.op = MicroOp::Nor { a, b, out };
                (out, vals.mk_nor(va, vb))
            }
            MicroOp::And { mut a, mut b, out } => {
                let (va, vb) = (operand(&mut a), operand(&mut b));
                slot.op = MicroOp::And { a, b, out };
                (out, vals.mk_and(va, vb))
            }
            MicroOp::Or { mut a, mut b, out } => {
                let (va, vb) = (operand(&mut a), operand(&mut b));
                slot.op = MicroOp::Or { a, b, out };
                (out, vals.mk_or(va, vb))
            }
            MicroOp::Xor { mut a, mut b, out } => {
                let (va, vb) = (operand(&mut a), operand(&mut b));
                slot.op = MicroOp::Xor { a, b, out };
                (out, vals.mk_xor(va, vb))
            }
            MicroOp::Tra { mut a, mut b, mut c, out } => {
                let (va, vb, vc) = (operand(&mut a), operand(&mut b), operand(&mut c));
                slot.op = MicroOp::Tra { a, b, c, out };
                (out, vals.mk_maj(va, vb, vc))
            }
            MicroOp::Not { mut a, out } => {
                let va = operand(&mut a);
                slot.op = MicroOp::Not { a, out };
                (out, va.not())
            }
            MicroOp::Copy { mut a, out } => {
                let va = operand(&mut a);
                slot.op = MicroOp::Copy { a, out };
                (out, va)
            }
            MicroOp::Set { out, value } => (out, Values::cref(value)),
            MicroOp::Lut { mut a, mut b, mut c, out, table } => {
                let (va, vb, vc) = (operand(&mut a), operand(&mut b), operand(&mut c));
                slot.op = MicroOp::Lut { a, b, c, out, table };
                (out, vals.mk_lut(table, va, vb, vc))
            }
            MicroOp::Word { .. } => {
                unreachable!("word-serial recipes bypass the optimizer (run() passes them through)")
            }
            MicroOp::FullAdd { mut a, mut b, carry, sum } => {
                // The carry operand is read *and* written — never redirect
                // it: the carry-out must land back in the same plane.
                let (va, vb) = (operand(&mut a), operand(&mut b));
                slot.op = MicroOp::FullAdd { a, b, carry, sum };
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
                continue;
            }
        };
        changed |= finish_single(slot, out, v, vals, gate, stats);
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
    let s = vals.planes.slot(out);
    let old = vals.read_slot(s);
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
    vals.write_slot(s, eff);
    changed
}

/// Backward two-bit liveness (enabled lanes, mask-disabled lanes) and
/// dead-op deletion, with per-rule attribution of each removal. `live` is
/// indexed by plane slot and starts as liveness at recipe exit.
fn liveness(
    slots: &mut [Slot],
    planes: PlaneIndex,
    live: &mut [(bool, bool)],
    gate: &RuleGate,
    stats: &mut OptStats,
) -> bool {
    let mut changed = false;
    for slot in slots.iter_mut().rev() {
        if !slot.live {
            continue;
        }
        let writes = slot.op.writes();
        let mut needed = false;
        let mut masked_d_live = false;
        for &w in writes.iter() {
            let (e, d) = live[planes.slot(w)];
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
            let entry = &mut live[planes.slot(w)];
            if BitPlaneVrf::is_masked_target(w) {
                entry.0 = false;
                any_masked = true;
            } else {
                *entry = (false, false);
            }
        }
        for r in slot.op.reads() {
            live[planes.slot(r)] = (true, true);
        }
        if any_masked {
            live[planes.slot(Plane::Mask)] = (true, true);
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
