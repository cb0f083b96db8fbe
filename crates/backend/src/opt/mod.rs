//! Recipe optimization: a rule-driven micro-op rewrite pass with a
//! per-technology cost model (DESIGN.md §10).
//!
//! Recipe synthesis ([`crate::build_recipe`]) emits fixed per-technology
//! templates: every gate lowering allocates scratch planes, re-derives
//! inverses, and copies staged results exactly the way the textbook netlist
//! does, so kernels pay for dead planes, redundant copies, and uncollapsed
//! NOR/MAJ chains on every thermal wave. This module rewrites a synthesized
//! [`Recipe`] once, at synthesis time — before compilation
//! ([`crate::CompiledRecipe`]), and cached through the simulator's recipe
//! cache/pool — so the cost is paid
//! per template miss, not per wave, and every execution path runs the
//! optimized form.
//!
//! # Rule families
//!
//! Five declarative rule families share one dataflow analysis (a forward
//! copy/constant value lattice plus a backward per-plane liveness pass):
//!
//! * [`OptRule::DeadPlane`] — dead-plane elimination: ops whose destination
//!   planes are all dead (never observed architecturally, never read before
//!   being overwritten) are deleted.
//! * [`OptRule::CopyProp`] — copy propagation and coalescing: reads through
//!   `Copy` chains are redirected to the canonical source plane, and a
//!   compute-into-scratch-then-`Copy`-out pair is coalesced into a single
//!   compute-into-destination op when the scratch value is dead afterwards.
//! * [`OptRule::ConstFold`] — constant-plane folding: operands whose value
//!   is statically known are rewired to the preset constant planes
//!   ([`Plane::Const`]), and ops that compute a constant are strength-reduced
//!   to `Set` when the substrate prices `Set` below the original kind.
//! * [`OptRule::ChainCollapse`] — NOR/MAJ chain collapsing: double
//!   negations, absorbing inputs (`x NOR x`, `Maj(x, x, y)`,
//!   `Maj(x, !x, y)`, …), and recomputed subexpressions are collapsed by
//!   hash-consed value numbering; a recomputation whose value already lives
//!   in a plane is bypassed (consumers read the existing plane) and the
//!   producer then falls to the liveness pass.
//! * [`OptRule::MaskStrength`] — mask-aware store strength reduction: a
//!   masked store whose merged result provably equals the destination's
//!   current contents is a no-op and is deleted, as is a masked store whose
//!   enabled lanes are never observed (only the mask-disabled lanes flow
//!   onward — those are the old contents, which survive deletion verbatim).
//!
//! # Cost-model gating
//!
//! Rules *remove* ops or *rewrite operands* freely (both strictly reduce
//! work), but any rewrite that changes an op's kind (e.g. `Nor` → `Set`,
//! `Xor` → `Copy`) consults the substrate's calibrated per-kind cycle and
//! energy tables ([`crate::DatapathModel`]) and only fires when the new kind
//! is no worse on both axes and strictly better on at least one. This is
//! why the same recipe optimizes differently per technology: RACER prices a
//! `Copy` above a `Nor` (0.025 pJ vs 0.020 pJ per lane), so NOR-chain
//! results are bypassed by operand redirection instead of materialized
//! copies, while Duality Cache prices `Copy` below `Xor` and accepts the
//! same rewrite.
//!
//! Every [`LogicFamily`]'s table declares the rules it withholds
//! ([`OptRule::sound_for`]); the pass consults the declaration before
//! firing, so a family-restricted rule cannot leak onto a substrate whose
//! micro-op semantics it was not proven against.
//!
//! # Memo-key semantics
//!
//! [`OptConfig`] is embedded in [`crate::RecipeCtx`], which keys every
//! recipe memo (per-MPU cache, shared pool, compiled forms), so
//! toggling optimization or individual rules can never serve a stale
//! recipe optimized under a different configuration.

mod pass;

use crate::logic::LogicFamily;
use crate::microop::MicroOpKind;
use crate::recipe::Recipe;

/// One rewrite-rule family of the recipe optimizer (module docs give the
/// catalog; DESIGN.md §10 gives the soundness argument per family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptRule {
    /// Dead-plane elimination.
    DeadPlane,
    /// Copy propagation and copy coalescing.
    CopyProp,
    /// Constant-plane folding through the preset [`crate::Plane::Const`]
    /// planes, plus `Set` strength reduction of constant results.
    ConstFold,
    /// NOR/MAJ chain collapsing (double negation, absorbing inputs,
    /// recomputed subexpressions) via hash-consed value numbering.
    ChainCollapse,
    /// Mask-aware store strength reduction (no-op masked stores and masked
    /// stores whose enabled lanes are dead).
    MaskStrength,
}

impl OptRule {
    /// All rule families, in attribution-table order.
    pub const ALL: [OptRule; 5] = [
        OptRule::DeadPlane,
        OptRule::CopyProp,
        OptRule::ConstFold,
        OptRule::ChainCollapse,
        OptRule::MaskStrength,
    ];

    /// Bitmask enabling every rule (see [`OptConfig::rules`]).
    pub const ALL_MASK: u32 = (1 << Self::ALL.len()) - 1;

    /// This rule's position in [`OptRule::ALL`].
    pub const fn index(self) -> usize {
        match self {
            OptRule::DeadPlane => 0,
            OptRule::CopyProp => 1,
            OptRule::ConstFold => 2,
            OptRule::ChainCollapse => 3,
            OptRule::MaskStrength => 4,
        }
    }

    /// The rule's bit in [`OptConfig::rules`].
    pub const fn bit(self) -> u32 {
        1 << self.index()
    }

    /// Short stable name for attribution tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            OptRule::DeadPlane => "dead-plane",
            OptRule::CopyProp => "copy-prop",
            OptRule::ConstFold => "const-fold",
            OptRule::ChainCollapse => "chain-collapse",
            OptRule::MaskStrength => "mask-strength",
        }
    }

    /// Whether this rule is sound for `family`: not in its table's
    /// [`crate::FamilyTable::withheld_rules`].
    ///
    /// All five rules are proven against the shared micro-op semantics
    /// the bit-plane families lower onto (`MicroOp::apply` is the single
    /// source of truth for NOR, MAJ, and bitline execution alike) —
    /// DESIGN.md §10 records the per-family argument. The LUT family
    /// withholds [`OptRule::ChainCollapse`] and the word-serial family
    /// withholds every rule; the tables say why.
    ///
    /// The pass consults this declaration before firing a rule, so a
    /// family-restricted rewrite cannot leak onto a substrate it was not
    /// proven against.
    pub fn sound_for(self, family: LogicFamily) -> bool {
        family.table().withheld_rules & self.bit() == 0
    }
}

/// Recipe-optimizer configuration.
///
/// Carried inside [`crate::RecipeCtx`] and therefore part of every recipe
/// memo key: flipping any field invalidates cached and compiled recipes
/// built under the old configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// Master switch. When `false` the optimizer is the identity transform
    /// and synthesized recipes execute verbatim.
    pub enabled: bool,
    /// Bitmask of enabled rule families (bit positions from
    /// [`OptRule::bit`]). Rules outside the mask never fire, including
    /// the removals they would otherwise attribute.
    pub rules: u32,
    /// Test-only injected **unsound** rewrite: flips the polarity of the
    /// first `Set` micro-op in the recipe before optimization, producing a
    /// lane-visible wrong result that the conformance canary must catch
    /// and shrink (mirrors the MAJ-carry corruption canary). Never enable
    /// outside tests.
    pub canary: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { enabled: true, rules: OptRule::ALL_MASK, canary: false }
    }
}

impl OptConfig {
    /// Configuration with the optimizer switched off entirely.
    pub fn disabled() -> Self {
        OptConfig { enabled: false, ..OptConfig::default() }
    }

    /// Default configuration restricted to the given rule bitmask.
    pub fn with_rules(rules: u32) -> Self {
        OptConfig { rules: rules & OptRule::ALL_MASK, ..OptConfig::default() }
    }

    /// Whether `rule` may fire under this configuration.
    pub fn rule_enabled(self, rule: OptRule) -> bool {
        self.enabled && self.rules & rule.bit() != 0
    }

    /// Deterministic hash of the configuration (enabled flag + rule-set +
    /// canary), suitable for memo-key stamping and report headers.
    pub fn key_hash(self) -> u64 {
        (u64::from(self.enabled) << 33) | (u64::from(self.canary) << 32) | u64::from(self.rules)
    }
}

/// Fire/removal counters for one rule family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Times the rule rewrote or removed a micro-op.
    pub fires: u64,
    /// Micro-ops deleted under this rule's attribution.
    pub removed_uops: u64,
}

impl RuleStats {
    fn merge(&mut self, other: RuleStats) {
        self.fires += other.fires;
        self.removed_uops += other.removed_uops;
    }
}

/// Per-rule attribution counters accumulated over one or more optimizer
/// runs. Surfaced through the simulator's `PoolStats` and the attribution
/// profiler so every rule's payoff is measured, not asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Counters for [`OptRule::DeadPlane`].
    pub dead_plane: RuleStats,
    /// Counters for [`OptRule::CopyProp`].
    pub copy_prop: RuleStats,
    /// Counters for [`OptRule::ConstFold`].
    pub const_fold: RuleStats,
    /// Counters for [`OptRule::ChainCollapse`].
    pub chain_collapse: RuleStats,
    /// Counters for [`OptRule::MaskStrength`].
    pub mask_strength: RuleStats,
}

impl OptStats {
    /// Counters for one rule family.
    pub fn rule(&self, rule: OptRule) -> RuleStats {
        match rule {
            OptRule::DeadPlane => self.dead_plane,
            OptRule::CopyProp => self.copy_prop,
            OptRule::ConstFold => self.const_fold,
            OptRule::ChainCollapse => self.chain_collapse,
            OptRule::MaskStrength => self.mask_strength,
        }
    }

    pub(crate) fn rule_mut(&mut self, rule: OptRule) -> &mut RuleStats {
        match rule {
            OptRule::DeadPlane => &mut self.dead_plane,
            OptRule::CopyProp => &mut self.copy_prop,
            OptRule::ConstFold => &mut self.const_fold,
            OptRule::ChainCollapse => &mut self.chain_collapse,
            OptRule::MaskStrength => &mut self.mask_strength,
        }
    }

    /// Total micro-ops removed across all rules.
    pub fn saved_uops(&self) -> u64 {
        OptRule::ALL.iter().map(|&r| self.rule(r).removed_uops).sum()
    }

    /// Total rule firings (rewrites + removals) across all rules.
    pub fn total_fires(&self) -> u64 {
        OptRule::ALL.iter().map(|&r| self.rule(r).fires).sum()
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &OptStats) {
        for &rule in &OptRule::ALL {
            let theirs = other.rule(rule);
            self.rule_mut(rule).merge(theirs);
        }
    }
}

/// Optimizes a synthesized recipe for one substrate.
///
/// `cost` prices a micro-op kind as `(issue cycles, energy pJ/lane)` and
/// returns `None` for kinds the substrate cannot issue; kind-changing
/// rewrites only fire when the replacement is supported by `family`,
/// priced by `cost`, no worse on both axes, and strictly better on one.
/// [`crate::DatapathModel::recipe`] wires its calibrated tables in here —
/// call that (or [`crate::DatapathModel::recipe_with_stats`]) rather than
/// this function unless you are building a custom harness.
///
/// Returns the optimized recipe (with [`Recipe::saved_uops`] recording the
/// reduction) and the per-rule attribution counters. With
/// [`OptConfig::enabled`] false this is the identity transform. Sequences
/// hand-built via [`Recipe::from_ops`] that write the mask plane or a
/// constant plane are returned unmodified: the merge model assumes a
/// wave-constant mask, and constant-plane writes trap at execution time.
pub fn optimize(
    recipe: &Recipe,
    family: LogicFamily,
    config: OptConfig,
    cost: &dyn Fn(MicroOpKind) -> Option<(u64, f64)>,
) -> (Recipe, OptStats) {
    let (recipe, stats, _) = pass::run(recipe, family, config, cost);
    (recipe, stats)
}

#[cfg(test)]
mod tests;
