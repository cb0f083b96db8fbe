//! # pum-backend — bitwise processing-using-memory datapath models
//!
//! The substrates underneath the MPU front end (paper §II, §IV): bit-plane
//! vector register files, per-technology micro-operations, instruction →
//! micro-op recipe synthesis, and calibrated models of the three evaluated
//! datapaths (ReRAM RACER, DRAM MIMDRAM, SRAM Duality Cache) plus two
//! further shipped substrates — pLUTo DRAM LUT-in-memory queries and an
//! UPMEM-style word-serial DPU — alongside the power-density (Fig. 5),
//! front-end area/power (Fig. 11), and Table I feature-matrix models.
//!
//! The functional model is *gate-exact*: executing a recipe's micro-ops on
//! a [`BitPlaneVrf`] performs the actual column-parallel boolean physics of
//! the memory (NOR voltage division, triple-row-activation majority votes,
//! bitline logic), and property tests confirm the results match the ISA's
//! architectural semantics for all three logic families.
//!
//! # Execution engine
//!
//! Micro-op execution is **allocation-free and in place**: plane operands
//! resolve to offsets into one flat storage buffer and output words are
//! computed directly over it, with the lane mask fused into the same word
//! loop — no temporaries, no separate commit pass. For steady-state
//! simulation, a [`Recipe`] can additionally be [`Recipe::compile`]d into a
//! [`CompiledRecipe`] whose plane addresses are pre-resolved per VRF
//! geometry; the simulator builds these at synthesis time and caches them
//! through its recipe cache/pool. Host data loads
//! ([`BitPlaneVrf::write_lane_values`] / `read_lane_values`) go through a
//! word-level 64×64 bit-matrix transpose rather than per-bit shifts.
//!
//! All three paths — op-by-op [`MicroOp::apply`] (the test oracle),
//! compiled, and the pre-optimization reference semantics — are
//! **byte-identical**: same plane contents after
//! every micro-op, same simulator `Stats`. Differential property tests
//! (`tests/inplace_differential.rs`) pit the in-place engine against a
//! naive allocating reference across logic families, mask patterns, and
//! aliased operands to enforce this determinism guarantee.
//!
//! # Example: run an ADD through RACER's NOR-only datapath
//!
//! ```
//! use mpu_isa::{BinaryOp, Instruction, RegId};
//! use pum_backend::{BitPlaneVrf, DatapathModel};
//!
//! let racer = DatapathModel::racer();
//! let add = Instruction::Binary {
//!     op: BinaryOp::Add,
//!     rs: RegId(0),
//!     rt: RegId(1),
//!     rd: RegId(2),
//! };
//! let recipe = racer.recipe(&add).expect("ADD is a compute instruction");
//!
//! let mut vrf = BitPlaneVrf::new(64, 16);
//! vrf.write_lane_values(0, &[7; 64]);
//! vrf.write_lane_values(1, &[35; 64]);
//! for uop in recipe.ops() {
//!     uop.apply(&mut vrf); // every micro-op is a NOR / copy / preset
//! }
//! assert_eq!(vrf.read_lane_values(2)[0], 42);
//!
//! // And the model prices it once: issue cycles, and whole femtojoules
//! // per enabled lane (64 lanes on here).
//! let cost = racer.recipe_cost(&recipe);
//! let femtojoules = cost.fj_per_lane * 64;
//! assert!(cost.cycles > 0 && femtojoules > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod area;
mod bitplane;
mod compiled;
mod datapath;
pub mod fault;
mod features;
mod logic;
mod microop;
pub mod opt;
pub mod power;
pub mod recipe;
mod trace_tier;

pub use bitplane::{BitPlaneVrf, Plane, SCRATCH_PLANES};
pub use compiled::CompiledRecipe;
pub use datapath::{
    pj_to_fj, CostTable, DatapathBuilder, DatapathKind, DatapathModel, Geometry, RecipeCost,
    UopCost,
};
pub use fault::{FaultModel, FaultPrng};
pub use features::{supports, Feature, Platform};
pub use logic::{GateBuilder, LogicFamily};
pub use microop::{lut3_word, word_kind, MicroOp, MicroOpKind, Planes};
pub use opt::{optimize, OptConfig, OptRule, OptStats, RuleStats};
pub use recipe::{build_recipe, semantics, Recipe, RecipeCtx};
pub use trace_tier::{fuse_ensemble_with, EnsembleStep, EnsembleTrace};

/// Bits per vector data element (mirrors [`mpu_isa::DATA_BITS`]).
pub const DATA_BITS: u32 = mpu_isa::DATA_BITS;

/// The MPU clock frequency (paper §VII: 1 GHz synthesized control path).
pub const CLOCK_HZ: f64 = 1.0e9;
