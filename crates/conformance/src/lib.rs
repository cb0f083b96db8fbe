//! Cross-backend differential fuzzing harness for the MPU stack.
//!
//! The harness closes the loop the ISSUE calls for: a seeded generator
//! ([`generate`]) produces random-but-valid multi-MPU programs over the
//! full Table II instruction set; [`check_case`] runs each one through the
//! word-level [`refmodel`] interpreter and through the cycle-accurate
//! simulator on every shipped backend (the Table III substrates plus
//! pLUTo and DPU) over both the compiled and block execution tiers, asserting
//! lane-exact register equality plus agreement on the architectural
//! counters; and [`shrink`] reduces any divergence to a short reproducer
//! rendered as ezpim text by [`reproducer_text`].
//!
//! Entry points:
//!
//! - `cargo test -p conformance` — bounded differential suite, round-trip
//!   properties, the injected-bug canary, and golden statistics snapshots.
//! - `cargo run -p conformance --bin fuzz_conformance -- --seed N --iters N`
//!   — open-ended fuzzing; on mismatch the shrunk reproducer is printed
//!   and written to `conformance-reproducer.txt`.

#![forbid(unsafe_code)]

pub mod case;
pub mod diff;
pub mod fault;
pub mod generate;
pub mod pipeline_case;
pub mod shrink;

pub use case::{reproducer_text, Case, Input, MpuCase, Stmt, Top};
pub use diff::{check_case, check_case_on, ref_geometry, reference_lanes, simulate, Tier, TIERS};
pub use fault::{remap_recovers, render_report, run_sweep, PolicyKind, SweepConfig, SweepReport};
pub use generate::{generate, BOX_RFHS, BOX_VRFS};
pub use pipeline_case::{generate_pipeline_case, kops_to_stmts};
pub use shrink::shrink;
