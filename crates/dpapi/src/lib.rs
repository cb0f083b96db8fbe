//! # dpapi — a DaPPA-style data-parallel frontend for the MPU
//!
//! A typed [`Pipeline`] of `map` / `zip` / `filter` / `scan` / `reduce`
//! stages over host slices, lowered to ezpim MPU programs: filters become
//! mask-pool predication, `reduce`/`scan` become log-depth in-register
//! trees, and inputs are automatically chunked across the 64-lane VRF
//! geometry, across ensemble members, across sequential launches, and —
//! for reductions — across multiple MPUs with partial aggregation over
//! SEND/RECV.
//!
//! Every pipeline has three coupled artifacts, cross-checked by the
//! crate's tests:
//!
//! 1. a plain-Rust **oracle** ([`Pipeline::oracle`]) defining the
//!    semantics (wrapping u64 arithmetic, `MUL` truncating to the low 32
//!    bits of each operand like the ISA, unsigned comparisons);
//! 2. a **lowering** ([`Pipeline::lower`]) into the ezpim syntax tree
//!    ([`ezpim::Stmt`]), which ezpim replays into its builder and prints
//!    as parseable text;
//! 3. an **execution** ([`Pipeline::run`] / [`Pipeline::run_sharded`])
//!    on the cycle-exact simulator, returning lane-exact results plus
//!    [`mastodon::Stats`].
//!
//! ```
//! use dpapi::{MapOp, Pipeline, Pred, ReduceOp};
//! use mastodon::SimConfig;
//! use pum_backend::DatapathKind;
//!
//! # fn main() -> Result<(), dpapi::DpError> {
//! let data: Vec<u64> = (0..1000).collect();
//! // How many values hash into histogram bin 3?
//! let pipeline = Pipeline::new()
//!     .map(MapOp::And(3))
//!     .filter(Pred::Eq(3))
//!     .reduce(ReduceOp::Count);
//! let run = pipeline.run(&SimConfig::mpu(DatapathKind::Racer), &data, &[])?;
//! assert_eq!(run.reduced, Some(250));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod gen;
mod lower;
mod pipeline;

pub use exec::{shapes_synthesized, PipelineRun};
pub use gen::{random_pipeline, RandomPipeline};
pub use lower::{Lowered, Phase2};
pub use pipeline::{MapOp, Pipeline, PipelineOutput, Pred, ReduceOp, ScanOp, Stage, ZipOp};

use std::fmt;

/// Frontend build- or run-time error.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// A `reduce`/`scan` stage is followed by further stages.
    TerminalNotLast {
        /// Index of the offending terminal stage.
        stage: usize,
    },
    /// The filter chain nests deeper than the ezpim mask-register pool
    /// supports; reported at build (lowering) time with the stage index
    /// of the filter that could not be allocated.
    MaskPoolExhausted {
        /// Index of the offending stage.
        stage: usize,
    },
    /// The stage mix needs more architectural registers than the ten the
    /// register conventions leave writable.
    RegisterPressure {
        /// Registers the lowering would need.
        needed: usize,
        /// Registers available (r0–r9).
        available: usize,
    },
    /// A `zip` stage references a column index not provided as input.
    UnknownColumn {
        /// Index of the zip stage.
        stage: usize,
        /// The column it referenced.
        column: usize,
    },
    /// A zip column's length differs from the primary input's.
    ColumnLengthMismatch {
        /// The column index.
        column: usize,
        /// Its length.
        len: usize,
        /// The primary input's length.
        expected: usize,
    },
    /// The simulator rejected or failed the lowered program.
    Sim(String),
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::TerminalNotLast { stage } => {
                write!(f, "stage {stage}: reduce/scan must be the final stage")
            }
            DpError::MaskPoolExhausted { stage } => {
                write!(f, "stage {stage}: filter nesting exhausts the mask-register pool")
            }
            DpError::RegisterPressure { needed, available } => {
                write!(f, "pipeline needs {needed} registers, only {available} are writable")
            }
            DpError::UnknownColumn { stage, column } => {
                write!(f, "stage {stage}: zip column {column} was not provided")
            }
            DpError::ColumnLengthMismatch { column, len, expected } => {
                write!(f, "zip column {column} has {len} elements, expected {expected}")
            }
            DpError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for DpError {}
