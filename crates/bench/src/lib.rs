//! # bench — deterministic performance-regression gate
//!
//! The [`perf`] module pins what the simulator computes — the
//! architectural counters of the 28-kernel sweep, never wall clock — and
//! runs as a normal test via `cargo test -p bench`. Host speed is
//! measured by the standalone `perfbench` package; the DESIGN.md §12
//! ablations are the `experiments` binary `ablations`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
