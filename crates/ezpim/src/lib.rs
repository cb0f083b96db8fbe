//! # ezpim — the MPU advanced assembler
//!
//! The paper's ezpim lets programmers write MPU programs with the control
//! semantics of high-level languages — `if`/`else`, `for`/`while` loops,
//! subroutines — and lowers them to Table II instructions (Fig. 7):
//! comparisons feed the conditional register, `SETMASK`/`GETMASK`/`UNMASK`
//! implement arbitrarily nested predication, `JUMP_COND` closes dynamic
//! loops, and `JUMP`/`RETURN` realize subroutine calls.
//!
//! Three front ends are provided:
//!
//! * [`EzProgram`] — a typed builder API (what the workload generators
//!   use);
//! * [`parse`] — a textual ezpim language with `ensemble`, `while`, `if`,
//!   `move`, `send`, and `sub` blocks;
//! * the syntax tree ([`Top`], [`Stmt`], [`Memcpy`]) — what the parser
//!   reads text into and what frontends such as `dpapi` lower into.
//!   [`EzProgram::push`] and [`Body::emit`] replay it into the builder,
//!   and its `Display` prints text that [`parse`] reads back to the same
//!   program.
//!
//! # Example
//!
//! ```
//! use ezpim::{Cond, EzProgram};
//! use mpu_isa::RegId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ez = EzProgram::new();
//! ez.ensemble(&[(0, 0)], |b| {
//!     b.if_else(
//!         Cond::Gt(RegId(0), RegId(1)),
//!         |b| { b.sub(RegId(0), RegId(1), RegId(2)); },
//!         |b| { b.sub(RegId(1), RegId(0), RegId(2)); },
//!     );
//! })?;
//! let program = ez.assemble()?; // validated Table II binary
//! # let _ = program;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod parser;
mod tree;

pub use builder::{Body, Cond, EzError, EzProgram, SendBlock, Transfer};
pub use parser::{parse, ParseError, MAX_DEPTH};
pub use tree::{Memcpy, MoveBlock, Stmt, Top};
