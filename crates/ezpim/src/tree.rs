//! The ezpim syntax tree.
//!
//! [`parse`](crate::parse) reads text into this tree, frontends such as
//! `dpapi` lower into it, and it has exactly one replay into the builder
//! ([`EzProgram::push`], [`Body::emit`]) and one printer (`Display`).
//! The printed text parses back to the same tree, so pushing a tree and
//! parsing its text assemble to the same [`mpu_isa::Program`].

use crate::builder::{Body, Cond, EzError, EzProgram, Transfer};
use mpu_isa::{Instruction, RegId};
use std::fmt;

/// A statement of an ensemble or subroutine body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// A Table II instruction line.
    Op(Instruction),
    /// `if cond { .. }`, with an optional `else { .. }` body.
    If(Cond, Vec<Stmt>, Option<Vec<Stmt>>),
    /// `while cond { .. }`: a hardware dynamic loop.
    While(Cond, Vec<Stmt>),
    /// `for rC < rL { .. }`: the counted loop with counter `rC` and
    /// limit `rL`.
    For(RegId, RegId, Vec<Stmt>),
    /// `call name`: a subroutine call.
    Call(String),
}

/// One `memcpy vA.rB -> vC.rD` line of a move block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memcpy {
    /// Source VRF within each source RFH.
    pub src_vrf: u16,
    /// Source register.
    pub rs: RegId,
    /// Destination VRF within each destination RFH.
    pub dst_vrf: u16,
    /// Destination register.
    pub rd: RegId,
}

/// A move block: `(src_rfh, dst_rfh)` pairs and the copies applied to
/// every pair.
pub type MoveBlock = (Vec<(u16, u16)>, Vec<Memcpy>);

/// A top-level construct of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Top {
    /// `ensemble hA.vB .. { .. }`: a compute ensemble over `(rfh, vrf)`
    /// members.
    Ensemble(Vec<(u16, u16)>, Vec<Stmt>),
    /// `move hA -> hB , .. { .. }`: a local transfer ensemble.
    Move(Vec<(u16, u16)>, Vec<Memcpy>),
    /// `send mpuN { .. }`: move blocks sent to MPU `N`.
    Send(u16, Vec<MoveBlock>),
    /// `recv mpuN`.
    Recv(u16),
    /// `sync`.
    Sync,
    /// `sub name { .. }`: a subroutine definition.
    Sub(String, Vec<Stmt>),
}

impl Body<'_> {
    /// Replays statements into this body, in order.
    pub fn emit(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Op(i) => self.op(*i),
                Stmt::If(cond, then, None) => self.if_then(*cond, |b| b.emit(then)),
                Stmt::If(cond, then, Some(otherwise)) => {
                    self.if_else(*cond, |b| b.emit(then), |b| b.emit(otherwise))
                }
                Stmt::While(cond, body) => self.while_loop(*cond, |b| b.emit(body)),
                Stmt::For(counter, limit, body) => {
                    self.for_loop(*counter, *limit, |b| b.emit(body))
                }
                Stmt::Call(name) => self.call(name),
            };
        }
    }
}

fn memcpys(t: &mut Transfer<'_>, copies: &[Memcpy]) {
    for c in copies {
        t.memcpy(c.src_vrf, c.rs, c.dst_vrf, c.rd);
    }
}

impl EzProgram {
    /// Replays one top-level construct into the program.
    ///
    /// # Errors
    ///
    /// Body-construction errors of an ensemble or subroutine, as
    /// [`EzProgram::ensemble`] and [`EzProgram::subroutine`] report them.
    pub fn push(&mut self, top: &Top) -> Result<&mut Self, EzError> {
        match top {
            Top::Ensemble(members, body) => self.ensemble(members, |b| b.emit(body)),
            Top::Move(pairs, copies) => Ok(self.transfer(pairs, |t| memcpys(t, copies))),
            Top::Send(dst, blocks) => Ok(self.send(*dst, |s| {
                for (pairs, copies) in blocks {
                    s.transfer(pairs, |t| memcpys(t, copies));
                }
            })),
            Top::Recv(src) => Ok(self.recv(*src)),
            Top::Sync => Ok(self.sync()),
            Top::Sub(name, body) => self.subroutine(name, |b| b.emit(body)),
        }
    }
}

/// Four spaces per nesting level.
struct Pad(usize);

impl fmt::Display for Pad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for _ in 0..self.0 {
            f.write_str("    ")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cond::Eq(a, b) => write!(f, "r{} == r{}", a.0, b.0),
            Cond::Gt(a, b) => write!(f, "r{} > r{}", a.0, b.0),
            Cond::Lt(a, b) => write!(f, "r{} < r{}", a.0, b.0),
            Cond::Fuzzy(a, b, skip) => write!(f, "r{} ~= r{} skip r{}", a.0, b.0, skip.0),
        }
    }
}

fn write_stmts(f: &mut fmt::Formatter<'_>, stmts: &[Stmt], depth: usize) -> fmt::Result {
    stmts.iter().try_for_each(|s| write_stmt(f, s, depth))
}

/// Writes `head {`, the body one level deeper, and the closing `}`.
fn write_block(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    head: fmt::Arguments<'_>,
    body: &[Stmt],
) -> fmt::Result {
    writeln!(f, "{}{head} {{", Pad(depth))?;
    write_stmts(f, body, depth + 1)?;
    writeln!(f, "{}}}", Pad(depth))
}

fn write_stmt(f: &mut fmt::Formatter<'_>, stmt: &Stmt, depth: usize) -> fmt::Result {
    match stmt {
        Stmt::Op(i) => writeln!(f, "{}{i}", Pad(depth)),
        Stmt::If(cond, then, None) => write_block(f, depth, format_args!("if {cond}"), then),
        Stmt::If(cond, then, Some(otherwise)) => {
            writeln!(f, "{}if {cond} {{", Pad(depth))?;
            write_stmts(f, then, depth + 1)?;
            write_block(f, depth, format_args!("}} else"), otherwise)
        }
        Stmt::While(cond, body) => write_block(f, depth, format_args!("while {cond}"), body),
        Stmt::For(c, l, body) => {
            write_block(f, depth, format_args!("for r{} < r{}", c.0, l.0), body)
        }
        Stmt::Call(name) => writeln!(f, "{}call {name}", Pad(depth)),
    }
}

fn write_move(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    pairs: &[(u16, u16)],
    copies: &[Memcpy],
) -> fmt::Result {
    write!(f, "{}move ", Pad(depth))?;
    for (i, (src, dst)) in pairs.iter().enumerate() {
        let sep = if i == 0 { "" } else { " , " };
        write!(f, "{sep}h{src} -> h{dst}")?;
    }
    f.write_str(" {\n")?;
    for c in copies {
        let (pad, s, rs, d, rd) = (Pad(depth + 1), c.src_vrf, c.rs.0, c.dst_vrf, c.rd.0);
        writeln!(f, "{pad}memcpy v{s}.r{rs} -> v{d}.r{rd}")?;
    }
    writeln!(f, "{}}}", Pad(depth))
}

/// One statement at the outermost indent, each line `\n`-terminated.
impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_stmt(f, self, 0)
    }
}

/// One construct as ezpim text, each line `\n`-terminated; a program's
/// text is its constructs' texts in order.
impl fmt::Display for Top {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Top::Ensemble(members, body) => {
                f.write_str("ensemble ")?;
                for (i, (rfh, vrf)) in members.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}h{rfh}.v{vrf}")?;
                }
                f.write_str(" {\n")?;
                write_stmts(f, body, 1)?;
                f.write_str("}\n")
            }
            Top::Move(pairs, copies) => write_move(f, 0, pairs, copies),
            Top::Send(dst, blocks) => {
                writeln!(f, "send mpu{dst} {{")?;
                blocks.iter().try_for_each(|(pairs, copies)| write_move(f, 1, pairs, copies))?;
                f.write_str("}\n")
            }
            Top::Recv(src) => writeln!(f, "recv mpu{src}"),
            Top::Sync => f.write_str("sync\n"),
            Top::Sub(name, body) => write_block(f, 0, format_args!("sub {name}"), body),
        }
    }
}
