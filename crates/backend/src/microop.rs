//! Technology-level micro-operations.
//!
//! Every bitwise PUM technology exposes a small set of column-parallel
//! primitives (paper §II-B): ReRAM crossbars perform NOR via state-dependent
//! voltage division; DRAM performs a majority vote via triple-row activation
//! (TRA), specialized to AND/OR with preset rows, plus NOT via dual-contact
//! cells and row copies via AAP; SRAM bitline computing yields AND/OR/XOR,
//! and Duality Cache adds single-cycle CMOS full adders at the sense amps.
//!
//! [`MicroOp`] is the union of these primitives; each backend reports which
//! subset it natively supports ([`crate::Datapath::supports`]) and its
//! recipes are synthesized from that subset only — this is checked by tests.
//!
//! Two substrate families extend the bitwise set:
//!
//! * pLUTo-style LUT-in-DRAM exposes [`MicroOp::Lut`]: an arbitrary 3-input
//!   truth table evaluated per lane by querying a pre-programmed LUT row
//!   (one row activation per query, so every gate costs the same).
//! * UPMEM-style DPUs execute near-bank RISC cores with no inter-lane
//!   bitline primitives at all; [`MicroOp::Word`] carries a whole ISA
//!   instruction that the datapath evaluates word-serially, lane by lane.

use crate::bitplane::{BitPlaneVrf, Plane, VrfState};
use mpu_isa::{BinaryOp, InitValue, Instruction};
use std::borrow::BorrowMut;
use std::fmt;

/// A single column-parallel micro-operation applied to whole bit-planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroOp {
    /// ReRAM crossbar NOR: `out = !(a | b)` (OSCAR primitive).
    Nor {
        /// First input plane.
        a: Plane,
        /// Second input plane.
        b: Plane,
        /// Output plane.
        out: Plane,
    },
    /// DRAM triple-row-activate majority vote: `out = maj(a, b, c)`.
    Tra {
        /// First input plane.
        a: Plane,
        /// Second input plane.
        b: Plane,
        /// Third input plane.
        c: Plane,
        /// Output plane.
        out: Plane,
    },
    /// Bitwise NOT (dual-contact cell readout or inverting buffer).
    Not {
        /// Input plane.
        a: Plane,
        /// Output plane.
        out: Plane,
    },
    /// SRAM bitline AND: `out = a & b`.
    And {
        /// First input plane.
        a: Plane,
        /// Second input plane.
        b: Plane,
        /// Output plane.
        out: Plane,
    },
    /// SRAM bitline OR: `out = a | b`.
    Or {
        /// First input plane.
        a: Plane,
        /// Second input plane.
        b: Plane,
        /// Output plane.
        out: Plane,
    },
    /// SRAM bitline XOR: `out = a ^ b`.
    Xor {
        /// First input plane.
        a: Plane,
        /// Second input plane.
        b: Plane,
        /// Output plane.
        out: Plane,
    },
    /// Duality Cache CMOS full adder: `sum = a ^ b ^ cin`,
    /// `cout = maj(a, b, cin)`, computed in a single operation.
    FullAdd {
        /// First addend plane.
        a: Plane,
        /// Second addend plane.
        b: Plane,
        /// Carry-in plane (also receives the carry-out).
        carry: Plane,
        /// Sum output plane.
        sum: Plane,
    },
    /// Row copy (DRAM AAP, RACER buffer move, SRAM read/write-back).
    Copy {
        /// Source plane.
        a: Plane,
        /// Destination plane.
        out: Plane,
    },
    /// Initialize a plane to a constant (preset row write).
    Set {
        /// Destination plane.
        out: Plane,
        /// Constant value.
        value: bool,
    },
    /// pLUTo LUT query: `out = table[a | b<<1 | c<<2]`, an arbitrary
    /// 3-input boolean function evaluated per lane from a pre-programmed
    /// LUT row. Two-input gates tie `c` to [`Plane::Const`]`(false)`.
    Lut {
        /// First input plane (truth-table index bit 0).
        a: Plane,
        /// Second input plane (truth-table index bit 1).
        b: Plane,
        /// Third input plane (truth-table index bit 2).
        c: Plane,
        /// Output plane.
        out: Plane,
        /// Truth table: bit `i` is the output for input index `i`.
        table: u8,
    },
    /// UPMEM-style word-serial execution of a whole compute instruction:
    /// the near-bank core reads every operand lane, evaluates the shared
    /// word-level semantics ([`crate::recipe::semantics`]) and writes the
    /// results back under the lane mask. No bit-plane logic is involved.
    Word {
        /// The compute instruction evaluated word-serially.
        instr: Instruction,
    },
}

/// The kind of a micro-op, used for capability checks and cost lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MicroOpKind {
    /// ReRAM NOR.
    Nor,
    /// DRAM triple-row-activate majority.
    Tra,
    /// Bitwise NOT.
    Not,
    /// Bitline AND.
    And,
    /// Bitline OR.
    Or,
    /// Bitline XOR.
    Xor,
    /// CMOS full adder.
    FullAdd,
    /// Row copy.
    Copy,
    /// Constant preset.
    Set,
    /// pLUTo 3-input LUT query (one DRAM row activation).
    Lut,
    /// Word-serial ALU instruction (add/sub/logic/compare class).
    WordAlu,
    /// Word-serial multiply (software-pipelined on the DPU core).
    WordMul,
    /// Word-serial division (the slowest DPU instruction class).
    WordDiv,
}

impl MicroOpKind {
    /// All micro-op kinds.
    pub const ALL: [MicroOpKind; 13] = [
        MicroOpKind::Nor,
        MicroOpKind::Tra,
        MicroOpKind::Not,
        MicroOpKind::And,
        MicroOpKind::Or,
        MicroOpKind::Xor,
        MicroOpKind::FullAdd,
        MicroOpKind::Copy,
        MicroOpKind::Set,
        MicroOpKind::Lut,
        MicroOpKind::WordAlu,
        MicroOpKind::WordMul,
        MicroOpKind::WordDiv,
    ];

    /// This kind's position in [`MicroOpKind::ALL`], for dense per-kind
    /// tables (histograms, attribution profiles) without a map allocation.
    pub const fn index(self) -> usize {
        match self {
            MicroOpKind::Nor => 0,
            MicroOpKind::Tra => 1,
            MicroOpKind::Not => 2,
            MicroOpKind::And => 3,
            MicroOpKind::Or => 4,
            MicroOpKind::Xor => 5,
            MicroOpKind::FullAdd => 6,
            MicroOpKind::Copy => 7,
            MicroOpKind::Set => 8,
            MicroOpKind::Lut => 9,
            MicroOpKind::WordAlu => 10,
            MicroOpKind::WordMul => 11,
            MicroOpKind::WordDiv => 12,
        }
    }
}

impl fmt::Display for MicroOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MicroOpKind::Nor => "NOR",
            MicroOpKind::Tra => "TRA",
            MicroOpKind::Not => "NOT",
            MicroOpKind::And => "AND",
            MicroOpKind::Or => "OR",
            MicroOpKind::Xor => "XOR",
            MicroOpKind::FullAdd => "FULLADD",
            MicroOpKind::Copy => "COPY",
            MicroOpKind::Set => "SET",
            MicroOpKind::Lut => "LUT",
            MicroOpKind::WordAlu => "WALU",
            MicroOpKind::WordMul => "WMUL",
            MicroOpKind::WordDiv => "WDIV",
        };
        f.write_str(s)
    }
}

/// The micro-op kind of a word-serial instruction, split by DPU cost
/// class: multiplies and divisions are software-pipelined on the core and
/// cost far more than the single-issue ALU class.
pub fn word_kind(instr: &Instruction) -> MicroOpKind {
    match instr {
        Instruction::Binary { op: BinaryOp::Mul | BinaryOp::Mac, .. } => MicroOpKind::WordMul,
        Instruction::Binary { op: BinaryOp::QDiv | BinaryOp::QRDiv | BinaryOp::RDiv, .. } => {
            MicroOpKind::WordDiv
        }
        _ => MicroOpKind::WordAlu,
    }
}

/// Word-parallel evaluation of a 3-input LUT over packed lane bits: lane
/// `i` of the result is `table[x_i | y_i<<1 | z_i<<2]`, the exact per-lane
/// semantics of a pLUTo LUT-row query, vectorized over 64 lanes.
///
/// The semantics are defined as the OR of the AND minterms of every set
/// table bit; this evaluates the same function branch-free, as a Shannon
/// expansion: seven word multiplexers over the table bits broadcast to
/// whole-word masks, selected by `x`, then `y`, then `z`.
#[inline]
pub fn lut3_word(table: u8, x: u64, y: u64, z: u64) -> u64 {
    let bit = |i: u32| 0u64.wrapping_sub(u64::from(table >> i & 1));
    let mux = |sel: u64, one: u64, zero: u64| (sel & one) | (!sel & zero);
    let y0z0 = mux(x, bit(1), bit(0));
    let y1z0 = mux(x, bit(3), bit(2));
    let y0z1 = mux(x, bit(5), bit(4));
    let y1z1 = mux(x, bit(7), bit(6));
    mux(z, mux(y, y1z1, y0z1), mux(y, y1z0, y0z0))
}

/// The defining minterm form of [`lut3_word`]: the OR, over every set
/// table bit, of the AND of each input or its complement. Kept as the
/// independent oracle for the branch-free and decoded evaluators.
#[cfg(test)]
pub(crate) fn lut3_minterms(table: u8, x: u64, y: u64, z: u64) -> u64 {
    let mut out = 0u64;
    for idx in 0..8 {
        if table >> idx & 1 == 0 {
            continue;
        }
        out |= (if idx & 1 != 0 { x } else { !x })
            & (if idx & 2 != 0 { y } else { !y })
            & (if idx & 4 != 0 { z } else { !z });
    }
    out
}

/// The planes one micro-op reads or writes ([`MicroOp::reads`],
/// [`MicroOp::writes`]): at most three, held inline so dataflow queries
/// never allocate. Dereferences to a slice in operand (or write) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planes {
    len: u8,
    planes: [Plane; 3],
}

impl Planes {
    fn new(planes: &[Plane]) -> Planes {
        let mut set = Planes { len: planes.len() as u8, planes: [Plane::Const(false); 3] };
        set.planes[..planes.len()].copy_from_slice(planes);
        set
    }
}

impl std::ops::Deref for Planes {
    type Target = [Plane];

    fn deref(&self) -> &[Plane] {
        &self.planes[..usize::from(self.len)]
    }
}

impl IntoIterator for Planes {
    type Item = Plane;
    type IntoIter = std::iter::Take<std::array::IntoIter<Plane, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.planes.into_iter().take(usize::from(self.len))
    }
}

impl MicroOp {
    /// This micro-op's kind.
    pub fn kind(&self) -> MicroOpKind {
        match self {
            MicroOp::Nor { .. } => MicroOpKind::Nor,
            MicroOp::Tra { .. } => MicroOpKind::Tra,
            MicroOp::Not { .. } => MicroOpKind::Not,
            MicroOp::And { .. } => MicroOpKind::And,
            MicroOp::Or { .. } => MicroOpKind::Or,
            MicroOp::Xor { .. } => MicroOpKind::Xor,
            MicroOp::FullAdd { .. } => MicroOpKind::FullAdd,
            MicroOp::Copy { .. } => MicroOpKind::Copy,
            MicroOp::Set { .. } => MicroOpKind::Set,
            MicroOp::Lut { .. } => MicroOpKind::Lut,
            MicroOp::Word { instr } => word_kind(instr),
        }
    }

    /// This micro-op with every plane operand replaced by `f` of it, in
    /// place, calling `f` in operand order. [`MicroOp::Word`] names
    /// registers, not planes, and is returned unchanged.
    pub(crate) fn map_planes(self, mut f: impl FnMut(Plane) -> Plane) -> MicroOp {
        match self {
            MicroOp::Nor { a, b, out } => MicroOp::Nor { a: f(a), b: f(b), out: f(out) },
            MicroOp::Tra { a, b, c, out } => {
                MicroOp::Tra { a: f(a), b: f(b), c: f(c), out: f(out) }
            }
            MicroOp::Not { a, out } => MicroOp::Not { a: f(a), out: f(out) },
            MicroOp::And { a, b, out } => MicroOp::And { a: f(a), b: f(b), out: f(out) },
            MicroOp::Or { a, b, out } => MicroOp::Or { a: f(a), b: f(b), out: f(out) },
            MicroOp::Xor { a, b, out } => MicroOp::Xor { a: f(a), b: f(b), out: f(out) },
            MicroOp::FullAdd { a, b, carry, sum } => {
                MicroOp::FullAdd { a: f(a), b: f(b), carry: f(carry), sum: f(sum) }
            }
            MicroOp::Copy { a, out } => MicroOp::Copy { a: f(a), out: f(out) },
            MicroOp::Set { out, value } => MicroOp::Set { out: f(out), value },
            MicroOp::Lut { a, b, c, out, table } => {
                MicroOp::Lut { a: f(a), b: f(b), c: f(c), out: f(out), table }
            }
            MicroOp::Word { .. } => self,
        }
    }

    /// The plane this micro-op writes (for [`MicroOp::FullAdd`], the sum
    /// plane — the single fault-injection target of the fused operation).
    fn out_plane(&self) -> Plane {
        match *self {
            MicroOp::Nor { out, .. }
            | MicroOp::Tra { out, .. }
            | MicroOp::Not { out, .. }
            | MicroOp::And { out, .. }
            | MicroOp::Or { out, .. }
            | MicroOp::Xor { out, .. }
            | MicroOp::Copy { out, .. }
            | MicroOp::Set { out, .. }
            | MicroOp::Lut { out, .. } => out,
            MicroOp::FullAdd { sum, .. } => sum,
            // The word-serial op's primary destination, bit 0 standing for
            // the whole register (the single fault-injection target).
            MicroOp::Word { instr } => word_out_plane(&instr),
        }
    }

    /// The planes this micro-op reads, in operand order.
    ///
    /// [`MicroOp::FullAdd`] reads its addends and the carry-in; the carry
    /// plane also appears in [`MicroOp::writes`] because it receives the
    /// carry-out. `Set` reads nothing. Used by the recipe optimizer's
    /// dataflow analysis (`crate::opt`), so it never allocates.
    pub fn reads(&self) -> Planes {
        match *self {
            MicroOp::Nor { a, b, .. }
            | MicroOp::And { a, b, .. }
            | MicroOp::Or { a, b, .. }
            | MicroOp::Xor { a, b, .. } => Planes::new(&[a, b]),
            MicroOp::Tra { a, b, c, .. } | MicroOp::Lut { a, b, c, .. } => Planes::new(&[a, b, c]),
            MicroOp::Not { a, .. } | MicroOp::Copy { a, .. } => Planes::new(&[a]),
            MicroOp::FullAdd { a, b, carry, .. } => Planes::new(&[a, b, carry]),
            MicroOp::Set { .. } => Planes::new(&[]),
            // Coarse word-level summary: bit 0 stands for the whole
            // register. The optimizer never analyzes word-serial recipes
            // (it returns them unmodified), so this is documentation, not
            // dataflow input.
            MicroOp::Word { instr } => word_reg_planes(&instr, Access::Read),
        }
    }

    /// The planes this micro-op writes, in write order.
    ///
    /// [`MicroOp::FullAdd`] writes the reserved scratch latch plane (the
    /// staged sum), then the carry plane, then the sum plane — the exact
    /// sequence [`MicroOp::apply`] performs.
    pub fn writes(&self) -> Planes {
        match *self {
            MicroOp::Nor { out, .. }
            | MicroOp::Tra { out, .. }
            | MicroOp::Not { out, .. }
            | MicroOp::And { out, .. }
            | MicroOp::Or { out, .. }
            | MicroOp::Xor { out, .. }
            | MicroOp::Copy { out, .. }
            | MicroOp::Set { out, .. }
            | MicroOp::Lut { out, .. } => Planes::new(&[out]),
            MicroOp::FullAdd { carry, sum, .. } => Planes::new(&[
                Plane::Scratch(crate::bitplane::SCRATCH_PLANES as u16 - 1),
                carry,
                sum,
            ]),
            MicroOp::Word { instr } => word_reg_planes(&instr, Access::Write),
        }
    }

    /// Applies this micro-op's functional semantics to a VRF. All lanes are
    /// processed in parallel; writes to architectural planes honour the
    /// lane mask (see [`BitPlaneVrf`]).
    ///
    /// If the VRF carries a fault model, one transient-fault draw is made
    /// per executed micro-op against its output plane — the same sequence
    /// the compiled path draws, keeping both paths byte-identical.
    pub fn apply<S, T>(&self, vrf: &mut BitPlaneVrf<S, T>)
    where
        S: AsRef<[u64]> + AsMut<[u64]>,
        T: BorrowMut<VrfState>,
    {
        match *self {
            MicroOp::Nor { a, b, out } => vrf.apply2(a, b, out, |x, y| !(x | y)),
            MicroOp::Tra { a, b, c, out } => {
                vrf.apply3(a, b, c, out, |x, y, z| (x & y) | (y & z) | (x & z))
            }
            MicroOp::Not { a, out } => {
                // Unary NOT via apply2 with the input on both ports.
                vrf.apply2(a, a, out, |x, _| !x)
            }
            MicroOp::And { a, b, out } => vrf.apply2(a, b, out, |x, y| x & y),
            MicroOp::Or { a, b, out } => vrf.apply2(a, b, out, |x, y| x | y),
            MicroOp::Xor { a, b, out } => vrf.apply2(a, b, out, |x, y| x ^ y),
            MicroOp::FullAdd { a, b, carry, sum } => {
                // sum = a^b^cin, cout = maj(a,b,cin). The sum must be
                // computed before the carry plane is overwritten, and both
                // land atomically as in the CMOS adder latch.
                vrf.apply3(
                    a,
                    b,
                    carry,
                    Plane::Scratch(crate::bitplane::SCRATCH_PLANES as u16 - 1),
                    |x, y, z| x ^ y ^ z,
                );
                vrf.apply3(a, b, carry, carry, |x, y, z| (x & y) | (y & z) | (x & z));
                vrf.copy_plane(Plane::Scratch(crate::bitplane::SCRATCH_PLANES as u16 - 1), sum);
            }
            MicroOp::Copy { a, out } => vrf.copy_plane(a, out),
            MicroOp::Set { out, value } => vrf.fill_plane(out, value),
            MicroOp::Lut { a, b, c, out, table } => {
                vrf.apply3(a, b, c, out, |x, y, z| lut3_word(table, x, y, z))
            }
            MicroOp::Word { instr } => apply_word(vrf, &instr),
        }
        vrf.post_op(self.kind(), self.out_plane());
    }
}

/// Register access direction for [`word_reg_planes`].
enum Access {
    Read,
    Write,
}

/// The bit-0 planes of the registers a word-serial instruction touches,
/// used for the coarse [`MicroOp::reads`]/[`MicroOp::writes`] summaries.
fn word_reg_planes(instr: &Instruction, access: Access) -> Planes {
    let reg = |r: mpu_isa::RegId| Plane::Reg { reg: r.0 as u8, bit: 0 };
    match (instr, access) {
        (Instruction::Binary { rs, rt, rd, .. }, Access::Read) => {
            Planes::new(&[reg(*rs), reg(*rt), reg(*rd)])
        }
        (Instruction::Binary { op: BinaryOp::QRDiv, rt, rd, .. }, Access::Write) => {
            Planes::new(&[reg(*rt), reg(*rd)])
        }
        (Instruction::Binary { rd, .. }, Access::Write) => Planes::new(&[reg(*rd)]),
        (Instruction::Unary { rs, .. }, Access::Read) => Planes::new(&[reg(*rs)]),
        (Instruction::Unary { rd, .. }, Access::Write) => Planes::new(&[reg(*rd)]),
        (Instruction::Compare { rs, rt, .. }, Access::Read) => Planes::new(&[reg(*rs), reg(*rt)]),
        (Instruction::Compare { .. }, Access::Write) => Planes::new(&[Plane::Cond]),
        (Instruction::Fuzzy { rs, rt, rd }, Access::Read) => {
            Planes::new(&[reg(*rs), reg(*rt), reg(*rd)])
        }
        (Instruction::Fuzzy { .. }, Access::Write) => Planes::new(&[Plane::Cond]),
        (Instruction::Cas { rs, rt }, Access::Read | Access::Write) => {
            Planes::new(&[reg(*rs), reg(*rt)])
        }
        (Instruction::Init { .. }, Access::Read) => Planes::new(&[]),
        (Instruction::Init { rd, .. }, Access::Write) => Planes::new(&[reg(*rd)]),
        (other, _) => panic!("word micro-op carries non-compute instruction {other:?}"),
    }
}

/// The primary destination plane of a word-serial instruction.
fn word_out_plane(instr: &Instruction) -> Plane {
    match instr {
        Instruction::Binary { rd, .. } | Instruction::Unary { rd, .. } => {
            Plane::Reg { reg: rd.0 as u8, bit: 0 }
        }
        Instruction::Compare { .. } | Instruction::Fuzzy { .. } => Plane::Cond,
        Instruction::Cas { rs, .. } => Plane::Reg { reg: rs.0 as u8, bit: 0 },
        Instruction::Init { rd, .. } => Plane::Reg { reg: rd.0 as u8, bit: 0 },
        other => panic!("word micro-op carries non-compute instruction {other:?}"),
    }
}

/// Evaluates a compute instruction word-serially against the VRF, one
/// 64-lane block at a time: read each operand the instruction reads into a
/// stack block (one transpose), apply the shared word-level semantics
/// ([`crate::recipe::semantics`] — the same functions the reference model
/// uses) lane by lane, and write each result block back under the lane
/// mask. Lanes are independent and every block reads its operands before
/// writing, so this equals reading whole registers first.
///
/// Both the op-by-op oracle ([`MicroOp::apply`]) and the compiled path call
/// this same function, so the DPU path is byte-identical between them by
/// construction. The single
/// per-op fault draw is made by the caller ([`MicroOp::apply`] /
/// `compiled::run_ops`) against [`MicroOp::writes`]'s primary target.
pub(crate) fn apply_word<S, T>(vrf: &mut BitPlaneVrf<S, T>, instr: &Instruction)
where
    S: AsRef<[u64]> + AsMut<[u64]>,
    T: BorrowMut<VrfState>,
{
    use crate::recipe::semantics as sem;
    let r = |id: mpu_isa::RegId| id.0 as u8;
    let lanes = vrf.lanes();
    let (mut x, mut y, mut z, mut out) = ([0u64; 64], [0u64; 64], [0u64; 64], [0u64; 64]);
    for w in 0..vrf.words() {
        let live = (lanes - 64 * w).min(64);
        match *instr {
            Instruction::Binary { op, rs, rt, rd } => {
                vrf.read_block(r(rs), w, &mut x);
                vrf.read_block(r(rt), w, &mut y);
                // Only MUX and MAC read rd: skip its transpose for the rest.
                if matches!(op, BinaryOp::Mac | BinaryOp::Mux) {
                    vrf.read_block(r(rd), w, &mut z);
                }
                if op == BinaryOp::QRDiv {
                    per_lane(&mut out, live, |i| sem::qrdiv(x[i], y[i]).1);
                    vrf.store_block(r(rt), w, &mut out);
                }
                per_lane(&mut out, live, |i| sem::binary(op, x[i], y[i], z[i]));
                vrf.store_block(r(rd), w, &mut out);
            }
            Instruction::Unary { op, rs, rd } => {
                vrf.read_block(r(rs), w, &mut x);
                per_lane(&mut out, live, |i| sem::unary(op, x[i]));
                vrf.store_block(r(rd), w, &mut out);
            }
            Instruction::Compare { op, rs, rt } => {
                vrf.read_block(r(rs), w, &mut x);
                vrf.read_block(r(rt), w, &mut y);
                let flags =
                    (0..live).fold(0, |f, i| f | u64::from(sem::compare(op, x[i], y[i])) << i);
                vrf.store_cond_word(w, flags);
            }
            Instruction::Fuzzy { rs, rt, rd } => {
                vrf.read_block(r(rs), w, &mut x);
                vrf.read_block(r(rt), w, &mut y);
                vrf.read_block(r(rd), w, &mut z);
                let flags =
                    (0..live).fold(0, |f, i| f | u64::from(sem::fuzzy(x[i], y[i], z[i])) << i);
                vrf.store_cond_word(w, flags);
            }
            Instruction::Cas { rs, rt } => {
                vrf.read_block(r(rs), w, &mut x);
                vrf.read_block(r(rt), w, &mut y);
                per_lane(&mut out, live, |i| sem::cas(x[i], y[i]).0);
                per_lane(&mut z, live, |i| sem::cas(x[i], y[i]).1);
                vrf.store_block(r(rs), w, &mut out);
                vrf.store_block(r(rt), w, &mut z);
            }
            Instruction::Init { value, rd } => {
                let v = u64::from(value == InitValue::One);
                per_lane(&mut out, live, |_| v);
                vrf.store_block(r(rd), w, &mut out);
            }
            ref other => panic!("word micro-op carries non-compute instruction {other:?}"),
        }
    }
    match *instr {
        Instruction::Binary { op, rt, rd, .. } => {
            if op == BinaryOp::QRDiv {
                vrf.finish_word_store(r(rt));
            }
            vrf.finish_word_store(r(rd));
        }
        Instruction::Unary { rd, .. } | Instruction::Init { rd, .. } => {
            vrf.finish_word_store(r(rd))
        }
        Instruction::Compare { .. } | Instruction::Fuzzy { .. } => vrf.finish_cond_store(),
        Instruction::Cas { rs, rt } => {
            vrf.finish_word_store(r(rs));
            vrf.finish_word_store(r(rt));
        }
        _ => unreachable!("rejected above"),
    }
}

/// `block[i] = f(i)` for the first `live` lanes of a block, zero past
/// them: lanes the VRF does not have hold zero.
#[inline(always)]
fn per_lane(block: &mut [u64; 64], live: usize, mut f: impl FnMut(usize) -> u64) {
    for (i, v) in block.iter_mut().enumerate() {
        *v = if i < live { f(i) } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrf() -> BitPlaneVrf {
        BitPlaneVrf::new(64, 4)
    }

    fn s(i: u16) -> Plane {
        Plane::Scratch(i)
    }

    #[test]
    fn nor_truth_table() {
        let mut v = vrf();
        // lanes 0..4 encode the four input combinations via two planes.
        v.set_plane_words(s(0), &[0b1010]);
        v.set_plane_words(s(1), &[0b1100]);
        MicroOp::Nor { a: s(0), b: s(1), out: s(2) }.apply(&mut v);
        let got = v.plane_words(s(2))[0] & 0b1111;
        // NOR: only lane 0 (a=0, b=0) yields 1.
        assert_eq!(got, 0b0001);
    }

    #[test]
    fn tra_is_majority() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0b0101_0101]); // a
        v.set_plane_words(s(1), &[0b0011_0011]); // b
        v.set_plane_words(s(2), &[0b0000_1111]); // c
        MicroOp::Tra { a: s(0), b: s(1), c: s(2), out: s(3) }.apply(&mut v);
        let got = v.plane_words(s(3))[0] & 0xff;
        // maj per lane of (a,b,c) bits above.
        let mut expect = 0u64;
        for lane in 0..8 {
            let a = (0b0101_0101u64 >> lane) & 1;
            let b = (0b0011_0011u64 >> lane) & 1;
            let c = (0b0000_1111u64 >> lane) & 1;
            if a + b + c >= 2 {
                expect |= 1 << lane;
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn tra_with_preset_rows_gives_and_or() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0b0101]);
        v.set_plane_words(s(1), &[0b0011]);
        MicroOp::Tra { a: s(0), b: s(1), c: Plane::Const(false), out: s(2) }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0] & 0b1111, 0b0001 & (0b0101 & 0b0011)); // AND
        MicroOp::Tra { a: s(0), b: s(1), c: Plane::Const(true), out: s(3) }.apply(&mut v);
        assert_eq!(v.plane_words(s(3))[0] & 0b1111, 0b0101 | 0b0011); // OR
    }

    #[test]
    fn full_add_computes_sum_and_carry() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0b0101_0101]);
        v.set_plane_words(s(1), &[0b0011_0011]);
        v.set_plane_words(s(2), &[0b0000_1111]); // carry-in
        MicroOp::FullAdd { a: s(0), b: s(1), carry: s(2), sum: s(3) }.apply(&mut v);
        for lane in 0..8 {
            let a = (0b0101_0101u64 >> lane) & 1;
            let b = (0b0011_0011u64 >> lane) & 1;
            let c = (0b0000_1111u64 >> lane) & 1;
            let total = a + b + c;
            assert_eq!(v.lane_bit(s(3), lane), total & 1 == 1, "sum lane {lane}");
            assert_eq!(v.lane_bit(s(2), lane), total >= 2, "carry lane {lane}");
        }
    }

    #[test]
    fn not_and_copy_and_set() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0xf0f0]);
        MicroOp::Not { a: s(0), out: s(1) }.apply(&mut v);
        assert_eq!(v.plane_words(s(1))[0], !0xf0f0u64);
        MicroOp::Copy { a: s(1), out: s(2) }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0], !0xf0f0u64);
        MicroOp::Set { out: s(2), value: false }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0], 0);
    }

    #[test]
    fn bitline_ops() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0b0101]);
        v.set_plane_words(s(1), &[0b0011]);
        MicroOp::And { a: s(0), b: s(1), out: s(2) }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0] & 0b1111, 0b0001);
        MicroOp::Or { a: s(0), b: s(1), out: s(2) }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0] & 0b1111, 0b0111);
        MicroOp::Xor { a: s(0), b: s(1), out: s(2) }.apply(&mut v);
        assert_eq!(v.plane_words(s(2))[0] & 0b1111, 0b0110);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(MicroOp::Set { out: s(0), value: true }.kind(), MicroOpKind::Set);
        assert_eq!(
            MicroOp::FullAdd { a: s(0), b: s(1), carry: s(2), sum: s(3) }.kind(),
            MicroOpKind::FullAdd
        );
        assert_eq!(
            MicroOp::Lut { a: s(0), b: s(1), c: s(2), out: s(3), table: 0x96 }.kind(),
            MicroOpKind::Lut
        );
        let mul = Instruction::Binary {
            op: BinaryOp::Mul,
            rs: mpu_isa::RegId(0),
            rt: mpu_isa::RegId(1),
            rd: mpu_isa::RegId(2),
        };
        assert_eq!(MicroOp::Word { instr: mul }.kind(), MicroOpKind::WordMul);
        assert_eq!(MicroOpKind::ALL.len(), 13);
        for (i, kind) in MicroOpKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn lut3_word_matches_truth_table() {
        for table in 0..=255u8 {
            for idx in 0..8u64 {
                let x = if idx & 1 != 0 { !0 } else { 0 };
                let y = if idx & 2 != 0 { !0 } else { 0 };
                let z = if idx & 4 != 0 { !0 } else { 0 };
                let want = if table >> idx & 1 != 0 { !0u64 } else { 0 };
                assert_eq!(lut3_word(table, x, y, z), want, "table {table:#x} idx {idx}");
                assert_eq!(lut3_minterms(table, x, y, z), want, "oracle {table:#x} idx {idx}");
            }
            // Mixed words: every lane picks its own minterm.
            let (x, y, z) = (0xf0f0_f0f0_f0f0_f0f0, 0xcccc_cccc_cccc_cccc, 0xaaaa_aaaa_aaaa_aaaa);
            assert_eq!(lut3_word(table, x, y, z), lut3_minterms(table, x, y, z), "{table:#x}");
        }
    }

    #[test]
    fn lut_op_evaluates_per_lane() {
        let mut v = vrf();
        v.set_plane_words(s(0), &[0b0101_0101]);
        v.set_plane_words(s(1), &[0b0011_0011]);
        v.set_plane_words(s(2), &[0b0000_1111]);
        // 0x96 is the 3-input parity table (full-adder sum).
        MicroOp::Lut { a: s(0), b: s(1), c: s(2), out: s(3), table: 0x96 }.apply(&mut v);
        for lane in 0..8 {
            let a = (0b0101_0101u64 >> lane) & 1;
            let b = (0b0011_0011u64 >> lane) & 1;
            let c = (0b0000_1111u64 >> lane) & 1;
            assert_eq!(v.lane_bit(s(3), lane), (a ^ b ^ c) == 1, "lane {lane}");
        }
    }

    #[test]
    fn word_op_applies_instruction_semantics() {
        let mut v = BitPlaneVrf::new(8, 4);
        v.write_lane_values(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        v.write_lane_values(1, &[10, 20, 30, 40, 50, 60, 70, 80]);
        let add = Instruction::Binary {
            op: BinaryOp::Add,
            rs: mpu_isa::RegId(0),
            rt: mpu_isa::RegId(1),
            rd: mpu_isa::RegId(2),
        };
        MicroOp::Word { instr: add }.apply(&mut v);
        assert_eq!(v.read_lane_values(2), vec![11, 22, 33, 44, 55, 66, 77, 88]);
    }

    #[test]
    fn word_binaries_read_rd_only_for_mac_and_mux() {
        // `apply_word` hands every other op a zero `rd`, so none may read it.
        use crate::recipe::semantics::binary;
        for op in BinaryOp::ALL {
            let reads_rd = [0, 1, u64::MAX, 0x1234_5678_9abc_def0].iter().any(|&rd| {
                binary(op, 0xdead_beef, 0x1357_9bdf, rd) != binary(op, 0xdead_beef, 0x1357_9bdf, 0)
            });
            assert_eq!(reads_rd, matches!(op, BinaryOp::Mac | BinaryOp::Mux), "{op:?}");
        }
    }
}
