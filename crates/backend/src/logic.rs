//! Gate synthesis on top of technology micro-ops.
//!
//! Every backend natively supports one *logic family* (paper §II-B):
//!
//! * [`LogicFamily::Nor`] — ReRAM crossbars (RACER/OSCAR): NOR is the only
//!   combinational primitive, plus buffered copies. Full adders use the
//!   classic 9-NOR netlist.
//! * [`LogicFamily::Maj`] — DRAM multiple-row activation (MIMDRAM/Ambit):
//!   triple-row-activate majority votes, specialized to AND/OR with preset
//!   rows, plus dual-contact-cell NOT and row copies.
//! * [`LogicFamily::Bitline`] — SRAM bitline computing (Duality Cache):
//!   native AND/OR/XOR/NOT plus a single-operation CMOS full adder.
//! * [`LogicFamily::Lut`] — DRAM LUT queries (pLUTo).
//! * [`LogicFamily::WordSerial`] — near-bank cores (UPMEM-style DPUs).
//!
//! Everything the rest of the stack knows about a family — its legal
//! micro-op kinds and their fault weights, the optimizer rules it
//! withholds, whether it is word-serial — is one [`FamilyTable`]
//! ([`LogicFamily::table`]).
//!
//! [`GateBuilder`] emits micro-op sequences for common gates using only the
//! family's primitives; `crate::recipe` composes these into full
//! instruction recipes. Tests verify each synthesized gate against its
//! boolean truth table *by actually executing the micro-ops*.

use crate::bitplane::{Plane, SCRATCH_PLANES};
use crate::microop::{MicroOp, MicroOpKind};
use crate::opt::OptRule;

/// The combinational primitive set a backend exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicFamily {
    /// NOR-complete (ReRAM crossbars).
    Nor,
    /// Majority/NOT-complete (DRAM triple-row activation).
    Maj,
    /// AND/OR/XOR/NOT plus CMOS full adder (SRAM bitline).
    Bitline,
    /// Arbitrary 3-input LUT queries (pLUTo LUT-in-DRAM): every gate is a
    /// single pre-programmed row activation.
    Lut,
    /// No inter-lane bit-plane primitives at all (UPMEM-style DPUs):
    /// recipes fall back to word-serial execution of whole instructions
    /// by the near-bank core ([`MicroOp::Word`]).
    WordSerial,
}

/// One logic family's facts, spelled once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FamilyTable {
    /// The micro-op kinds the family's recipes may contain, each with its
    /// relative transient-fault weight per lane: the family's dominant
    /// analog mechanism carries 1.0, so the configured transient rate
    /// applies to it directly, and cheaper or digitally latched
    /// operations fail proportionally less often.
    pub kinds: &'static [(MicroOpKind, f64)],
    /// Optimizer rules withheld for this family, as an [`OptRule::bit`]
    /// mask.
    pub withheld_rules: u32,
    /// One micro-op walks the VRF's lanes one word at a time, so a
    /// recipe's cycles and a micro-op's fault exposure scale with the
    /// lane count.
    pub word_serial: bool,
}

/// ReRAM: state-dependent voltage division on the NOR pull-down is the
/// analog step; buffer moves and presets are near-digital.
const NOR: FamilyTable = FamilyTable {
    kinds: &[(MicroOpKind::Nor, 1.0), (MicroOpKind::Copy, 0.1), (MicroOpKind::Set, 0.05)],
    withheld_rules: 0,
    word_serial: false,
};

/// DRAM: triple-row-activation charge sharing dominates; the dual-contact
/// NOT and AAP row copies also disturb charge.
const MAJ: FamilyTable = FamilyTable {
    kinds: &[
        (MicroOpKind::Tra, 1.0),
        (MicroOpKind::Not, 0.3),
        (MicroOpKind::Copy, 0.2),
        (MicroOpKind::Set, 0.1),
    ],
    withheld_rules: 0,
    word_serial: false,
};

/// SRAM: bitline logic suffers read upsets; the CMOS full adder is latched
/// and sturdier; copies and presets are ordinary array writes. NOT carries
/// no weight.
const BITLINE: FamilyTable = FamilyTable {
    kinds: &[
        (MicroOpKind::And, 1.0),
        (MicroOpKind::Or, 1.0),
        (MicroOpKind::Xor, 1.0),
        (MicroOpKind::Not, 0.0),
        (MicroOpKind::FullAdd, 0.5),
        (MicroOpKind::Copy, 0.1),
        (MicroOpKind::Set, 0.05),
    ],
    withheld_rules: 0,
    word_serial: false,
};

/// pLUTo: the LUT row activation and column read-out is the analog step;
/// buffer moves and presets are near-digital. The value model expands LUT
/// tables into minterm DAGs, and the chain-collapse equivalences have not
/// been proven against that expansion, so that rule is withheld.
const LUT: FamilyTable = FamilyTable {
    kinds: &[(MicroOpKind::Lut, 1.0), (MicroOpKind::Copy, 0.1), (MicroOpKind::Set, 0.05)],
    withheld_rules: OptRule::ChainCollapse.bit(),
    word_serial: false,
};

/// DPU: one word micro-op stands in for a whole vector instruction, walked
/// lane by lane, so its exposure integrates over the loop. Per lane, the
/// multi-cycle multiply and divide sequencers weigh their occupancy (8x
/// and ~13x an ALU op) discounted by the 0.7 latch-density factor of the
/// shared sequencer. Word recipes execute whole instructions outside the
/// bit-plane value lattice, so every optimizer rule is withheld.
const WORD_SERIAL: FamilyTable = FamilyTable {
    kinds: &[
        (MicroOpKind::WordAlu, 1.0),
        (MicroOpKind::WordMul, 5.59375),
        (MicroOpKind::WordDiv, 9.328125),
    ],
    withheld_rules: OptRule::ALL_MASK,
    word_serial: true,
};

impl LogicFamily {
    /// Every logic family.
    pub const ALL: [LogicFamily; 5] = [
        LogicFamily::Nor,
        LogicFamily::Maj,
        LogicFamily::Bitline,
        LogicFamily::Lut,
        LogicFamily::WordSerial,
    ];

    /// This family's facts.
    pub fn table(self) -> &'static FamilyTable {
        match self {
            LogicFamily::Nor => &NOR,
            LogicFamily::Maj => &MAJ,
            LogicFamily::Bitline => &BITLINE,
            LogicFamily::Lut => &LUT,
            LogicFamily::WordSerial => &WORD_SERIAL,
        }
    }

    /// The micro-op kinds this family's synthesized recipes may contain.
    pub fn supported_kinds(self) -> impl Iterator<Item = MicroOpKind> {
        self.table().kinds.iter().map(|&(kind, _)| kind)
    }

    /// Whether `kind` is legal for this family. Used by the recipe
    /// optimizer to legalize kind-changing rewrites.
    pub fn supports(self, kind: MicroOpKind) -> bool {
        self.table().kinds.iter().any(|&(k, _)| k == kind)
    }

    /// True for word-serial near-bank cores ([`FamilyTable::word_serial`]).
    pub fn word_serial(self) -> bool {
        self.table().word_serial
    }
}

/// Emits micro-op sequences realizing boolean gates with one logic family's
/// primitives, managing scratch-plane allocation.
///
/// Scratch planes `0..SCRATCH_PLANES-1` are allocatable; the last plane is
/// reserved for [`MicroOp::FullAdd`]'s internal latch.
#[derive(Debug)]
pub struct GateBuilder {
    family: LogicFamily,
    ops: Vec<MicroOp>,
    free: Vec<u16>,
    high_water: usize,
}

impl GateBuilder {
    /// Creates a builder for `family` with an empty op stream.
    pub fn new(family: LogicFamily) -> Self {
        // Last scratch plane is reserved for FullAdd's internal temp.
        let free: Vec<u16> = (0..(SCRATCH_PLANES as u16 - 1)).rev().collect();
        Self { family, ops: Vec::new(), free, high_water: 0 }
    }

    /// The family this builder synthesizes for.
    pub fn family(&self) -> LogicFamily {
        self.family
    }

    /// Consumes the builder, returning the emitted micro-op stream.
    pub fn finish(self) -> Vec<MicroOp> {
        self.ops
    }

    /// Number of micro-ops emitted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Largest number of scratch planes simultaneously live (for sizing
    /// buffer rows in hardware).
    pub fn scratch_high_water(&self) -> usize {
        self.high_water
    }

    /// Allocates a scratch plane.
    ///
    /// # Panics
    ///
    /// Panics if the recipe exceeds the hardware's scratch/buffer budget —
    /// a recipe bug, not a data-dependent condition.
    pub fn alloc(&mut self) -> Plane {
        let i = self.free.pop().expect("recipe exceeded scratch-plane budget");
        let live = SCRATCH_PLANES - 1 - self.free.len();
        self.high_water = self.high_water.max(live);
        Plane::Scratch(i)
    }

    /// Releases a scratch plane allocated with [`GateBuilder::alloc`].
    pub fn release(&mut self, plane: Plane) {
        match plane {
            Plane::Scratch(i) => self.free.push(i),
            _ => panic!("released a non-scratch plane"),
        }
    }

    /// Emits a raw micro-op (must belong to the family's supported kinds).
    pub fn emit(&mut self, op: MicroOp) {
        debug_assert!(
            self.family.supports(op.kind()),
            "{:?} not supported by {:?} family",
            op.kind(),
            self.family
        );
        self.ops.push(op);
    }

    /// Emits a 2-input LUT query (index bit 2 tied to constant zero).
    fn lut2(&mut self, a: Plane, b: Plane, table: u8, out: Plane) {
        self.emit(MicroOp::Lut { a, b, c: Plane::Const(false), out, table });
    }

    /// The word-serial family has no bit-plane gates; recipe synthesis
    /// bypasses the gate builder entirely (`recipe::build_word_recipe`).
    fn no_gates(&self) -> ! {
        unreachable!("word-serial recipes bypass gate synthesis")
    }

    /// `out = !a`.
    pub fn not(&mut self, a: Plane, out: Plane) {
        match self.family {
            LogicFamily::Nor => self.emit(MicroOp::Nor { a, b: a, out }),
            LogicFamily::Maj | LogicFamily::Bitline => self.emit(MicroOp::Not { a, out }),
            LogicFamily::Lut => self.lut2(a, Plane::Const(false), 0x01, out),
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// `out = a & b`.
    pub fn and(&mut self, a: Plane, b: Plane, out: Plane) {
        match self.family {
            LogicFamily::Nor => {
                let na = self.alloc();
                let nb = self.alloc();
                self.not(a, na);
                self.not(b, nb);
                self.emit(MicroOp::Nor { a: na, b: nb, out });
                self.release(nb);
                self.release(na);
            }
            LogicFamily::Maj => self.emit(MicroOp::Tra { a, b, c: Plane::Const(false), out }),
            LogicFamily::Bitline => self.emit(MicroOp::And { a, b, out }),
            LogicFamily::Lut => self.lut2(a, b, 0x08, out),
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// `out = a | b`.
    pub fn or(&mut self, a: Plane, b: Plane, out: Plane) {
        match self.family {
            LogicFamily::Nor => {
                let t = self.alloc();
                self.emit(MicroOp::Nor { a, b, out: t });
                self.not(t, out);
                self.release(t);
            }
            LogicFamily::Maj => self.emit(MicroOp::Tra { a, b, c: Plane::Const(true), out }),
            LogicFamily::Bitline => self.emit(MicroOp::Or { a, b, out }),
            LogicFamily::Lut => self.lut2(a, b, 0x0e, out),
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// `out = !(a | b)`.
    pub fn nor(&mut self, a: Plane, b: Plane, out: Plane) {
        match self.family {
            LogicFamily::Nor => self.emit(MicroOp::Nor { a, b, out }),
            LogicFamily::Maj | LogicFamily::Bitline => {
                let t = self.alloc();
                self.or(a, b, t);
                self.not(t, out);
                self.release(t);
            }
            LogicFamily::Lut => self.lut2(a, b, 0x01, out),
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// `out = !(a & b)`.
    pub fn nand(&mut self, a: Plane, b: Plane, out: Plane) {
        if self.family == LogicFamily::Lut {
            self.lut2(a, b, 0x07, out);
            return;
        }
        let t = self.alloc();
        self.and(a, b, t);
        self.not(t, out);
        self.release(t);
    }

    /// `out = a ^ b`.
    pub fn xor(&mut self, a: Plane, b: Plane, out: Plane) {
        match self.family {
            LogicFamily::Nor => {
                // out = NOR(NOR(a,b), AND(a,b)) — 5 NORs total.
                let nab = self.alloc();
                let aab = self.alloc();
                self.emit(MicroOp::Nor { a, b, out: nab });
                self.and(a, b, aab);
                self.emit(MicroOp::Nor { a: nab, b: aab, out });
                self.release(aab);
                self.release(nab);
            }
            LogicFamily::Maj => {
                // (a & !b) | (!a & b): 2 NOTs + 3 TRAs.
                let na = self.alloc();
                let nb = self.alloc();
                let t1 = self.alloc();
                let t2 = self.alloc();
                self.not(a, na);
                self.not(b, nb);
                self.and(a, nb, t1);
                self.and(na, b, t2);
                self.or(t1, t2, out);
                self.release(t2);
                self.release(t1);
                self.release(nb);
                self.release(na);
            }
            LogicFamily::Bitline => self.emit(MicroOp::Xor { a, b, out }),
            LogicFamily::Lut => self.lut2(a, b, 0x06, out),
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// `out = !(a ^ b)`.
    pub fn xnor(&mut self, a: Plane, b: Plane, out: Plane) {
        if self.family == LogicFamily::Lut {
            self.lut2(a, b, 0x09, out);
            return;
        }
        let t = self.alloc();
        self.xor(a, b, t);
        self.not(t, out);
        self.release(t);
    }

    /// `out = maj(a, b, c)`.
    pub fn maj(&mut self, a: Plane, b: Plane, c: Plane, out: Plane) {
        match self.family {
            LogicFamily::Maj => self.emit(MicroOp::Tra { a, b, c, out }),
            LogicFamily::Lut => self.emit(MicroOp::Lut { a, b, c, out, table: 0xe8 }),
            LogicFamily::WordSerial => self.no_gates(),
            LogicFamily::Nor | LogicFamily::Bitline => {
                // maj = ab | bc | ca.
                let ab = self.alloc();
                let bc = self.alloc();
                let ca = self.alloc();
                self.and(a, b, ab);
                self.and(b, c, bc);
                self.and(c, a, ca);
                let t = self.alloc();
                self.or(ab, bc, t);
                self.or(t, ca, out);
                self.release(t);
                self.release(ca);
                self.release(bc);
                self.release(ab);
            }
        }
    }

    /// `out = (sel & x) | (!sel & y)` — a per-lane 2:1 multiplexer.
    pub fn mux(&mut self, sel: Plane, x: Plane, y: Plane, out: Plane) {
        if self.family == LogicFamily::Lut {
            // table[sel | x<<1 | y<<2] = sel ? x : y → bits {3, 4, 6, 7}.
            self.emit(MicroOp::Lut { a: sel, b: x, c: y, out, table: 0xd8 });
            return;
        }
        let nsel = self.alloc();
        let tx = self.alloc();
        let ty = self.alloc();
        self.not(sel, nsel);
        self.and(sel, x, tx);
        self.and(nsel, y, ty);
        self.or(tx, ty, out);
        self.release(ty);
        self.release(tx);
        self.release(nsel);
    }

    /// Copies `a` into `out` (buffered row copy).
    pub fn copy(&mut self, a: Plane, out: Plane) {
        self.emit(MicroOp::Copy { a, out });
    }

    /// Presets `out` to a constant.
    pub fn set(&mut self, out: Plane, value: bool) {
        self.emit(MicroOp::Set { out, value });
    }

    /// Full adder: `sum_out = a ^ b ^ carry`, `carry = maj(a, b, carry)`.
    ///
    /// The carry plane is read and then overwritten with the carry-out,
    /// matching the ripple-carry usage pattern of bit-serial arithmetic.
    /// `sum_out` may alias `a` or `b` (sum is staged through scratch), but
    /// not `carry`.
    pub fn full_add(&mut self, a: Plane, b: Plane, carry: Plane, sum_out: Plane) {
        debug_assert!(sum_out != carry, "sum must not alias the carry plane");
        match self.family {
            LogicFamily::Nor => {
                // Classic 9-NOR full adder.
                let n1 = self.alloc();
                let n2 = self.alloc();
                let n3 = self.alloc();
                let n4 = self.alloc();
                let n5 = self.alloc();
                let n6 = self.alloc();
                let n7 = self.alloc();
                let s = self.alloc();
                self.emit(MicroOp::Nor { a, b, out: n1 });
                self.emit(MicroOp::Nor { a, b: n1, out: n2 });
                self.emit(MicroOp::Nor { a: b, b: n1, out: n3 });
                self.emit(MicroOp::Nor { a: n2, b: n3, out: n4 }); // xnor(a,b)
                self.emit(MicroOp::Nor { a: n4, b: carry, out: n5 });
                self.emit(MicroOp::Nor { a: n4, b: n5, out: n6 });
                self.emit(MicroOp::Nor { a: carry, b: n5, out: n7 });
                self.emit(MicroOp::Nor { a: n6, b: n7, out: s });
                self.emit(MicroOp::Nor { a: n1, b: n5, out: carry }); // carry-out
                self.copy(s, sum_out);
                self.release(s);
                self.release(n7);
                self.release(n6);
                self.release(n5);
                self.release(n4);
                self.release(n3);
                self.release(n2);
                self.release(n1);
            }
            LogicFamily::Maj => {
                // SIMDRAM-style majority-only adder:
                //   cout = MAJ(a, b, cin)
                //   sum  = MAJ(MAJ(a, b, !cout), cin, !cout)
                // 3 TRAs + 1 NOT + 1 copy-back.
                let cnew = self.alloc();
                let ncnew = self.alloc();
                let t = self.alloc();
                self.emit(MicroOp::Tra { a, b, c: carry, out: cnew });
                self.not(cnew, ncnew);
                self.emit(MicroOp::Tra { a, b, c: ncnew, out: t });
                self.emit(MicroOp::Tra { a: t, b: carry, c: ncnew, out: sum_out });
                self.copy(cnew, carry);
                self.release(t);
                self.release(ncnew);
                self.release(cnew);
            }
            LogicFamily::Bitline => {
                self.emit(MicroOp::FullAdd { a, b, carry, sum: sum_out });
            }
            LogicFamily::Lut => {
                // Two LUT queries: parity (sum) staged through scratch so
                // `sum_out` may alias an addend, then majority (carry-out)
                // written in place over the carry-in.
                let t = self.alloc();
                self.emit(MicroOp::Lut { a, b, c: carry, out: t, table: 0x96 });
                self.emit(MicroOp::Lut { a, b, c: carry, out: carry, table: 0xe8 });
                self.copy(t, sum_out);
                self.release(t);
            }
            LogicFamily::WordSerial => self.no_gates(),
        }
    }

    /// Half adder: `sum_out = a ^ carry`, `carry = a & carry` (used by
    /// increments and carry propagation).
    pub fn half_add(&mut self, a: Plane, carry: Plane, sum_out: Plane) {
        debug_assert!(sum_out != carry, "sum must not alias the carry plane");
        let s = self.alloc();
        let c = self.alloc();
        self.xor(a, carry, s);
        self.and(a, carry, c);
        self.copy(c, carry);
        self.copy(s, sum_out);
        self.release(c);
        self.release(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::BitPlaneVrf;

    const FAMILIES: [LogicFamily; 4] =
        [LogicFamily::Nor, LogicFamily::Maj, LogicFamily::Bitline, LogicFamily::Lut];

    #[test]
    fn dominant_mechanism_carries_full_weight() {
        let weight = |family: LogicFamily, kind| {
            family.table().kinds.iter().find(|&&(k, _)| k == kind).map(|&(_, w)| w)
        };
        assert_eq!(weight(LogicFamily::Nor, MicroOpKind::Nor), Some(1.0));
        assert_eq!(weight(LogicFamily::Maj, MicroOpKind::Tra), Some(1.0));
        assert_eq!(weight(LogicFamily::Bitline, MicroOpKind::Xor), Some(1.0));
        assert_eq!(weight(LogicFamily::Bitline, MicroOpKind::Not), Some(0.0));
        // Kinds a family never issues are not in its table.
        assert_eq!(weight(LogicFamily::Nor, MicroOpKind::Tra), None);
        assert_eq!(weight(LogicFamily::Maj, MicroOpKind::Nor), None);
        // At 64 lanes the word-serial weights are the DPU's whole-op
        // weights exactly.
        for (kind, whole_op) in [
            (MicroOpKind::WordAlu, 64.0),
            (MicroOpKind::WordMul, 358.0),
            (MicroOpKind::WordDiv, 597.0),
        ] {
            assert_eq!(weight(LogicFamily::WordSerial, kind).unwrap() * 64.0, whole_op);
        }
        for family in LogicFamily::ALL {
            assert_eq!(family.word_serial(), family == LogicFamily::WordSerial);
        }
    }

    /// Executes the builder's ops on a fresh VRF whose scratch planes 20/21/22
    /// hold all four (or eight) input combinations, then checks `out`.
    fn check_gate2(
        family: LogicFamily,
        build: impl Fn(&mut GateBuilder, Plane, Plane, Plane),
        truth: impl Fn(bool, bool) -> bool,
    ) {
        let a = Plane::Scratch(20);
        let b = Plane::Scratch(21);
        let out = Plane::Scratch(22);
        let mut gb = GateBuilder::new(family);
        build(&mut gb, a, b, out);
        // Inputs must survive gate execution (non-destructive synthesis).
        let mut vrf = BitPlaneVrf::new(64, 2);
        vrf.set_plane_words(a, &[0b1010]);
        vrf.set_plane_words(b, &[0b1100]);
        for op in gb.finish() {
            op.apply(&mut vrf);
        }
        for lane in 0..4 {
            let ia = lane % 2 == 1;
            let ib = lane >= 2;
            assert_eq!(
                vrf.lane_bit(out, lane),
                truth(ia, ib),
                "{family:?} lane {lane} (a={ia}, b={ib})"
            );
        }
        assert_eq!(vrf.plane_words(a)[0] & 0xf, 0b1010, "{family:?} clobbered input a");
        assert_eq!(vrf.plane_words(b)[0] & 0xf, 0b1100, "{family:?} clobbered input b");
    }

    #[test]
    fn gate_truth_tables_all_families() {
        for family in FAMILIES {
            check_gate2(family, |g, a, b, o| g.and(a, b, o), |x, y| x & y);
            check_gate2(family, |g, a, b, o| g.or(a, b, o), |x, y| x | y);
            check_gate2(family, |g, a, b, o| g.xor(a, b, o), |x, y| x ^ y);
            check_gate2(family, |g, a, b, o| g.nor(a, b, o), |x, y| !(x | y));
            check_gate2(family, |g, a, b, o| g.nand(a, b, o), |x, y| !(x & y));
            check_gate2(family, |g, a, b, o| g.xnor(a, b, o), |x, y| !(x ^ y));
            check_gate2(family, |g, a, _b, o| g.not(a, o), |x, _| !x);
        }
    }

    #[test]
    fn full_adder_all_families_all_inputs() {
        for family in FAMILIES {
            let a = Plane::Scratch(20);
            let b = Plane::Scratch(21);
            let c = Plane::Scratch(22);
            let sum = Plane::Scratch(19);
            let mut gb = GateBuilder::new(family);
            gb.full_add(a, b, c, sum);
            let ops = gb.finish();
            // 8 lanes encode the 8 input combinations.
            let mut vrf = BitPlaneVrf::new(64, 2);
            vrf.set_plane_words(a, &[0b1010_1010]);
            vrf.set_plane_words(b, &[0b1100_1100]);
            vrf.set_plane_words(c, &[0b1111_0000]);
            for op in &ops {
                op.apply(&mut vrf);
            }
            for lane in 0..8 {
                let ia = lane % 2;
                let ib = (lane / 2) % 2;
                let ic = lane / 4;
                let total = ia + ib + ic;
                assert_eq!(vrf.lane_bit(sum, lane), total % 2 == 1, "{family:?} sum lane {lane}");
                assert_eq!(vrf.lane_bit(c, lane), total >= 2, "{family:?} carry lane {lane}");
            }
        }
    }

    #[test]
    fn maj_and_mux_all_families() {
        for family in FAMILIES {
            // maj over 8 combinations.
            let (a, b, c, out) =
                (Plane::Scratch(20), Plane::Scratch(21), Plane::Scratch(22), Plane::Scratch(19));
            let mut gb = GateBuilder::new(family);
            gb.maj(a, b, c, out);
            let mut vrf = BitPlaneVrf::new(64, 2);
            vrf.set_plane_words(a, &[0b1010_1010]);
            vrf.set_plane_words(b, &[0b1100_1100]);
            vrf.set_plane_words(c, &[0b1111_0000]);
            for op in gb.finish() {
                op.apply(&mut vrf);
            }
            for lane in 0..8 {
                let bits = (lane % 2) + ((lane / 2) % 2) + (lane / 4);
                assert_eq!(vrf.lane_bit(out, lane), bits >= 2, "{family:?} maj lane {lane}");
            }

            // mux over 8 combinations (sel, x, y).
            let mut gb = GateBuilder::new(family);
            gb.mux(a, b, c, out);
            let mut vrf = BitPlaneVrf::new(64, 2);
            vrf.set_plane_words(a, &[0b1010_1010]); // sel
            vrf.set_plane_words(b, &[0b1100_1100]); // x
            vrf.set_plane_words(c, &[0b1111_0000]); // y
            for op in gb.finish() {
                op.apply(&mut vrf);
            }
            for lane in 0..8 {
                let sel = lane % 2 == 1;
                let x = (lane / 2) % 2 == 1;
                let y = lane / 4 == 1;
                assert_eq!(
                    vrf.lane_bit(out, lane),
                    if sel { x } else { y },
                    "{family:?} mux {lane}"
                );
            }
        }
    }

    #[test]
    fn emitted_ops_stay_within_family() {
        for family in FAMILIES {
            let mut gb = GateBuilder::new(family);
            let a = Plane::Scratch(20);
            let b = Plane::Scratch(21);
            let o = Plane::Scratch(22);
            gb.xor(a, b, o);
            gb.full_add(a, b, Plane::Scratch(19), o);
            gb.maj(a, b, Plane::Scratch(19), o);
            for op in gb.finish() {
                assert!(
                    family.supports(op.kind()),
                    "{family:?} emitted unsupported {:?}",
                    op.kind()
                );
            }
        }
    }

    #[test]
    fn scratch_allocation_balances() {
        let mut gb = GateBuilder::new(LogicFamily::Nor);
        let before = gb.free.len();
        let a = Plane::Scratch(20);
        let b = Plane::Scratch(21);
        let o = Plane::Scratch(22);
        gb.xor(a, b, o);
        gb.full_add(a, b, Plane::Scratch(19), o);
        assert_eq!(gb.free.len(), before, "scratch planes leaked");
        assert!(gb.scratch_high_water() > 0);
    }

    #[test]
    fn nor_family_costs_match_textbook_counts() {
        let a = Plane::Scratch(20);
        let b = Plane::Scratch(21);
        let o = Plane::Scratch(22);
        let mut gb = GateBuilder::new(LogicFamily::Nor);
        gb.xor(a, b, o);
        assert_eq!(gb.len(), 5, "XOR should be 5 NORs");
        let mut gb = GateBuilder::new(LogicFamily::Nor);
        gb.full_add(a, b, Plane::Scratch(19), o);
        assert_eq!(gb.len(), 10, "full adder should be 9 NORs + 1 copy");
    }

    #[test]
    fn lut_family_costs_one_query_per_gate() {
        let a = Plane::Scratch(20);
        let b = Plane::Scratch(21);
        let o = Plane::Scratch(22);
        for build in [
            (|g: &mut GateBuilder, a, b, o| g.and(a, b, o)) as fn(&mut GateBuilder, _, _, _),
            |g, a, b, o| g.or(a, b, o),
            |g, a, b, o| g.xor(a, b, o),
            |g, a, b, o| g.nand(a, b, o),
            |g, a, b, o| g.xnor(a, b, o),
            |g, a, b, o| g.mux(a, b, Plane::Scratch(19), o),
        ] {
            let mut gb = GateBuilder::new(LogicFamily::Lut);
            build(&mut gb, a, b, o);
            assert_eq!(gb.len(), 1, "every LUT-family gate is a single row query");
        }
        let mut gb = GateBuilder::new(LogicFamily::Lut);
        gb.full_add(a, b, Plane::Scratch(19), o);
        assert_eq!(gb.len(), 3, "LUT full adder: parity + majority + copy-back");
    }
}
