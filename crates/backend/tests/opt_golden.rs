//! Byte-level pin on the recipe optimizer's output.
//!
//! Every recipe-bearing instruction (16 binary, 7 unary, 3 compare, FUZZY,
//! CAS and INIT), with distinct operands and with every operand aliasing
//! the ISA permits, is synthesized and optimized on all five substrates.
//! One FNV-1a digest per substrate covers the optimized micro-op sequence,
//! `saved_uops` and the per-rule `OptStats` of every instruction, in
//! corpus order. The optimizer's data structures may change freely; its
//! decisions may not: any difference in a rewrite, a removal, an operand
//! choice or an attribution counter changes the digest.
//!
//! There is no bless switch. A deliberate change to the optimizer's output
//! must update the constants below by hand and explain the diff.

use mpu_isa::{BinaryOp, CompareOp, InitValue, Instruction, RegId, UnaryOp};
use pum_backend::{DatapathKind, DatapathModel, OptRule};

/// Multi-step binary ops: `rd` must not alias a source.
fn multi_step(op: BinaryOp) -> bool {
    matches!(op, BinaryOp::Mul | BinaryOp::Mac | BinaryOp::QDiv | BinaryOp::QRDiv | BinaryOp::RDiv)
}

fn corpus() -> Vec<Instruction> {
    let r = RegId;
    let mut v = Vec::new();
    for op in BinaryOp::ALL {
        v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(2) });
        // Sources may always alias each other.
        v.push(Instruction::Binary { op, rs: r(3), rt: r(3), rd: r(4) });
        if !multi_step(op) {
            v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(0) });
            v.push(Instruction::Binary { op, rs: r(0), rt: r(1), rd: r(1) });
            v.push(Instruction::Binary { op, rs: r(5), rt: r(5), rd: r(5) });
        }
    }
    for op in UnaryOp::ALL {
        v.push(Instruction::Unary { op, rs: r(0), rd: r(2) });
        v.push(Instruction::Unary { op, rs: r(4), rd: r(4) });
    }
    for op in CompareOp::ALL {
        v.push(Instruction::Compare { op, rs: r(0), rt: r(1) });
        v.push(Instruction::Compare { op, rs: r(5), rt: r(5) });
    }
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(1), rd: r(2) });
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(0), rd: r(1) });
    v.push(Instruction::Fuzzy { rs: r(0), rt: r(1), rd: r(0) });
    v.push(Instruction::Fuzzy { rs: r(3), rt: r(3), rd: r(3) });
    v.push(Instruction::Cas { rs: r(0), rt: r(1) });
    v.push(Instruction::Cas { rs: r(6), rt: r(6) });
    v.push(Instruction::Init { value: InitValue::Zero, rd: r(6) });
    v.push(Instruction::Init { value: InitValue::One, rd: r(7) });
    v
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn digest(model: &DatapathModel) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut ops = 0;
    for instr in corpus() {
        let (recipe, stats) = model.recipe_with_stats(&instr).expect("compute instruction");
        h.bytes(instr.mnemonic().as_bytes());
        h.u64(recipe.len() as u64);
        for op in recipe.ops() {
            h.bytes(format!("{op:?};").as_bytes());
        }
        ops += recipe.len();
        h.u64(u64::from(recipe.saved_uops()));
        for rule in OptRule::ALL {
            let rs = stats.rule(rule);
            h.u64(rs.fires);
            h.u64(rs.removed_uops);
        }
    }
    (h.0, ops)
}

/// `(substrate, digest, total optimized micro-ops over the corpus)`.
const PINNED: [(DatapathKind, u64, usize); 5] = [
    (DatapathKind::Racer, 0x5d28_9b9c_7b10_ede4, 187_339),
    (DatapathKind::Mimdram, 0x729c_fc18_3019_a078, 119_164),
    (DatapathKind::DualityCache, 0x6801_f34d_547d_a8b1, 63_013),
    (DatapathKind::Pluto, 0x433b_4e06_f647_65db, 63_179),
    (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
];

#[test]
fn corpus_covers_every_recipe_bearing_instruction() {
    let c = corpus();
    let count = |f: fn(&Instruction) -> bool| c.iter().filter(|i| f(i)).count();
    assert!(BinaryOp::ALL
        .iter()
        .all(|&op| c.iter().any(|i| matches!(i, Instruction::Binary { op: o, .. } if *o == op))));
    assert!(UnaryOp::ALL
        .iter()
        .all(|&op| c.iter().any(|i| matches!(i, Instruction::Unary { op: o, .. } if *o == op))));
    assert!(CompareOp::ALL
        .iter()
        .all(|&op| c.iter().any(|i| matches!(i, Instruction::Compare { op: o, .. } if *o == op))));
    assert!(count(|i| matches!(i, Instruction::Fuzzy { .. })) > 0);
    assert!(count(|i| matches!(i, Instruction::Cas { .. })) > 0);
    assert!(count(|i| matches!(i, Instruction::Init { .. })) > 0);
    assert_eq!((BinaryOp::ALL.len(), UnaryOp::ALL.len(), CompareOp::ALL.len()), (16, 7, 3));
}

#[test]
fn optimized_recipes_match_the_pinned_digests() {
    let mut drift = Vec::new();
    for (kind, want, want_ops) in PINNED {
        let (got, ops) = digest(&DatapathModel::for_kind(kind));
        if (got, ops) != (want, want_ops) {
            drift.push(format!("({kind:?}, {got:#018x}, {ops}) pinned ({want:#018x}, {want_ops})"));
        }
    }
    assert!(drift.is_empty(), "optimizer output drifted:\n{}", drift.join("\n"));
}
