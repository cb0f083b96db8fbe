//! Byte-level pin on the recipe optimizer's output.
//!
//! Every recipe-bearing instruction (16 binary, 7 unary, 3 compare, FUZZY,
//! CAS and INIT), with distinct operands and with every operand aliasing
//! the ISA permits, is synthesized and optimized on all five substrates.
//! One FNV-1a digest per substrate covers the optimized micro-op sequence,
//! `saved_uops` and the per-rule `OptStats` of every instruction, in
//! corpus order. Besides the default configuration, the optimizer switched
//! off, each rule alone and each rule withheld are pinned too: with
//! copy propagation or chain collapsing off, a value keeps several holder
//! planes, and which one an operand is redirected to depends on their
//! order. The optimizer's data structures may change freely; its
//! decisions may not: any difference in a rewrite, a removal, an operand
//! choice or an attribution counter changes the digest.
//!
//! There is no bless switch. A deliberate change to the optimizer's output
//! must update the constants below by hand and explain the diff.

mod opt_corpus;

use mpu_isa::{BinaryOp, CompareOp, Instruction, UnaryOp};
use opt_corpus::corpus;
use pum_backend::{DatapathKind, DatapathModel, OptConfig, OptRule};

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

/// `(substrate, digest, total optimized micro-ops over the corpus)` for
/// one optimizer configuration.
type Pins = [(DatapathKind, u64, usize); 5];

/// The default configuration (every rule on).
const PINNED: Pins = [
    (DatapathKind::Racer, 0x5d28_9b9c_7b10_ede4, 187_339),
    (DatapathKind::Mimdram, 0x729c_fc18_3019_a078, 119_164),
    (DatapathKind::DualityCache, 0x6801_f34d_547d_a8b1, 63_013),
    (DatapathKind::Pluto, 0x433b_4e06_f647_65db, 63_179),
    (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
];

/// [`OptConfig::disabled`]: the synthesized templates verbatim.
const PINNED_DISABLED: Pins = [
    (DatapathKind::Racer, 0xfec6_94e5_b2ce_c55c, 255_788),
    (DatapathKind::Mimdram, 0x946d_348d_29e8_8768, 142_572),
    (DatapathKind::DualityCache, 0x3d66_9ccf_4013_9ae8, 78_316),
    (DatapathKind::Pluto, 0xecaf_8ea3_3ade_b3c8, 79_084),
    (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
];

/// `OptConfig::with_rules(rule.bit())`, in [`OptRule::ALL`] order.
const PINNED_ALONE: [Pins; 5] = [
    // DeadPlane
    [
        (DatapathKind::Racer, 0x701e_4499_eebb_5368, 255_778),
        (DatapathKind::Mimdram, 0xbffa_fa59_2034_4c90, 139_500),
        (DatapathKind::DualityCache, 0x3d66_9ccf_4013_9ae8, 78_316),
        (DatapathKind::Pluto, 0xef25_077e_b3ba_0ec9, 79_074),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // CopyProp
    [
        (DatapathKind::Racer, 0x5a7b_e169_5ad2_04ed, 240_520),
        (DatapathKind::Mimdram, 0xb49e_5f71_2db1_78d9, 139_072),
        (DatapathKind::DualityCache, 0xf137_5335_39aa_685a, 74_888),
        (DatapathKind::Pluto, 0xfa34_cbcf_2985_cf3b, 68_168),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // ConstFold
    [
        (DatapathKind::Racer, 0x4b95_4546_2062_8b6b, 246_630),
        (DatapathKind::Mimdram, 0x4f8d_e7b4_fbaf_60f5, 136_617),
        (DatapathKind::DualityCache, 0xf8a4_4aa2_3a07_a137, 76_555),
        (DatapathKind::Pluto, 0xd312_da36_dac6_a0d8, 76_399),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // ChainCollapse
    [
        (DatapathKind::Racer, 0xc908_19bf_e159_69d5, 229_045),
        (DatapathKind::Mimdram, 0xbd74_b4d0_c900_3981, 138_559),
        (DatapathKind::DualityCache, 0xfad1_b269_1b0e_0eb8, 75_043),
        (DatapathKind::Pluto, 0xecaf_8ea3_3ade_b3c8, 79_084),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // MaskStrength
    [
        (DatapathKind::Racer, 0xda2f_7b79_2d92_0899, 240_704),
        (DatapathKind::Mimdram, 0x5dce_c95f_b652_1d2c, 129_913),
        (DatapathKind::DualityCache, 0x7fc1_7fda_2c3c_c9f0, 69_402),
        (DatapathKind::Pluto, 0x9e81_009d_0bab_a118, 75_938),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
];

/// `OptConfig::with_rules(OptRule::ALL_MASK & !rule.bit())`, in
/// [`OptRule::ALL`] order.
const PINNED_WITHHELD: [Pins; 5] = [
    // DeadPlane
    [
        (DatapathKind::Racer, 0x94c5_0f8a_a3b0_77a8, 192_881),
        (DatapathKind::Mimdram, 0x837d_469c_4788_6ac7, 124_103),
        (DatapathKind::DualityCache, 0xa634_3703_5978_a256, 65_029),
        (DatapathKind::Pluto, 0x8537_4b2d_9e1f_d2fc, 65_338),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // CopyProp
    [
        (DatapathKind::Racer, 0xe296_f2cf_6ed0_1efd, 203_241),
        (DatapathKind::Mimdram, 0x08da_8bdf_25b3_8d0c, 120_536),
        (DatapathKind::DualityCache, 0x1dd1_c5a0_2063_20da, 64_071),
        (DatapathKind::Pluto, 0x5456_408d_9f77_eb63, 74_483),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // ConstFold
    [
        (DatapathKind::Racer, 0xc9e4_7a92_e40b_2df8, 188_322),
        (DatapathKind::Mimdram, 0x616c_bb0a_8b45_dc8e, 119_580),
        (DatapathKind::DualityCache, 0x8fc8_f64f_dc9b_f2d4, 63_558),
        (DatapathKind::Pluto, 0x5285_8b0b_344d_fa8c, 63_558),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // ChainCollapse
    [
        (DatapathKind::Racer, 0x5ff9_b6bd_8afb_0625, 207_776),
        (DatapathKind::Mimdram, 0xedb6_a72e_5d01_35ad, 119_122),
        (DatapathKind::DualityCache, 0x6bc6_7479_b64f_e662, 63_027),
        (DatapathKind::Pluto, 0x433b_4e06_f647_65db, 63_179),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
    // MaskStrength
    [
        (DatapathKind::Racer, 0xce2f_3bb2_bb8b_165e, 196_441),
        (DatapathKind::Mimdram, 0xb463_24b9_6f27_5523, 126_620),
        (DatapathKind::DualityCache, 0xe2b7_ca56_9d0e_a6c8, 70_487),
        (DatapathKind::Pluto, 0x0991_9f63_db95_f5f2, 64_133),
        (DatapathKind::Dpu, 0x1042_0987_0cbf_4380, 93),
    ],
];

/// Describes every substrate whose digest under `config` differs from
/// its pin.
fn drift(config: OptConfig, pins: &Pins) -> Vec<String> {
    let mut drift = Vec::new();
    for &(kind, want, want_ops) in pins {
        let (got, ops) = digest(&DatapathModel::for_kind(kind).with_opt_config(config));
        if (got, ops) != (want, want_ops) {
            drift.push(format!(
                "{config:?}: ({kind:?}, {got:#018x}, {ops}) pinned ({want:#018x}, {want_ops})"
            ));
        }
    }
    drift
}

fn assert_no_drift(drift: &[String]) {
    assert!(drift.is_empty(), "optimizer output drifted:\n{}", drift.join("\n"));
}

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
    assert_no_drift(&drift(OptConfig::default(), &PINNED));
}

#[test]
fn disabled_optimizer_matches_the_pinned_digests() {
    assert_no_drift(&drift(OptConfig::disabled(), &PINNED_DISABLED));
}

#[test]
fn each_rule_alone_matches_the_pinned_digests() {
    let drift: Vec<String> = OptRule::ALL
        .iter()
        .zip(&PINNED_ALONE)
        .flat_map(|(rule, pins)| drift(OptConfig::with_rules(rule.bit()), pins))
        .collect();
    assert_no_drift(&drift);
}

#[test]
fn each_rule_withheld_matches_the_pinned_digests() {
    let drift: Vec<String> = OptRule::ALL
        .iter()
        .zip(&PINNED_WITHHELD)
        .flat_map(|(rule, pins)| {
            drift(OptConfig::with_rules(OptRule::ALL_MASK & !rule.bit()), pins)
        })
        .collect();
    assert_no_drift(&drift);
}
