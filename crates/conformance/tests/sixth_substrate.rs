//! Substrates the crate does not ship, each described once with
//! `DatapathBuilder` (a geometry, a cost per micro-op kind of its logic
//! family, optionally a pipeline depth), run the same differential matrix
//! as the shipped five: generated cases against the word-level reference
//! model, lane-exact and on the architectural counters, on both execution
//! tiers.

use conformance::{check_case_on, generate, reference_lanes, reproducer_text, shrink};
use pum_backend::{DatapathBuilder, DatapathModel, LogicFamily, MicroOpKind};

/// A 128-lane bit-pipelined NOR crossbar.
fn nor_128_pipelined() -> DatapathModel {
    DatapathBuilder::new("NOR-128", LogicFamily::Nor)
        .lanes_per_vrf(128)
        .uop(MicroOpKind::Nor, 3, 0.030)
        .uop(MicroOpKind::Copy, 3, 0.035)
        .uop(MicroOpKind::Set, 2, 0.015)
        .bit_pipelined(32)
        .build()
}

/// A 32-lane word-serial near-bank core.
fn word_serial_32() -> DatapathModel {
    DatapathBuilder::new("WordSerial-32", LogicFamily::WordSerial)
        .lanes_per_vrf(32)
        .uop(MicroOpKind::WordAlu, 10, 4.0)
        .uop(MicroOpKind::WordMul, 80, 25.0)
        .uop(MicroOpKind::WordDiv, 140, 50.0)
        .build()
}

#[test]
fn builder_substrates_pass_the_differential_matrix() {
    let cases: u64 =
        std::env::var("CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40);
    for model in [nor_128_pipelined(), word_serial_32()] {
        let mut compared = 0;
        for seed in 1000..1000 + cases {
            let case = generate(seed);
            compared += u64::from(reference_lanes(&model, &case).is_some());
            let check = |case: &conformance::Case| check_case_on(&model, case, None);
            if let Some(mismatch) = check(&case) {
                let (small, m) = shrink(&case, check);
                panic!(
                    "seed {seed} on {}: {mismatch}\n{}",
                    model.name(),
                    reproducer_text(&small, &m)
                );
            }
        }
        assert!(
            compared * 2 > cases,
            "{}: only {compared} of {cases} cases compared",
            model.name()
        );
    }
}
