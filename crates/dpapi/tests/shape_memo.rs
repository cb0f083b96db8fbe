//! A repeat launch runs no recipe synthesis. Every `run_sharded` call
//! resolves its templates through a fresh per-call pool, and every such
//! pool shares one dpapi-wide memo of compiled shapes. So a second round
//! of the same pipelines builds each template again by relocation, but
//! synthesizes, optimizes and compiles nothing: `shapes_synthesized`, the
//! sum of the call pools' `shape_misses`, stays put.
//!
//! The pipelines are the benchmark's five PrIM shapes (filter-count,
//! zip-mul-sum, map, scan, filter-select) on RACER and the DPU, on one MPU
//! and sharded over four. This file is a test binary of its own, so no
//! other test fills the process-wide memo first.

use dpapi::{shapes_synthesized, MapOp, Pipeline, PipelineRun, Pred, ReduceOp, ScanOp, ZipOp};
use mastodon::SimConfig;
use pum_backend::DatapathKind;

/// Elements per input column: several launches per shape on one MPU, and
/// a ragged tail.
const N: usize = 3001;

fn column(seed: u64) -> Vec<u64> {
    let mut x = seed;
    (0..N)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 32
        })
        .collect()
}

fn shapes() -> [(&'static str, bool, Pipeline); 5] {
    [
        (
            "filter_count",
            false,
            Pipeline::new().map(MapOp::And(15)).filter(Pred::Eq(9)).reduce(ReduceOp::Count),
        ),
        ("zip_mul_sum", true, Pipeline::new().zip(0, ZipOp::Mul).reduce(ReduceOp::Sum)),
        ("map", false, Pipeline::new().map(MapOp::Mul(3)).map(MapOp::Add(4_321))),
        ("scan", false, Pipeline::new().scan(ScanOp::Sum)),
        ("filter_select", false, Pipeline::new().filter(Pred::Lt(1 << 31))),
    ]
}

/// One round over every pipeline, substrate and MPU count, each run
/// checked against the oracle.
fn round(primary: &[u64], zipped: &[u64]) -> Vec<(String, PipelineRun)> {
    let mut out = Vec::new();
    for (name, zips, pipeline) in shapes() {
        let cols: Vec<&[u64]> = if zips { vec![zipped] } else { Vec::new() };
        let want = pipeline.oracle(primary, &cols).expect("oracle");
        for kind in [DatapathKind::Racer, DatapathKind::Dpu] {
            for mpus in [1, 4] {
                let unit = format!("{name} on {kind:?} x{mpus}");
                let run = pipeline
                    .run_sharded(&SimConfig::mpu(kind), mpus, primary, &cols)
                    .expect("pipeline runs");
                assert_eq!(run.values, want.values, "{unit}: values");
                assert_eq!(run.reduced, want.reduced, "{unit}: reduced");
                out.push((unit, run));
            }
        }
    }
    out
}

#[test]
fn a_second_round_of_launches_synthesizes_nothing() {
    let (primary, zipped) = (column(5), column(13));
    assert_eq!(shapes_synthesized(), 0, "no launch has run yet");
    let first = round(&primary, &zipped);
    let synthesized = shapes_synthesized();
    assert!(synthesized > 0, "the first round fills the memo");
    let second = round(&primary, &zipped);
    assert_eq!(shapes_synthesized(), synthesized, "the repeat round synthesizes nothing");
    for ((unit, run), (_, again)) in first.iter().zip(&second) {
        assert_eq!(again, run, "{unit}: the repeat launch returns the same run");
    }
}
