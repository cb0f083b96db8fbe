//! Pin on what `Pipeline::run_sharded` returns for five PrIM-shaped
//! pipelines (filter-count, zip-mul-sum, map, scan, filter-select) on
//! RACER and the DPU, on one MPU and sharded over four.
//!
//! Each run must match the host oracle, and its launch count, cycle count
//! and a digest of the whole `PipelineRun` (values, reduced value, every
//! `Stats` field including energy, launches) must equal the pinned
//! values. How the runner gets its recipes (a fresh synthesis per launch
//! or a shared pool) is host-side bookkeeping and must not move any of
//! them.

use dpapi::{MapOp, Pipeline, PipelineRun, Pred, ReduceOp, ScanOp, ZipOp};
use mastodon::SimConfig;
use pum_backend::DatapathKind;

/// Elements per input column: several launches on every shape, and a
/// ragged tail that is not a multiple of any segment length.
const N: usize = 5003;

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
            Pipeline::new().map(MapOp::And(15)).filter(Pred::Eq(7)).reduce(ReduceOp::Count),
        ),
        ("zip_mul_sum", true, Pipeline::new().zip(0, ZipOp::Mul).reduce(ReduceOp::Sum)),
        ("map", false, Pipeline::new().map(MapOp::Mul(3)).map(MapOp::Add(12_345))),
        ("scan", false, Pipeline::new().scan(ScanOp::Sum)),
        ("filter_select", false, Pipeline::new().filter(Pred::Lt(1 << 31))),
    ]
}

/// 64-bit FNV-1a over the run's `Debug` rendering (`f64` fields print
/// their shortest exact round-trip form, so equal digests mean equal
/// bits).
fn digest(run: &PipelineRun) -> u64 {
    format!("{run:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `(pipeline, substrate, mpus, launches, cycles, digest)`.
type Pin = (&'static str, DatapathKind, usize, u64, u64, u64);

const PINNED: [Pin; 20] = [
    ("filter_count", DatapathKind::Racer, 1, 10, 5920, 0xc7d23a91f2a7a4d4),
    ("filter_count", DatapathKind::Racer, 4, 3, 36309, 0x136e494c63af1883),
    ("filter_count", DatapathKind::Dpu, 1, 10, 50420, 0xd84a2a2a6cc2f0e0),
    ("filter_count", DatapathKind::Dpu, 4, 3, 120741, 0x141c94e0736d61ca),
    ("zip_mul_sum", DatapathKind::Racer, 1, 5, 154965, 0x3ade723bf0b25f41),
    ("zip_mul_sum", DatapathKind::Racer, 4, 2, 74210, 0x529a87a4a8c2edac),
    ("zip_mul_sum", DatapathKind::Dpu, 1, 5, 91450, 0x805833b996e03f31),
    ("zip_mul_sum", DatapathKind::Dpu, 4, 2, 72246, 0xea21ab0518b2661e),
    ("map", DatapathKind::Racer, 1, 3, 96348, 0x0902d657a3c14d66),
    ("map", DatapathKind::Racer, 4, 3, 32116, 0x86ba97af6de87707),
    ("map", DatapathKind::Dpu, 1, 3, 94518, 0xe6a7fe67b2f5feb8),
    ("map", DatapathKind::Dpu, 4, 3, 31506, 0xf1f663e0b98ddc40),
    ("scan", DatapathKind::Racer, 1, 4, 8638, 0x9ae878444513c996),
    ("scan", DatapathKind::Racer, 4, 4, 4319, 0x68319f16b67b6194),
    ("scan", DatapathKind::Dpu, 1, 4, 41672, 0xe7f24dd5ae72d7ba),
    ("scan", DatapathKind::Dpu, 4, 4, 20836, 0xdc12402faa38a10f),
    ("filter_select", DatapathKind::Racer, 1, 10, 4550, 0xcb757810e611599f),
    ("filter_select", DatapathKind::Racer, 4, 10, 1365, 0xd726ae88f6bd1f4a),
    ("filter_select", DatapathKind::Dpu, 1, 10, 33780, 0xa4cbee6fbbee444b),
    ("filter_select", DatapathKind::Dpu, 4, 10, 10134, 0x8393faef46c58b27),
];

#[test]
fn prim_shaped_runs_match_the_oracle_and_the_pins() {
    let primary = column(7);
    let zipped = column(11);
    let mut got = Vec::new();
    for (name, zips, pipeline) in shapes() {
        let cols: Vec<&[u64]> = if zips { vec![&zipped] } else { Vec::new() };
        let want = pipeline.oracle(&primary, &cols).expect("oracle");
        for kind in [DatapathKind::Racer, DatapathKind::Dpu] {
            for mpus in [1, 4] {
                let run = pipeline
                    .run_sharded(&SimConfig::mpu(kind), mpus, &primary, &cols)
                    .expect("pipeline runs");
                assert_eq!(run.values, want.values, "{name} on {kind:?} x{mpus}: values");
                assert_eq!(run.reduced, want.reduced, "{name} on {kind:?} x{mpus}: reduced");
                got.push((name, kind, mpus, run.launches, run.stats.cycles, digest(&run)));
            }
        }
    }
    let drift: Vec<String> = got
        .iter()
        .zip(&PINNED)
        .filter(|(g, p)| g != p)
        .map(|((name, kind, mpus, launches, cycles, d), _)| {
            format!(
                "(\"{name}\", DatapathKind::{kind:?}, {mpus}, {launches}, {cycles}, {d:#018x}),"
            )
        })
        .collect();
    assert!(drift.is_empty(), "pipeline runs drifted from the pins:\n{}", drift.join("\n"));
}

#[test]
fn sharded_reductions_cross_the_noc() {
    let primary = column(7);
    let zipped = column(11);
    let (_, _, pipeline) = &shapes()[1];
    let run = pipeline
        .run_sharded(&SimConfig::mpu(DatapathKind::Racer), 4, &primary, &[&zipped])
        .expect("pipeline runs");
    assert!(run.stats.messages_sent > 0, "four-way zip-mul-sum sends partials over the NoC");
}
