//! Golden snapshot of the `recipe_opt` per-rule attribution table, plus
//! the headline acceptance check: the optimizer's aggregate dynamic
//! micro-op reduction must stay at or above 10% on at least one substrate.
//! The table is a pure function of the simulator; re-bless a deliberate
//! change with `MPU_BLESS=1 cargo test -p experiments`.

use experiments::{opt_attribution, render_opt_attribution};
use pum_backend::DatapathKind;
use std::path::PathBuf;

const N: u64 = 1 << 12;
const SEED: u64 = 42;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("recipe_opt.txt")
}

#[test]
fn attribution_table_matches_golden_and_meets_floor() {
    // opt_attribution itself enforces lane verification and the uop
    // conservation law (off == on + saved) for every row.
    let rows = opt_attribution(&DatapathKind::ALL, N, SEED).expect("attribution sweep");
    assert_eq!(rows.len(), 28 * DatapathKind::ALL.len(), "one row per kernel per substrate");

    // Headline floor: >= 10% aggregate dynamic uop reduction somewhere.
    let best = DatapathKind::ALL
        .iter()
        .map(|&b| {
            let (off, on): (u64, u64) = rows
                .iter()
                .filter(|r| r.backend == b)
                .fold((0, 0), |(off, on), r| (off + r.uops_off, on + r.uops_on));
            (b, 100.0 * (off - on) as f64 / off as f64)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one substrate");
    assert!(
        best.1 >= 10.0,
        "aggregate uop reduction fell below the 10% floor (best: {:.2}% on {:?})",
        best.1,
        best.0
    );

    // Every rule family must pay for itself somewhere in the sweep.
    for rule in pum_backend::OptRule::ALL {
        assert!(
            rows.iter().any(|r| r.opt.rule(rule).fires > 0),
            "rule {} never fired across the whole sweep",
            rule.name()
        );
    }

    let actual = render_opt_attribution(&rows, N, SEED);
    let path = golden_path();
    if std::env::var("MPU_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden attribution table");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden table {} ({e}); bless with MPU_BLESS=1 cargo test -p experiments",
            path.display()
        )
    });
    assert_eq!(
        actual,
        want,
        "recipe_opt attribution drifted from {}; if intentional, re-bless with MPU_BLESS=1",
        path.display()
    );
}
