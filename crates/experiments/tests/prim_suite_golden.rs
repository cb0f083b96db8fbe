//! Golden snapshot of the `prim_suite` per-substrate table. The table is
//! a pure function of the simulator (every run lane-verifies inside the
//! harness); re-bless a deliberate change with
//! `MPU_BLESS=1 cargo test -p experiments prim_suite`.

use experiments::{prim_suite, render_prim_suite};
use pum_backend::DatapathKind;
use std::path::PathBuf;

const N: u64 = 1 << 12;
const SEED: u64 = 42;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("prim_suite.txt")
}

#[test]
fn prim_suite_table_matches_golden() {
    let rows = prim_suite(&DatapathKind::ALL, N, SEED).expect("prim suite sweep");
    assert_eq!(rows.len(), 7 * DatapathKind::ALL.len(), "one row per PrIM kernel per substrate");

    let actual = render_prim_suite(&rows, N, SEED);
    let path = golden_path();
    if std::env::var("MPU_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden prim_suite table");
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
        "prim_suite table drifted from {}; if intentional, re-bless with MPU_BLESS=1",
        path.display()
    );
}
