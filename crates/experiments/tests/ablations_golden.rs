//! Golden snapshot of the `ablations` table. Every row is a simulated
//! result (cycles, chip time, template hit rate), not a host timing, so
//! the table is a pure function of the simulator; re-bless a deliberate
//! change with `MPU_BLESS=1 cargo test -p experiments ablations`.

use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join("ablations.txt")
}

#[test]
fn ablations_table_matches_golden() {
    let actual = experiments::ablations().expect("ablation runs");
    let path = golden_path();
    if std::env::var("MPU_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).expect("write golden ablations table");
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
        "ablations table drifted from {}; if intentional, re-bless with MPU_BLESS=1",
        path.display()
    );
}
