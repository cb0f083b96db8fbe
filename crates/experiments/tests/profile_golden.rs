//! Golden-profile snapshots for `mpu_profile`: one pinned kernel per
//! backend. The rendered attribution profile is a pure function of the
//! simulator, so any diff is a real behavior change — inspect it, and if
//! intentional re-bless with `MPU_BLESS=1 cargo test -p experiments`.

use experiments::profile_kernel;
use mastodon::{EventLog, Profile, SimConfig, Stats};
use microjson::Value;
use pum_backend::DatapathKind;
use std::path::PathBuf;
use workloads::{all_kernels, run_kernel_traced};

const PINNED: [(&str, DatapathKind, &str); 5] = [
    ("vecadd", DatapathKind::Racer, "profile_vecadd_racer.txt"),
    ("saxpy", DatapathKind::Mimdram, "profile_saxpy_mimdram.txt"),
    ("xorcipher", DatapathKind::DualityCache, "profile_xorcipher_dualitycache.txt"),
    ("vecadd", DatapathKind::Pluto, "profile_vecadd_pluto.txt"),
    ("saxpy", DatapathKind::Dpu, "profile_saxpy_dpu.txt"),
];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(file)
}

#[test]
fn pinned_profiles_match_golden_snapshots() {
    let bless = std::env::var("MPU_BLESS").as_deref() == Ok("1");
    for (kernel, backend, file) in PINNED {
        let report = profile_kernel(kernel, backend, false, 1 << 12, 42)
            .unwrap_or_else(|e| panic!("{kernel} on {backend:?}: {e}"));
        assert!(report.run.verified);
        let path = golden_path(file);
        if bless {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
            std::fs::write(&path, &report.profile_text).expect("write golden profile");
            eprintln!("blessed {}", path.display());
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden profile {} ({e}); bless with MPU_BLESS=1 cargo test -p experiments",
                path.display()
            )
        });
        assert_eq!(
            report.profile_text,
            want,
            "{kernel} on {backend:?} drifted from {}; if intentional, re-bless with MPU_BLESS=1",
            path.display()
        );
    }
}

#[test]
fn pinned_chrome_exports_are_loadable() {
    for (kernel, backend, _) in PINNED {
        let report = profile_kernel(kernel, backend, false, 1 << 12, 42)
            .unwrap_or_else(|e| panic!("{kernel} on {backend:?}: {e}"));
        let doc = Value::parse(&report.chrome_json)
            .unwrap_or_else(|e| panic!("{kernel} export is not valid JSON: {e}"));
        let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
        assert!(!events.is_empty(), "{kernel} trace must not be empty");
    }
}

#[test]
fn pinned_profile_trees_partition_their_totals() {
    // Every charge is an integer attached to exactly one node, so each
    // MPU's root sums to its totals on every field but elapsed cycles
    // (which message delivery advances with a max).
    let kernels = all_kernels();
    for (kernel, backend, _) in PINNED {
        let k = kernels.iter().find(|k| k.name() == kernel).expect("pinned kernel");
        let log = EventLog::new();
        run_kernel_traced(k.as_ref(), &SimConfig::mpu(backend), 1 << 12, 42, &log)
            .unwrap_or_else(|e| panic!("{kernel} on {backend:?}: {e}"));
        for m in &Profile::build(&log.take()).mpus {
            let inclusive = Stats { cycles: m.totals.cycles, ..m.root.inclusive() };
            assert_eq!(inclusive, m.totals, "{kernel} on {backend:?}: mpu{} tree", m.mpu);
        }
    }
}
