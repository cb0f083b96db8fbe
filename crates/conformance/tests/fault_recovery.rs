//! Property tests for the fault-injection and resilience layer: TMR
//! exactness against the fault-free reference model, DMR detect-or-match,
//! permanent-fault remapping at reduced capacity, and the byte-identity
//! of a disarmed fault layer — each across every shipped backend
//! (bit-serial NOR/MAJ/bitline, pLUTo LUT queries, word-serial DPU).

use conformance::{ref_geometry, run_sweep, PolicyKind, SweepConfig};
use mastodon::{run_single, Redundancy, SimConfig};
use mpu_isa::Program;
use pum_backend::{DatapathKind, DatapathModel};

fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kernel() -> Program {
    Program::parse_asm(
        "COMPUTE h0 v0\n\
         ADD r0 r1 r2\n\
         MUL r2 r1 r3\n\
         XOR r3 r0 r4\n\
         SUB r4 r1 r5\n\
         COMPUTE_DONE",
    )
    .expect("kernel parses")
}

fn lanes_for(kind: DatapathKind) -> usize {
    DatapathModel::for_kind(kind).geometry().lanes_per_vrf
}

fn inputs(seed: u64, lanes: usize) -> (Vec<u64>, Vec<u64>) {
    let a = (0..lanes as u64).map(|i| mix(seed, i)).collect();
    let b = (0..lanes as u64).map(|i| mix(seed ^ 0xABCD, i) | 1).collect();
    (a, b)
}

/// Fault-free oracle registers `r2..=r5` on `kind`'s geometry with the
/// first `lanes` lanes populated (the rest compute on zeros).
fn reference_regs(kind: DatapathKind, seed: u64, lanes: usize) -> Vec<Vec<u64>> {
    let (a, b) = inputs(seed, lanes);
    let mut reference = refmodel::RefMpu::new(ref_geometry(&DatapathModel::for_kind(kind)), 0);
    reference.write_register(0, 0, 0, &a);
    reference.write_register(0, 0, 1, &b);
    reference.run(&kernel()).expect("reference run");
    (2..=5).map(|reg| reference.read_register(0, 0, reg)).collect()
}

mod properties {
    use super::*;
    use mastodon::StuckLane;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Sparse transient faults under TMR produce lane-exact agreement
        /// with the fault-free reference model on every backend: the
        /// majority vote strips every single-run fault, whether it lands
        /// in a NOR gate, a LUT query, or a word-serial ALU op.
        #[test]
        fn tmr_matches_the_fault_free_reference(seed in any::<u64>()) {
            let lanes = 64usize;
            for kind in DatapathKind::ALL {
                let want = reference_regs(kind, seed, lanes);
                let (a, b) = inputs(seed, lanes);
                let mut config = SimConfig::mpu(kind);
                config.fault.seed = Some(seed);
                config.fault.transient_rate = 1e-4;
                config.recovery.redundancy = Redundancy::Tmr;
                let (_, mut mpu) =
                    run_single(config, &kernel(), &[((0, 0, 0), a), ((0, 0, 1), b)])
                        .expect("TMR run");
                for (i, reg) in (2u8..=5).enumerate() {
                    let got = mpu.read_register(0, 0, reg).expect("read");
                    prop_assert_eq!(
                        &got[..lanes], &want[i][..lanes],
                        "{:?} seed {:#x} r{}", kind, seed, reg
                    );
                }
            }
        }

        /// DMR with bounded retry never passes corrupted data on any
        /// backend: a run either matches the fault-free reference
        /// lane-exactly or aborts after detection (the safe failure mode).
        #[test]
        fn dmr_matches_the_reference_or_aborts(seed in any::<u64>()) {
            let lanes = 64usize;
            for kind in DatapathKind::ALL {
                let want = reference_regs(kind, seed, lanes);
                let (a, b) = inputs(seed, lanes);
                let mut config = SimConfig::mpu(kind);
                config.fault.seed = Some(seed);
                config.fault.transient_rate = 1e-4;
                config.recovery.redundancy = Redundancy::Dmr;
                config.recovery.max_retries = 4;
                match run_single(config, &kernel(), &[((0, 0, 0), a), ((0, 0, 1), b)]) {
                    Err(_) => {} // detected, retries exhausted, escalated: safe
                    Ok((_, mut mpu)) => {
                        for (i, reg) in (2u8..=5).enumerate() {
                            let got = mpu.read_register(0, 0, reg).expect("read");
                            prop_assert_eq!(
                                &got[..lanes], &want[i][..lanes],
                                "{:?} seed {:#x} r{}: DMR passed corrupted data",
                                kind, seed, reg
                            );
                        }
                    }
                }
            }
        }

        /// A permanently stuck lane plus spare-lane remapping reproduces
        /// the reference result over the reduced logical capacity of each
        /// backend's native geometry.
        #[test]
        fn remap_matches_the_reference_at_reduced_capacity(
            seed in any::<u64>(),
            lane in 0usize..64,
            stuck_high in any::<bool>(),
        ) {
            let spare_lanes = 4usize;
            for kind in DatapathKind::ALL {
                let logical = lanes_for(kind) - spare_lanes;
                let want = reference_regs(kind, seed, logical);
                let (a, b) = inputs(seed, logical);
                let mut config = SimConfig::mpu(kind);
                config.fault.seed = Some(seed | 1);
                config.fault.stuck_lanes = vec![
                    StuckLane { mpu: 0, rfh: 0, vrf: 0, lane, value: stuck_high },
                ];
                config.recovery.remap = true;
                config.recovery.spare_lanes = spare_lanes;
                let (stats, mut mpu) =
                    run_single(config, &kernel(), &[((0, 0, 0), a), ((0, 0, 1), b)])
                        .expect("remapped run");
                prop_assert!(
                    stats.faults.dead_lanes >= 1,
                    "{:?}: self-test must flag lane {}", kind, lane
                );
                for (i, reg) in (2u8..=5).enumerate() {
                    let got = mpu.read_register(0, 0, reg).expect("read");
                    prop_assert_eq!(got.len(), logical);
                    prop_assert_eq!(
                        &got[..], &want[i][..logical],
                        "{:?} seed {:#x} r{}", kind, seed, reg
                    );
                }
            }
        }

        /// Arming the fault layer with every rate at zero is byte-identical
        /// to not arming it at all on every backend: same registers, same
        /// statistics.
        #[test]
        fn zero_rates_are_byte_identical_to_fault_free(seed in any::<u64>()) {
            let lanes = 64usize;
            for kind in DatapathKind::ALL {
                let (a, b) = inputs(seed, lanes);
                let clean_cfg = SimConfig::mpu(kind);
                let (clean_stats, mut clean) = run_single(
                    clean_cfg,
                    &kernel(),
                    &[((0, 0, 0), a.clone()), ((0, 0, 1), b.clone())],
                )
                .expect("clean run");
                let mut armed_cfg = SimConfig::mpu(kind);
                armed_cfg.fault.seed = Some(seed);
                let (armed_stats, mut armed) =
                    run_single(armed_cfg, &kernel(), &[((0, 0, 0), a), ((0, 0, 1), b)])
                        .expect("armed run");
                prop_assert_eq!(clean_stats, armed_stats);
                prop_assert_eq!(armed_stats.faults.injected, 0);
                for reg in 2u8..=5 {
                    prop_assert_eq!(
                        clean.read_register(0, 0, reg).expect("read"),
                        armed.read_register(0, 0, reg).expect("read"),
                        "{:?} seed {:#x} r{}", kind, seed, reg
                    );
                }
            }
        }
    }
}

/// Pinned-seed sweep on the pLUTo backend: TMR must eliminate silent data
/// corruption on the generated corpus (faults landing in LUT queries vote
/// out exactly like faults landing in bit-serial gates).
#[test]
fn pinned_seed_tmr_sweep_on_pluto_has_zero_sdc() {
    let report = run_sweep(&SweepConfig {
        backend: DatapathKind::Pluto,
        seed: 0x5EED,
        rate: 1e-4,
        trials: 8,
        policy: PolicyKind::Tmr,
    });
    assert!(report.trials > 0, "pinned corpus must classify trials: {report:?}");
    assert_eq!(report.sdc_trials, 0, "TMR SDC must be zero on pLUTo: {report:?}");
}
