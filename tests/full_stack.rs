//! Cross-crate integration tests: the full pipeline from ezpim source text
//! through assembly, binary encoding, validation, gate-exact simulation on
//! every backend, and statistics — exercised through the `mpu` umbrella
//! crate exactly as a downstream user would.
//!
//! Expected values are not hand-written: every scenario is checked
//! lane-exactly against the word-level `refmodel` interpreter on the same
//! geometry, so the tests pin simulator-vs-architecture agreement rather
//! than a particular precomputed answer.

use conformance::ref_geometry;
use mpu::backend::{DatapathKind, DatapathModel, Plane};
use mpu::ezpim;
use mpu::isa::Program;
use mpu::mastodon::{run_single, Mpu, SimConfig, System};
use refmodel::{run_ref, LaneInit, RefMpu, RefSystem};

/// Runs `program` on the reference model with `kind`'s geometry.
fn reference(kind: DatapathKind, program: &Program, inputs: &[LaneInit]) -> RefMpu {
    run_ref(ref_geometry(&DatapathModel::for_kind(kind)), program, inputs).expect("reference run")
}

#[test]
fn text_to_silicon_pipeline() {
    // ezpim text → structured program → ISA binary → words → back → run.
    let src = "\
ensemble h0.v0 {
    INIT0 r4
    while r0 > r1 {
        ADD r4 r2 r4
        SUB r0 r2 r0
    }
}
";
    let program = ezpim::parse(src).unwrap().assemble().unwrap();
    program.validate().unwrap();
    let words = program.encode();
    let decoded = Program::decode(&words).unwrap();
    assert_eq!(program, decoded);

    for kind in DatapathKind::ALL {
        let cfg = SimConfig::mpu(kind);
        let lanes = cfg.datapath.geometry().lanes_per_vrf;
        let init: Vec<u64> = (0..lanes as u64).map(|i| i % 11).collect();
        let inputs: Vec<((u16, u16, u8), Vec<u64>)> = vec![
            ((0, 0, 0), init.clone()),
            ((0, 0, 1), vec![0; lanes]),
            ((0, 0, 2), vec![1; lanes]),
        ];
        let (stats, mut mpu) = run_single(cfg, &decoded, &inputs).unwrap();
        let mut reference = reference(kind, &decoded, &inputs);
        for reg in [0u8, 4] {
            assert_eq!(
                mpu.read_register(0, 0, reg).unwrap(),
                reference.read_register(0, 0, reg),
                "{kind:?} r{reg}"
            );
        }
        assert!(stats.uops > 0);
        assert_eq!(stats.offload_events, 0);
        assert_eq!(stats.instructions, reference.trace().instructions, "{kind:?}");
    }
}

#[test]
fn same_binary_same_results_across_backends() {
    let program = Program::parse_asm(
        "COMPUTE h0 v0\n\
         CMPGT r0 r1\n\
         SETMASK r63\n\
         INC r2 r2\n\
         UNMASK\n\
         COMPUTE_DONE",
    )
    .unwrap();
    let mut outcomes = Vec::new();
    for kind in DatapathKind::ALL {
        let cfg = SimConfig::mpu(kind);
        let lanes = cfg.datapath.geometry().lanes_per_vrf;
        let inputs: Vec<((u16, u16, u8), Vec<u64>)> = vec![
            ((0, 0, 0), (0..lanes as u64).collect()),
            ((0, 0, 1), vec![31; lanes]),
            ((0, 0, 2), vec![100; lanes]),
        ];
        let (_, mut mpu) = run_single(cfg, &program, &inputs).unwrap();
        // Lane-exact agreement with the reference model on every lane of
        // this backend's geometry.
        let got = mpu.read_register(0, 0, 2).unwrap();
        let want = reference(kind, &program, &inputs).read_register(0, 0, 2);
        assert_eq!(got, want, "{kind:?}");
        outcomes.push(got[..64].to_vec());
    }
    // The first 64 lanes saw identical inputs on every backend, so the
    // (reference-checked) results must also agree across geometries.
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn multi_mpu_pipeline_with_compute_and_comm() {
    // MPU 0 squares its data and ships it; MPU 1 adds its own input to the
    // received values. Checked against the reference system on every
    // backend's geometry.
    let p0 = ezpim::parse(
        "ensemble h0.v0 {\n MUL r0 r0 r2\n}\n\
         send mpu1 {\n move h0 -> h0 {\n memcpy v0.r2 -> v0.r3\n }\n}\n",
    )
    .unwrap()
    .assemble()
    .unwrap();
    // MUL requires rd != sources; r0*r0 -> r2 is fine.
    let p1 = ezpim::parse("recv mpu0\nensemble h0.v0 {\n ADD r3 r1 r4\n}\n")
        .unwrap()
        .assemble()
        .unwrap();
    for kind in DatapathKind::ALL {
        let cfg = SimConfig::mpu(kind);
        let lanes = cfg.datapath.geometry().lanes_per_vrf;
        let mut sys = System::new(cfg, 2);
        sys.set_program(0, p0.clone());
        sys.set_program(1, p1.clone());
        sys.mpu_mut(0).write_register(0, 0, 0, &vec![9; lanes]).unwrap();
        sys.mpu_mut(1).write_register(0, 0, 1, &vec![19; lanes]).unwrap();
        let stats = sys.run().unwrap();

        let mut rsys = RefSystem::new(ref_geometry(&DatapathModel::for_kind(kind)), 2);
        rsys.set_program(0, p0.clone());
        rsys.set_program(1, p1.clone());
        rsys.mpu_mut(0).write_register(0, 0, 0, &vec![9; lanes]);
        rsys.mpu_mut(1).write_register(0, 0, 1, &vec![19; lanes]);
        rsys.run().unwrap();

        assert_eq!(
            sys.mpu_mut(1).read_register(0, 0, 4).unwrap(),
            rsys.mpu_mut(1).read_register(0, 0, 4),
            "{kind:?}"
        );
        assert_eq!(stats.messages_sent, rsys.total_trace().messages_sent, "{kind:?}");
    }
}

#[test]
fn baseline_mode_is_functionally_identical_but_slower() {
    let src = "\
ensemble h0.v0 h1.v0 {
    for r5 < r6 {
        if r0 > r1 {
            SUB r0 r1 r0
        } else {
            ADD r0 r2 r0
        }
    }
}
";
    let program = ezpim::parse(src).unwrap().assemble().unwrap();
    let lanes = 64;
    let inputs: Vec<((u16, u16, u8), Vec<u64>)> = vec![
        ((0, 0, 0), (0..lanes as u64).map(|i| i * 3).collect()),
        ((0, 0, 1), vec![5; lanes]),
        ((0, 0, 2), vec![2; lanes]),
        ((0, 0, 6), vec![4; lanes]),
        ((1, 0, 0), (0..lanes as u64).map(|i| i * 7).collect()),
        ((1, 0, 1), vec![3; lanes]),
        ((1, 0, 2), vec![1; lanes]),
        ((1, 0, 6), vec![4; lanes]),
    ];
    let (fast, mut m1) =
        run_single(SimConfig::mpu(DatapathKind::Racer), &program, &inputs).unwrap();
    let (slow, mut m2) =
        run_single(SimConfig::baseline(DatapathKind::Racer), &program, &inputs).unwrap();
    let mut reference = reference(DatapathKind::Racer, &program, &inputs);
    for (rfh, vrf) in [(0, 0), (1, 0)] {
        let want = reference.read_register(rfh, vrf, 0);
        assert_eq!(m1.read_register(rfh, vrf, 0).unwrap(), want, "mpu mode h{rfh}");
        assert_eq!(m2.read_register(rfh, vrf, 0).unwrap(), want, "baseline mode h{rfh}");
    }
    assert!(slow.cycles > fast.cycles);
    assert!(slow.offload_events > 0);
    assert_eq!(fast.offload_events, 0);
}

#[test]
fn mask_state_is_architecturally_visible() {
    // GETMASK exposes the lane mask to the program; the control path's
    // conditional register feeds SETMASK — end to end through the stack,
    // with the reference model defining what the mask must contain.
    let program = Program::parse_asm(
        "COMPUTE h0 v0\n\
         CMPEQ r0 r1\n\
         SETMASK r63\n\
         GETMASK r2\n\
         UNMASK\n\
         COMPUTE_DONE",
    )
    .unwrap();
    let a: Vec<u64> = (0..64).collect();
    let b: Vec<u64> = (0..64).map(|i| if i % 3 == 0 { i } else { 99 }).collect();
    for kind in DatapathKind::ALL {
        let inputs: Vec<((u16, u16, u8), Vec<u64>)> =
            vec![((0, 0, 0), a.clone()), ((0, 0, 1), b.clone())];
        let mut mpu = Mpu::new(SimConfig::mpu(kind), 0.into());
        mpu.write_register(0, 0, 0, &a).unwrap();
        mpu.write_register(0, 0, 1, &b).unwrap();
        mpu.run(&program).unwrap();
        let mask = mpu.read_register(0, 0, 2).unwrap();
        let want = reference(kind, &program, &inputs).read_register(0, 0, 2);
        assert_eq!(mask, want, "{kind:?}");
        // The reference agrees with first principles on the data lanes.
        for (lane, &bit) in want.iter().enumerate().take(64) {
            assert_eq!(bit, u64::from(lane % 3 == 0), "{kind:?} lane {lane}");
        }
    }
    let _ = Plane::Cond; // public plane addressing is part of the API
}
