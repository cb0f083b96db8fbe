//! End-to-end tests: ezpim's structured control flow, lowered to MPU ISA,
//! executes correctly on the simulated control path across every shipped
//! backend — the paper's core "end-to-end execution without a CPU" claim.

use ezpim::{Cond, EzProgram};
use mastodon::{run_single, SimConfig};
use mpu_isa::RegId;
use pum_backend::DatapathKind;

fn r(i: u16) -> RegId {
    RegId(i)
}

fn lanes_for(kind: DatapathKind) -> usize {
    SimConfig::mpu(kind).datapath.geometry().lanes_per_vrf
}

#[test]
fn while_loop_collatz_style_countdown() {
    // r0 -= r2 while r0 > r1; with per-lane iteration counts.
    for kind in DatapathKind::ALL {
        let lanes = lanes_for(kind);
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.while_loop(Cond::Gt(r(0), r(1)), |b| {
                b.sub(r(0), r(2), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let init: Vec<u64> = (0..lanes as u64).map(|i| i % 9).collect();
        let (_, mut mpu) = run_single(
            SimConfig::mpu(kind),
            &p,
            &[((0, 0, 0), init.clone()), ((0, 0, 1), vec![0; lanes]), ((0, 0, 2), vec![1; lanes])],
        )
        .unwrap();
        assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; lanes], "{kind:?}");
    }
}

#[test]
fn nested_if_inside_while_diverges_per_lane() {
    // while (r0 > r1) { if (r3 == r4) { r0 -= r2 } else { r0 -= r5 } }
    // Even lanes (r3==r4) step by 1, odd lanes by 2.
    for kind in [DatapathKind::Racer] {
        let lanes = lanes_for(kind);
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.while_loop(Cond::Gt(r(0), r(1)), |b| {
                b.if_else(
                    Cond::Eq(r(3), r(4)),
                    |b| {
                        b.sub(r(0), r(2), r(0));
                    },
                    |b| {
                        b.sub(r(0), r(5), r(0));
                    },
                );
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let init: Vec<u64> = vec![6; lanes];
        let parity: Vec<u64> = (0..lanes as u64).map(|i| i % 2).collect();
        let (_, mut mpu) = run_single(
            SimConfig::mpu(kind),
            &p,
            &[
                ((0, 0, 0), init),
                ((0, 0, 1), vec![0; lanes]),
                ((0, 0, 2), vec![1; lanes]),
                ((0, 0, 3), parity.clone()),
                ((0, 0, 4), vec![0; lanes]),
                ((0, 0, 5), vec![2; lanes]),
            ],
        )
        .unwrap();
        let got = mpu.read_register(0, 0, 0).unwrap();
        for (lane, &v) in got.iter().enumerate() {
            assert_eq!(v, 0, "{kind:?} lane {lane}: 6 steps to 0 by 1 or 2");
        }
    }
}

#[test]
fn for_loop_accumulates_fixed_count() {
    // for (r5 = 0; r5 < r6; r5++) r0 += r1, with r6 = 10, r1 = 3.
    for kind in DatapathKind::ALL {
        let lanes = lanes_for(kind);
        let mut ez = EzProgram::new();
        ez.ensemble(&[(0, 0)], |b| {
            b.for_loop(r(5), r(6), |b| {
                b.add(r(0), r(1), r(0));
            });
        })
        .unwrap();
        let p = ez.assemble().unwrap();
        let (_, mut mpu) = run_single(
            SimConfig::mpu(kind),
            &p,
            &[
                ((0, 0, 0), vec![0; lanes]),
                ((0, 0, 1), vec![3; lanes]),
                ((0, 0, 6), vec![10; lanes]),
            ],
        )
        .unwrap();
        assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![30; lanes], "{kind:?}");
    }
}

#[test]
fn subroutines_compose_with_control_flow() {
    // main: if (r0 > r1) call square;  square: r2 = r0 * r0.
    let kind = DatapathKind::Racer;
    let lanes = lanes_for(kind);
    let mut ez = EzProgram::new();
    ez.ensemble(&[(0, 0)], |b| {
        b.init0(r(2));
        b.if_then(Cond::Gt(r(0), r(1)), |b| {
            b.call("square");
        });
    })
    .unwrap();
    ez.subroutine("square", |b| {
        b.mul(r(0), r(0), r(2));
    })
    .unwrap();
    let p = ez.assemble().unwrap();
    let vals: Vec<u64> = (0..lanes as u64).collect();
    let (_, mut mpu) = run_single(
        SimConfig::mpu(kind),
        &p,
        &[((0, 0, 0), vals.clone()), ((0, 0, 1), vec![3; lanes])],
    )
    .unwrap();
    let got = mpu.read_register(0, 0, 2).unwrap();
    for lane in 0..lanes {
        let expect = if vals[lane] > 3 { vals[lane] * vals[lane] } else { 0 };
        assert_eq!(got[lane], expect, "lane {lane}");
    }
}

#[test]
fn textual_ezpim_runs_on_the_simulator() {
    let src = "\
ensemble h0.v0 {
    while r0 > r1 {
        SUB r0 r2 r0
    }
}
";
    let ez = ezpim::parse(src).unwrap();
    let p = ez.assemble().unwrap();
    let (_, mut mpu) = run_single(
        SimConfig::mpu(DatapathKind::Racer),
        &p,
        &[((0, 0, 0), vec![5; 64]), ((0, 0, 1), vec![0; 64]), ((0, 0, 2), vec![1; 64])],
    )
    .unwrap();
    assert_eq!(mpu.read_register(0, 0, 0).unwrap(), vec![0; 64]);
}

#[test]
fn baseline_and_mpu_agree_functionally_on_nested_control() {
    let mut ez = EzProgram::new();
    ez.ensemble(&[(0, 0)], |b| {
        b.while_loop(Cond::Gt(r(0), r(1)), |b| {
            b.if_then(Cond::Lt(r(0), r(3)), |b| {
                b.add(r(4), r(2), r(4));
            });
            b.sub(r(0), r(2), r(0));
        });
    })
    .unwrap();
    let p = ez.assemble().unwrap();
    let inputs: Vec<((u16, u16, u8), Vec<u64>)> = vec![
        ((0, 0, 0), (0..64).map(|i| i % 7).collect()),
        ((0, 0, 1), vec![0; 64]),
        ((0, 0, 2), vec![1; 64]),
        ((0, 0, 3), vec![4; 64]),
        ((0, 0, 4), vec![0; 64]),
    ];
    let (s_mpu, mut m1) = run_single(SimConfig::mpu(DatapathKind::Racer), &p, &inputs).unwrap();
    let (s_base, mut m2) =
        run_single(SimConfig::baseline(DatapathKind::Racer), &p, &inputs).unwrap();
    assert_eq!(
        m1.read_register(0, 0, 4).unwrap(),
        m2.read_register(0, 0, 4).unwrap(),
        "modes agree on results"
    );
    assert!(s_base.offload_events > 0);
    assert!(s_base.cycles > s_mpu.cycles, "Baseline pays for every mask/jump");
}
