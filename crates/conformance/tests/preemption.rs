//! Preempt/checkpoint/resume byte-identity, property-tested across every
//! backend.
//!
//! For arbitrary generator seeds, the single-MPU (comm-stripped) program
//! is run three ways on each backend: uninterrupted; preempted once at a
//! deterministic ensemble boundary and resumed in a *fresh* machine from
//! the exported checkpoint; and preempted twice (the resumed machine is
//! checkpointed again mid-run). All three must agree lane-exactly on
//! every architectural register and bit-exactly on the full [`Stats`]
//! ledger — the checkpoint carries fault-PRNG, recipe-cache, and
//! statistics state, so "paused and moved" is indistinguishable from
//! "never stopped".

use conformance::case::{lower, MpuCase};
use conformance::{generate, Top};
use mastodon::{Mpu, RunControl, SimConfig, Stats, StepEvent};
use mpu_isa::{MpuId, Program};
use proptest::prelude::*;
use pum_backend::DatapathKind;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Strips inter-MPU communication from a generated case's first MPU —
/// preemption is a single-machine affair (the service rejects comm at
/// admission for the same reason).
fn solo_case(seed: u64) -> MpuCase {
    let mut mpu = generate(seed).mpus.into_iter().next().expect("cases have at least one MPU");
    mpu.tops.retain(|t| !matches!(t, Top::Send { .. } | Top::Recv { .. }));
    mpu
}

/// Every `(rfh, vrf)` the case can touch, for the final register sweep.
fn touched_vrfs(mpu: &MpuCase) -> BTreeSet<(u16, u16)> {
    let mut set = BTreeSet::new();
    for input in &mpu.inputs {
        set.insert((input.rfh, input.vrf));
    }
    let vrfs: BTreeSet<u16> = mpu
        .inputs
        .iter()
        .map(|i| i.vrf)
        .chain(mpu.tops.iter().flat_map(|t| match t {
            Top::Ensemble { members, .. } => members.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            _ => Vec::new(),
        }))
        .chain(std::iter::once(0))
        .collect();
    for top in &mpu.tops {
        match top {
            Top::Ensemble { members, .. } => {
                set.extend(members.iter().copied());
            }
            Top::Move { pairs, .. } => {
                for &(src, dst) in pairs {
                    for &v in &vrfs {
                        set.insert((src, v));
                        set.insert((dst, v));
                    }
                }
            }
            _ => {}
        }
    }
    set
}

struct RunResult {
    stats: Stats,
    regs: Vec<((u16, u16, u8), Vec<u64>)>,
}

fn load_inputs(mpu: &mut Mpu, case: &MpuCase) {
    for input in &case.inputs {
        mpu.write_register(input.rfh, input.vrf, input.reg, &input.values)
            .expect("generated inputs are in geometry");
    }
}

fn sweep(mpu: &mut Mpu, vrfs: &BTreeSet<(u16, u16)>) -> Vec<((u16, u16, u8), Vec<u64>)> {
    let mut regs = Vec::new();
    for &(rfh, vrf) in vrfs {
        // The generator addresses registers 0..14.
        for reg in 0..14u8 {
            let values = mpu.read_register(rfh, vrf, reg).expect("in-geometry read");
            regs.push(((rfh, vrf, reg), values));
        }
    }
    regs
}

fn drive_to_completion(mpu: &mut Mpu, program: &Program) {
    match mpu.step(program).expect("comm-stripped case completes") {
        StepEvent::Completed => {}
        other => panic!("comm-stripped case yielded {other:?}"),
    }
}

/// Uninterrupted run; also reports how many boundaries the program
/// crosses, for pinning the preemption points.
fn reference_run(
    config: &SimConfig,
    case: &MpuCase,
    program: &Program,
    vrfs: &BTreeSet<(u16, u16)>,
) -> (RunResult, u64) {
    let mut mpu = Mpu::new(config.clone(), MpuId(0));
    let ctrl = Arc::new(RunControl::new());
    mpu.set_run_control(Arc::clone(&ctrl));
    load_inputs(&mut mpu, case);
    drive_to_completion(&mut mpu, program);
    let stats = mpu.finish();
    (RunResult { stats, regs: sweep(&mut mpu, vrfs) }, ctrl.boundaries())
}

/// Runs with preemptions pinned at the given boundary counts (each count
/// local to its machine hop); every preemption exports a checkpoint and
/// resumes it in a brand-new machine.
fn interrupted_run(
    config: &SimConfig,
    case: &MpuCase,
    program: &Program,
    vrfs: &BTreeSet<(u16, u16)>,
    preempt_points: &[u64],
) -> (RunResult, usize) {
    let mut mpu = Mpu::new(config.clone(), MpuId(0));
    load_inputs(&mut mpu, case);
    let mut hops = 0;
    for &at in preempt_points {
        let ctrl = Arc::new(RunControl::new());
        ctrl.preempt_at_boundary(at);
        mpu.set_run_control(Arc::clone(&ctrl));
        match mpu.step(program).expect("preemptible run does not fail") {
            StepEvent::Preempted => {
                let cp = mpu.export_checkpoint();
                // A fresh machine: nothing survives but the checkpoint.
                mpu = Mpu::new(config.clone(), MpuId(0));
                mpu.import_checkpoint(&cp).expect("same-config import");
                hops += 1;
            }
            StepEvent::Completed => break, // fewer boundaries left than `at`
            other => panic!("comm-stripped case yielded {other:?}"),
        }
    }
    mpu.clear_run_control();
    drive_to_completion(&mut mpu, program);
    let stats = mpu.finish();
    (RunResult { stats, regs: sweep(&mut mpu, vrfs) }, hops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single and chained preempt/resume reproduce the uninterrupted
    /// run's registers and statistics exactly, on every backend.
    #[test]
    fn preempt_resume_is_byte_identical(seed in any::<u64>()) {
        let case = solo_case(seed);
        let program = lower(&case).expect("generated case lowers");
        let vrfs = touched_vrfs(&case);
        for kind in DatapathKind::ALL {
            let config = SimConfig::mpu(kind);
            let (reference, boundaries) = reference_run(&config, &case, &program, &vrfs);
            if boundaries == 0 {
                continue; // empty program: nothing to preempt
            }
            // One hop, pinned mid-program.
            let mid = boundaries / 2 + 1;
            let (once, hops) = interrupted_run(&config, &case, &program, &vrfs, &[mid]);
            prop_assert!(hops == 1, "seed {} {:?}: mid-preemption never fired", seed, kind);
            prop_assert_eq!(
                &once.regs, &reference.regs,
                "seed {} {:?}: registers diverged after one resume", seed, kind
            );
            prop_assert_eq!(
                once.stats, reference.stats,
                "seed {} {:?}: stats diverged after one resume", seed, kind
            );
            // Two hops: first boundary, then midway through the remainder
            // (boundary counts are per-hop — the resumed machine's control
            // starts a fresh counter).
            let second = (boundaries - 1) / 2 + 1;
            let (twice, hops) = interrupted_run(&config, &case, &program, &vrfs, &[1, second]);
            prop_assert!(hops >= 1, "seed {} {:?}: chained preemption never fired", seed, kind);
            prop_assert_eq!(
                &twice.regs, &reference.regs,
                "seed {} {:?}: registers diverged after chained resume", seed, kind
            );
            prop_assert_eq!(
                twice.stats, reference.stats,
                "seed {} {:?}: stats diverged after chained resume", seed, kind
            );
        }
    }
}
