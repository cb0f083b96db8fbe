//! Figure 1: dynamic-loop execution-time breakdown for RACER as the number
//! of back-to-back CMPEQ loop-body instructions grows — the motivating
//! "even rare CPU offloads destroy performance" study.
//!
//! For each body size we build the same dynamic loop with ezpim, run it on
//! RACER in Baseline mode (control flow offloaded to the host CPU) and in
//! MPU mode (the hypothetical CPU-free PUM the paper compares against),
//! and report the slowdown plus the offload share of Baseline time.

use experiments::{fmt_ratio, fmt_time_ns, parse_jobs, print_table, SEED};
use ezpim::{Cond, EzProgram};
use mastodon::{print_stdout, run_single, SimConfig, Stats};
use mpu_isa::RegId;
use pum_backend::DatapathKind;
use workloads::{effective_jobs, parallel_map};

fn r(i: u16) -> RegId {
    RegId(i)
}

/// Builds a dynamic loop whose body is `body_cmps` back-to-back CMPEQs.
fn loop_program(body_cmps: usize) -> mpu_isa::Program {
    let mut ez = EzProgram::new();
    ez.ensemble(&[(0, 0)], |b| {
        b.while_loop(Cond::Gt(r(0), r(1)), |b| {
            b.repeat(body_cmps, |b| {
                b.cmp(Cond::Eq(r(2), r(3)));
            });
            b.sub(r(0), r(4), r(0));
        });
    })
    .expect("loop body");
    ez.assemble().expect("fig01 program")
}

fn run(mode_cfg: &SimConfig, body: usize, iterations: u64) -> Stats {
    let program = loop_program(body);
    let lanes = mode_cfg.datapath.geometry().lanes_per_vrf;
    let (stats, _) = run_single(
        mode_cfg.clone(),
        &program,
        &[
            ((0, 0, 0), vec![iterations; lanes]),
            ((0, 0, 1), vec![0; lanes]),
            ((0, 0, 2), vec![7; lanes]),
            ((0, 0, 3), vec![7; lanes]),
            ((0, 0, 4), vec![1; lanes]),
        ],
    )
    .expect("fig01 run");
    stats
}

fn main() {
    let _ = SEED;
    let mpu_cfg = SimConfig::mpu(DatapathKind::Racer);
    let base_cfg = SimConfig::baseline(DatapathKind::Racer);
    let iterations = 8;

    // Both modes of every body size fan out across worker threads;
    // parallel_map returns results in input order, so rows match the
    // serial sweep exactly.
    let bodies = [1usize, 2, 5, 10, 20, 40, 80];
    let runs = parallel_map(
        bodies.iter().flat_map(|&b| [(&mpu_cfg, b), (&base_cfg, b)]).collect(),
        effective_jobs(parse_jobs()),
        |(cfg, body)| run(cfg, body, iterations),
    );

    let mut rows = Vec::new();
    for (i, body) in bodies.into_iter().enumerate() {
        let (mpu, base) = (&runs[2 * i], &runs[2 * i + 1]);
        let slowdown = base.cycles as f64 / mpu.cycles as f64;
        let offload_share = base.offload_cycles as f64 / base.cycles as f64;
        rows.push(vec![
            body.to_string(),
            fmt_time_ns(mpu.cycles as f64),
            fmt_time_ns(base.cycles as f64),
            format!("{:.1}%", 100.0 * offload_share),
            fmt_ratio(slowdown),
        ]);
    }
    print_table(
        &format!(
            "Fig. 1 — {} dynamic loop: Baseline (CPU offload) vs CPU-free PUM",
            mpu_cfg.datapath.name()
        ),
        &["body CMPEQs", "PUM-only time", "Baseline time", "offload share", "slowdown"],
        &rows,
    );
    print_stdout(
        "\nPaper reference: ~10.1x slowdown at 1 control per 80 instructions; \
         30-40x for typical bodies.\n",
    );
}
