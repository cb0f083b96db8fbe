//! Execution-tier comparison: per-kernel host wall-clock of one
//! instruction per block (the compiled tier) vs. multi-instruction blocks
//! (the block tier) on MPU:RACER, with a bit-exactness check of the
//! simulated statistics on every row.
//!
//! Each tier is timed steady-state: a shared [`RecipePool`] per tier is
//! warmed once, so rows measure per-run execution cost — the regime every
//! sweep and figure harness runs in — rather than one-time template
//! synthesis. `ensembles` reports the wave simulation's tier split as
//! `blocks/total`: every body, loops and predication included, runs on
//! multi-instruction blocks.

use experiments::{fmt_ratio, geomean, print_table, SEED};
use mastodon::{RecipePool, SimConfig};
use pum_backend::DatapathKind;
use std::sync::Arc;
use std::time::Instant;
use workloads::{all_kernels, run_kernel_pooled};

/// Problem size: matches the perf gate's `cargo bench` sweep, not the
/// figure-scale `KERNEL_N`, so a row is milliseconds rather than minutes.
const N: u64 = 1 << 12;

/// Timing repetitions per tier (median reported).
const REPS: usize = 5;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let kernels = all_kernels();
    let compiled_cfg = {
        let mut c = SimConfig::mpu(DatapathKind::Racer);
        c.trace_ensembles = false;
        c
    };
    let block_cfg = SimConfig::mpu(DatapathKind::Racer);
    let compiled_pool = Arc::new(RecipePool::new());
    let block_pool = Arc::new(RecipePool::new());

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for k in &kernels {
        // Warm both pools and pin bit-exactness before timing anything.
        let compiled =
            run_kernel_pooled(k.as_ref(), &compiled_cfg, N, SEED, Some(&compiled_pool)).unwrap();
        let blocks = run_kernel_pooled(k.as_ref(), &block_cfg, N, SEED, Some(&block_pool)).unwrap();
        assert_eq!(
            compiled.wave,
            blocks.wave,
            "{}: tiers disagree on simulated statistics",
            k.name()
        );

        let time = |cfg: &SimConfig, pool: &Arc<RecipePool>| {
            median_ms(
                (0..REPS)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(
                            run_kernel_pooled(k.as_ref(), cfg, N, SEED, Some(pool)).unwrap(),
                        );
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .collect(),
            )
        };
        let t_compiled = time(&compiled_cfg, &compiled_pool);
        let t_block = time(&block_cfg, &block_pool);
        let speedup = t_compiled / t_block;
        speedups.push(speedup);
        rows.push(vec![
            k.name().to_string(),
            format!("{}/{}", blocks.tiers.0, blocks.tiers.0 + blocks.tiers.1),
            format!("{t_compiled:.2}"),
            format!("{t_block:.2}"),
            fmt_ratio(speedup),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".to_string(),
        String::new(),
        String::new(),
        String::new(),
        fmt_ratio(geomean(speedups.into_iter())),
    ]);

    print_table(
        &format!(
            "Execution tiers — compiled vs. block wall-clock, {} (n = {N}, warm pool)",
            block_cfg.label()
        ),
        &["kernel", "ensembles", "compiled ms", "block ms", "speedup"],
        &rows,
    );
}
