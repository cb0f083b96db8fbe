//! Figure 13: speedup (top) and energy savings (bottom) of Baseline:X and
//! MPU:X over the GPU, X ∈ {RACER, MIMDRAM}, for all 28 kernels; plus the
//! paper's footnote on MPU:DualityCache.

use experiments::{
    base_and_mpu_headers, fmt_ratio, geomean, kernel_matrix_jobs, parse_jobs, print_table,
    KERNEL_N, SEED,
};
use mastodon::print_stdout;
use pum_backend::DatapathKind;

fn main() {
    let jobs = parse_jobs();
    let racer = kernel_matrix_jobs(DatapathKind::Racer, KERNEL_N, SEED, jobs);
    let mimdram = kernel_matrix_jobs(DatapathKind::Mimdram, KERNEL_N, SEED, jobs);
    let dc = kernel_matrix_jobs(DatapathKind::DualityCache, KERNEL_N, SEED, jobs);

    for metric in ["speedup", "energy savings"] {
        let mut rows = Vec::new();
        for i in 0..racer.len() {
            let pick = |r: &experiments::KernelComparison, who: &str| match (metric, who) {
                ("speedup", "base") => r.baseline_speedup_vs_gpu(),
                ("speedup", _) => r.mpu_speedup_vs_gpu(),
                (_, "base") => r.baseline_energy_savings_vs_gpu(),
                (_, _) => r.mpu_energy_savings_vs_gpu(),
            };
            rows.push(vec![
                racer[i].kernel.to_string(),
                fmt_ratio(pick(&racer[i], "base")),
                fmt_ratio(pick(&racer[i], "mpu")),
                fmt_ratio(pick(&mimdram[i], "base")),
                fmt_ratio(pick(&mimdram[i], "mpu")),
            ]);
        }
        let mean = |m: &[experiments::KernelComparison], who: &str| {
            fmt_ratio(geomean(m.iter().map(|r| match (metric, who) {
                ("speedup", "base") => r.baseline_speedup_vs_gpu(),
                ("speedup", _) => r.mpu_speedup_vs_gpu(),
                (_, "base") => r.baseline_energy_savings_vs_gpu(),
                (_, _) => r.mpu_energy_savings_vs_gpu(),
            })))
        };
        rows.push(vec![
            "MEAN(all 21)".to_string(),
            mean(&racer, "base"),
            mean(&racer, "mpu"),
            mean(&mimdram, "base"),
            mean(&mimdram, "mpu"),
        ]);
        print_table(
            &format!("Fig. 13 — {metric} vs GPU (RTX 4090 model), log-scale data"),
            &base_and_mpu_headers("kernel", &[DatapathKind::Racer, DatapathKind::Mimdram]),
            &rows,
        );
    }

    let dc_speed = geomean(dc.iter().map(|r| r.mpu_speedup_vs_gpu()));
    let dc_energy = geomean(dc.iter().map(|r| r.mpu_energy_savings_vs_gpu()));
    print_stdout(&format!(
        "\n{} vs GPU (not plotted in the paper): {} speedup, {} energy \
         savings (paper: 1.6x / 3.6x, capacity-limited).\n",
        dc[0].mpu.label,
        fmt_ratio(dc_speed),
        fmt_ratio(dc_energy)
    ));
    print_stdout(&format!(
        "Paper reference: {} 67x / 47x and {} 156x / 35x mean \
         speedup / energy savings over the GPU.\n",
        racer[0].mpu.label, mimdram[0].mpu.label
    ));
}
