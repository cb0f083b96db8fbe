//! Figure 12: speedup (top) and energy savings (bottom) of MPU:X over
//! Baseline:X for all 28 kernels. The paper evaluates X ∈ {RACER,
//! MIMDRAM, DualityCache}; the table adds the repo's pLUTo and DPU
//! substrates as extra columns (the paper reference line covers only the
//! first three).

use experiments::{
    fmt_ratio, geomean, kernel_matrix_jobs, parse_jobs, print_table, KERNEL_N, SEED,
};
use mastodon::print_stdout;
use pum_backend::{DatapathKind, DatapathModel};
use workloads::KernelGroup;

fn main() {
    let jobs = parse_jobs();
    let kinds = DatapathKind::ALL;
    let matrices: Vec<_> =
        kinds.iter().map(|&k| kernel_matrix_jobs(k, KERNEL_N, SEED, jobs)).collect();
    let names = kinds.map(|k| DatapathModel::for_kind(k).name().to_string());
    let headers: Vec<&str> =
        ["kernel"].into_iter().chain(names.iter().map(String::as_str)).collect();

    for metric in ["speedup", "energy savings"] {
        let mut rows = Vec::new();
        let mut last_group = None;
        for i in 0..matrices[0].len() {
            let group = matrices[0][i].group;
            if last_group != Some(group) {
                last_group = Some(group);
                rows.push(vec![format!("[{}]", group.label())]);
            }
            let mut row = vec![matrices[0][i].kernel.to_string()];
            for m in &matrices {
                let v = match metric {
                    "speedup" => m[i].mpu_speedup_vs_baseline(),
                    _ => m[i].mpu_energy_savings_vs_baseline(),
                };
                row.push(fmt_ratio(v));
            }
            rows.push(row);
        }
        // Group and overall means.
        for group in KernelGroup::ALL {
            let mut row = vec![format!("mean({})", group.label())];
            for m in &matrices {
                let vals = m.iter().filter(|r| r.group == group).map(|r| match metric {
                    "speedup" => r.mpu_speedup_vs_baseline(),
                    _ => r.mpu_energy_savings_vs_baseline(),
                });
                row.push(fmt_ratio(geomean(vals)));
            }
            rows.push(row);
        }
        let mut row = vec!["MEAN(all 21)".to_string()];
        for m in &matrices {
            let vals = m.iter().map(|r| match metric {
                "speedup" => r.mpu_speedup_vs_baseline(),
                _ => r.mpu_energy_savings_vs_baseline(),
            });
            row.push(fmt_ratio(geomean(vals)));
        }
        rows.push(row);

        print_table(
            &format!("Fig. 12 — MPU:X {metric} over Baseline:X (n = {KERNEL_N})"),
            &headers,
            &rows,
        );
    }
    let [racer, mimdram, dc, ..] = &names;
    print_stdout(&format!(
        "\nPaper reference: average speedups 1.79x / 1.70x / 1.12x and energy savings \
         3.23x / 2.34x / 4.07x for {racer} / {mimdram} / {dc}; basic kernels show \
         slight slowdowns (iso-area capacity loss), stencil+complex gain ~4.4x on {racer}.\n"
    ));
}
