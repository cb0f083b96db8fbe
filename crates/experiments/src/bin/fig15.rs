//! Figure 15: execution-time breakdown — MPU computation, on-chip
//! inter-MPU communication, and off-chip CPU communication — for the
//! end-to-end applications under MPU and Baseline.

use experiments::{app_matrix_jobs, parse_jobs, print_table, SEED};
use mastodon::print_stdout;

fn main() {
    let apps = app_matrix_jobs(SEED, parse_jobs());
    let mut rows = Vec::new();
    for a in &apps {
        for (mpu, baseline) in a.mpu.iter().zip(&a.baseline) {
            for run in [mpu, baseline] {
                let (compute, inter, offchip) = run.stats.time_breakdown();
                rows.push(vec![
                    a.app.to_string(),
                    run.label.clone(),
                    format!("{:.1}%", 100.0 * compute),
                    format!("{:.1}%", 100.0 * inter),
                    format!("{:.1}%", 100.0 * offchip),
                ]);
            }
        }
    }
    print_table(
        "Fig. 15 — execution-time breakdown",
        &["application", "config", "MPU compute", "inter-MPU", "off-chip CPU"],
        &rows,
    );
    print_stdout(
        "\nPaper reference: MPU configurations have zero off-chip time; Baseline \
         EditDistance is almost entirely off-chip communication (7.72x worse than GPU).\n",
    );
}
