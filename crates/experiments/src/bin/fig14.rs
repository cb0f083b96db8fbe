//! Figure 14: end-to-end application speedup and energy savings vs. the
//! GPU, for Baseline and MPU on RACER and MIMDRAM.

use experiments::{
    app_matrix_jobs, base_and_mpu_headers, fmt_ratio, parse_jobs, print_table, APP_KINDS, SEED,
};
use mastodon::print_stdout;

fn main() {
    let apps = app_matrix_jobs(SEED, parse_jobs());
    for metric in ["speedup", "energy savings"] {
        let rows: Vec<Vec<String>> = apps
            .iter()
            .map(|a| {
                let pick = |i: usize, time_ns: f64, energy_pj: f64| match metric {
                    "speedup" => a.gpu[i].time_ns / time_ns,
                    _ => a.gpu[i].energy_pj / energy_pj,
                };
                vec![
                    a.app.to_string(),
                    fmt_ratio(pick(
                        0,
                        a.baseline[0].stats.time_ns(),
                        a.baseline[0].stats.energy.total_pj(),
                    )),
                    fmt_ratio(pick(0, a.mpu[0].stats.time_ns(), a.mpu[0].stats.energy.total_pj())),
                    fmt_ratio(pick(
                        1,
                        a.baseline[1].stats.time_ns(),
                        a.baseline[1].stats.energy.total_pj(),
                    )),
                    fmt_ratio(pick(1, a.mpu[1].stats.time_ns(), a.mpu[1].stats.energy.total_pj())),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 14 — end-to-end {metric} vs GPU"),
            &base_and_mpu_headers("application", &APP_KINDS),
            &rows,
        );
    }
    print_stdout(&format!(
        "\nPaper reference: {}/{} reach 198x/229x (LLMEncode) and \
         400x/545x (EditDistance) over GPU; BlackScholes remains a GPU win (CORDIC \
         subroutines vs dedicated hardware) but MPU beats Baseline by 2.50x; MPU \
         energy savings 5.4x/14.2x.\n",
        apps[0].mpu[0].label, apps[0].mpu[1].label
    ));
}
