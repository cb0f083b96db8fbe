//! Figure 5: power density vs. number of active memory arrays for the PUM
//! datapaths, against the air-cooling limit — the motivation for RF
//! holders and thermal-aware scheduling.

use experiments::{parse_jobs, print_table};
use mastodon::print_stdout;
use pum_backend::power::{
    fig5_sweep, floatpim_like, thermal_active_limit, AIR_COOLING_LIMIT_W_PER_CM2,
};
use pum_backend::DatapathModel;
use workloads::{effective_jobs, parallel_map};

fn main() {
    // The paper's three substrates and its FloatPIM comparison curve,
    // plus the pLUTo and DPU models the repo ships beyond the paper.
    let models = vec![
        DatapathModel::racer(),
        DatapathModel::mimdram(),
        DatapathModel::duality_cache(),
        floatpim_like(),
        DatapathModel::pluto(),
        DatapathModel::dpu(),
    ];

    // One sweep per datapath model, fanned across worker threads.
    let sweeps = parallel_map(models.clone(), effective_jobs(parse_jobs()), |m| fig5_sweep(&m));

    let actives = [1usize, 2, 4, 8, 16, 32, 64];
    let mut rows = Vec::new();
    for active in actives {
        let mut row = vec![active.to_string()];
        for sweep in &sweeps {
            let point = sweep.iter().find(|p| p.active_arrays == active);
            row.push(match point {
                Some(p) => format!("{:.1}", p.w_per_cm2),
                None => "-".to_string(),
            });
        }
        rows.push(row);
    }
    let headers: Vec<&str> =
        ["active"].into_iter().chain(models.iter().map(|m| m.name())).collect();
    print_table(
        "Fig. 5 — power density (W/cm2) vs active arrays per RFH footprint",
        &headers,
        &rows,
    );
    print_stdout(&format!("\nair-cooling limit: {AIR_COOLING_LIMIT_W_PER_CM2} W/cm2\n"));
    for m in &models {
        print_stdout(&format!(
            "{:>13}: thermally safe active VRFs/RFH = {}\n",
            m.name(),
            thermal_active_limit(m)
        ));
    }
    print_stdout(&format!(
        "\nPaper reference: {} limited to ~1 active pipeline per cluster; \
         Duality Cache never thermally throttles.\n",
        models[0].name()
    ));
}
