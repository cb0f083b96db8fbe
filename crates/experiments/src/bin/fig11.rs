//! Figure 11 and the §VIII-A synthesis numbers: per-component area and
//! power breakdown of one MPU front end, plus the RACER chip-augmentation
//! example.

use experiments::print_table;
use mastodon::print_stdout;
use pum_backend::area::{augment_chip, FrontEndModel};

fn main() {
    let model = FrontEndModel::default();
    let rows: Vec<Vec<String>> = model
        .components()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                if c.storage { "storage" } else { "logic" }.to_string(),
                format!("{:.4}", c.area_mm2),
                format!("{:.4}", c.static_mw),
                format!("{:.3}", c.dynamic_mw),
            ]
        })
        .collect();
    print_table(
        "Fig. 11 — MPU front-end breakdown",
        &["component", "kind", "area (mm2)", "static (mW)", "dynamic (mW)"],
        &rows,
    );
    print_stdout(&format!(
        "\ntotals: area {:.3} mm2 (paper 0.123), static {:.2} mW (paper 1.22), \
         dynamic {:.2} mW (paper 71.72)\n",
        model.total_area_mm2(),
        model.total_static_mw(),
        model.total_dynamic_mw()
    ));
    print_stdout(&format!(
        "storage shares: area {:.0}% (paper 53%), static {:.0}% (paper 91%), \
         dynamic {:.0}% (paper ~all)\n",
        100.0 * model.storage_area_share(),
        100.0 * model.storage_static_share(),
        100.0 * model.storage_dynamic_share()
    ));
    let chip = augment_chip(&model, 4.00, 330.0, 512);
    print_stdout(&format!(
        "\nRACER + 512 MPUs: chip area {:.2} cm2 (paper 4.63), static {:.0} mW \
         (paper 955), max control-path draw {:.1} W (paper 36.7)\n",
        chip.total_area_cm2, chip.total_static_mw, chip.max_control_path_w
    ));
}
