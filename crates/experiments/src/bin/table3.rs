//! Table III: system parameters for the three MPU configurations.

use experiments::print_table;
use mastodon::{print_stdout, SimConfig};
use pum_backend::DatapathKind;

fn main() {
    let configs = DatapathKind::EVALUATED.map(SimConfig::mpu);
    let keys: Vec<String> = configs[0].table3_rows().iter().map(|(k, _)| k.clone()).collect();
    let rows: Vec<Vec<String>> = keys
        .iter()
        .map(|key| {
            let mut row = vec![key.clone()];
            for cfg in &configs {
                let value = cfg
                    .table3_rows()
                    .into_iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_default();
                row.push(value);
            }
            row
        })
        .collect();
    let labels = configs.each_ref().map(SimConfig::label);
    let headers: Vec<&str> =
        ["parameter"].into_iter().chain(labels.iter().map(String::as_str)).collect();
    print_table("Table III — system parameters", &headers, &rows);
    print_stdout(
        "\nHost CPU (Baseline offload target): 16-core x86 OoO (Xeon Gold 6544Y-class), \
         8 GB DDR3L.\n",
    );
}
