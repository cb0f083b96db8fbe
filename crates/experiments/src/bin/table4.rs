//! Table IV: end-to-end application execution steps on the MPU, with the
//! lines-of-code comparison between hand-written MPU assembly (our lowered
//! ISA instruction count) and ezpim source statements.

use experiments::{parse_jobs, print_table, SEED};
use mastodon::{print_stdout, SimConfig};
use pum_backend::DatapathKind;
use workloads::apps::all_apps;
use workloads::{effective_jobs, parallel_map};

fn main() {
    let cfg = SimConfig::mpu(DatapathKind::Racer);
    let apps = all_apps();
    let rows: Vec<Vec<String>> =
        parallel_map(apps.iter().collect(), effective_jobs(parse_jobs()), |app| {
            let t4 = app.table4();
            let built = app.build(&cfg, app.default_mpus(), SEED);
            vec![
                t4.name.to_string(),
                t4.compute_steps.to_string(),
                t4.collectives.to_string(),
                format!("{} (paper {})", app.default_mpus(), t4.paper_mpus),
                built.isa_instructions.to_string(),
                built.ezpim_statements.to_string(),
            ]
        });
    print_table(
        "Table IV — end-to-end applications",
        &[
            "application",
            "compute steps",
            "collective commun.",
            "MPUs",
            "LoC baseline (ISA)",
            "LoC ezpim",
        ],
        &rows,
    );
    print_stdout(
        "\nPaper reference LoC (baseline -> ezpim): LLMEncode 15290 -> 1160, \
         BlackScholes 1059 -> 383, EditDistance 5428 -> 120.\n",
    );
}
