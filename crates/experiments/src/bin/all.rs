//! Regenerates every table and figure in sequence (the full artifact run).

use mastodon::print_stdout;
use std::process::Command;

fn main() {
    // Forward our own flags (e.g. `--jobs N`) to every child binary.
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = [
        "table1", "table3", "fig01", "fig05", "fig11", "fig12", "fig13", "fig14", "fig15", "table4",
    ];
    for artifact in artifacts {
        print_stdout(&format!("\n########## {artifact} ##########\n"));
        let status =
            Command::new(std::env::current_exe().expect("self path").with_file_name(artifact))
                .args(&forwarded)
                .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{artifact} exited with {s}"),
            Err(e) => eprintln!("failed to launch {artifact}: {e} (run `cargo run -p experiments --bin {artifact}`)"),
        }
    }
}
