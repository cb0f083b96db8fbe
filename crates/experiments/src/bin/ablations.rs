//! `ablations` — the DESIGN §12 design choices with a simulated result,
//! each toggled on RACER (see `experiments::ablations`). The table is
//! pinned by `golden/ablations.txt`.

use mastodon::print_stdout;

fn main() -> Result<(), String> {
    print_stdout(&experiments::ablations()?);
    Ok(())
}
