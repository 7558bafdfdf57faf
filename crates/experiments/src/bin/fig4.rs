//! Regenerates the paper's Figure 4.
//! Usage: cargo run -p fhs-experiments --release --bin fig4 -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, fig4};

fn main() {
    figures::run(fig4::figure().default_instances, fig4::report);
}
