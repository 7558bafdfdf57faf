//! Regenerates the paper's Figure 6.
//! Usage: cargo run -p fhs-experiments --release --bin fig6 -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, fig6};

fn main() {
    figures::run(fig6::figure().default_instances, fig6::report);
}
