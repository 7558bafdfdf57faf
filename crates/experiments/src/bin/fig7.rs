//! Regenerates the paper's Figure 7.
//! Usage: cargo run -p fhs-experiments --release --bin fig7 -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, fig7};

fn main() {
    figures::run(fig7::figure().default_instances, fig7::report);
}
