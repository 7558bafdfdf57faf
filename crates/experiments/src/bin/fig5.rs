//! Regenerates the paper's Figure 5.
//! Usage: cargo run -p fhs-experiments --release --bin fig5 -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, fig5};

fn main() {
    figures::run(fig5::figure().default_instances, fig5::report);
}
