//! Regenerates the paper's Figure 8.
//! Usage: cargo run -p fhs-experiments --release --bin fig8 -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, fig8};

fn main() {
    figures::run(fig8::figure().default_instances, fig8::report);
}
