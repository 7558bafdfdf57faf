//! Regenerates the Theorem-2 lower-bound experiment (paper Fig. 2 family).
//! Usage: cargo run -p fhs-experiments --release --bin lower_bound -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, lower_bound};

fn main() {
    figures::run(lower_bound::DEFAULT_INSTANCES, lower_bound::report);
}
