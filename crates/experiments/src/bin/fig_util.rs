//! Regenerates the utilization-observatory figure (per-type utilization
//! balance per policy).
//! Usage: cargo run -p fhs-experiments --release --bin fig_util -- [--instances N] [--seed S] [--csv-dir DIR] [--instrument]

use fhs_experiments::figures::{self, fig_util};

fn main() {
    figures::run(fig_util::figure().default_instances, fig_util::report);
}
