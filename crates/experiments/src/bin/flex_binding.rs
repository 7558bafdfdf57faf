//! Runs the §VII extension experiment: JIT type-binding policies.
//! Usage: cargo run -p fhs-experiments --release --bin flex_binding -- [--instances N] [--seed S] [--csv-dir DIR]

use fhs_experiments::figures::{self, flex_binding};

fn main() {
    figures::run(flex_binding::DEFAULT_INSTANCES, flex_binding::report);
}
