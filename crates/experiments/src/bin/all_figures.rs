//! Regenerates every figure of the paper in one run.
//! Usage: cargo run -p fhs-experiments --release --bin all_figures -- [--instances N] [--seed S] [--csv-dir DIR]
//!
//! With `--instances N` the same count applies to every figure; without
//! it, each figure uses its own default (see the individual binaries).

use fhs_experiments::args::CommonArgs;
use fhs_experiments::figures::{
    fig4, fig5, fig6, fig7, fig8, fig_stream, fig_util, lower_bound, Report,
};

fn main() {
    let figures: [(usize, Report); 8] = [
        (lower_bound::DEFAULT_INSTANCES, lower_bound::report),
        (fig4::figure().default_instances, fig4::report),
        (fig5::figure().default_instances, fig5::report),
        (fig6::figure().default_instances, fig6::report),
        (fig7::figure().default_instances, fig7::report),
        (fig8::figure().default_instances, fig8::report),
        (fig_util::figure().default_instances, fig_util::report),
        (fig_stream::DEFAULT_INSTANCES, fig_stream::report),
    ];
    let t0 = std::time::Instant::now();
    for (i, (default_instances, report)) in figures.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        // Parsed once per figure, so an absent `--instances` takes that
        // figure's own default.
        print!("{}", report(&CommonArgs::from_env(default_instances)));
    }
    println!("\n(total wall time: {:.1?})", t0.elapsed());
}
