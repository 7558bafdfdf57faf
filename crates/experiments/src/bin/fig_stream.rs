//! Regenerates the streaming figure (six policies × three inter-job
//! disciplines under a Poisson job stream over the session engine).
//! Usage: cargo run -p fhs-experiments --release --bin fig_stream -- \
//!     [--instances N] [--seed S] [--csv-dir DIR] [--metrics-out PATH]
//! `--instances` is the number of jobs streamed through each cell;
//! `--metrics-out` writes one versioned JSON line per cell with the
//! per-job response/queueing/slowdown percentiles.

use fhs_experiments::args::{exit_on_err, write_or_exit, CommonArgs};
use fhs_experiments::figures::fig_stream;

fn main() {
    // --metrics-out is a sweep-style sink the shared options do not have.
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let args = CommonArgs::parse_with(
        std::env::args().skip(1),
        fig_stream::DEFAULT_INSTANCES,
        |flag, flags| {
            if flag != "--metrics-out" {
                return Ok(false);
            }
            metrics_out = Some(flags.value(flag)?.into());
            Ok(true)
        },
    );
    let args = exit_on_err(args.map_err(|msg| {
        format!(
            "{msg}\nextra flag: [--metrics-out PATH] writes one metrics-JSONL \
             stream line per cell"
        )
    }));
    let panels = fig_stream::compute(&args);
    if let Some(path) = &metrics_out {
        let body = fig_stream::metrics_jsonl(&args, &panels);
        let detail = format!("{} stream cells", body.lines().count());
        write_or_exit(path, body, "metrics", &detail);
    }
    print!("{}", fig_stream::render(&args, &panels));
}
