//! # fhs-experiments — the paper's evaluation, regenerated
//!
//! One module (and one binary) per figure of the paper's §V. The sweep
//! figures are data — a [`figures::Figure`] of panel workloads × labeled
//! cells — run and rendered by one driver in [`figures`]:
//!
//! | Module | Paper figure | Content |
//! |---|---|---|
//! | [`figures::fig4`] | Fig. 4 (a–f) | six algorithms × six workloads, average completion-time ratio |
//! | [`figures::fig5`] | Fig. 5 (a–c) | ratio as the number of resource types K grows 1→6 |
//! | [`figures::fig6`] | Fig. 6 (a–b) | skewed load (type 1's pool ÷ 5) |
//! | [`figures::fig7`] | Fig. 7 (a–c) | non-preemptive vs preemptive |
//! | [`figures::fig8`] | Fig. 8 (a–c) | MQB under partial / imprecise information |
//! | [`figures::fig_util`] | — | per-type utilization balance per policy |
//! | [`figures::flex_binding`] | §VII | JIT type binding for flexible jobs |
//! | [`figures::fig_stream`] | — | the six policies under a Poisson job stream |
//! | [`figures::lower_bound`] | Thm. 2 / Fig. 2 | adversarial family: measured KGreedy vs the online lower bound |
//!
//! Every cell aggregates `--instances` independent job instances (the
//! paper uses 5000; binaries default lower for wall-clock sanity and take
//! `--instances 5000` for full parity). All randomness is derived from
//! `--seed`, so tables reproduce exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod chart;
pub mod figures;
pub mod obsout;
pub mod runner;
pub mod shard;
pub mod stats;
pub mod stream;
pub mod table;
pub mod telemetry;

pub use runner::{
    run_sweep, run_sweep_observed, run_sweep_rows, CellObs, InstanceRuns, SweepCell,
    SweepCellResult,
};
pub use shard::{
    capture_util_addends, merge_shards, shard_fragment, ShardMeta, SHARD_SCHEMA_VERSION,
};
pub use stats::Summary;
pub use stream::{run_stream, Arrivals, StreamCell, StreamConfig, StreamResult};
pub use telemetry::MetricsServer;
