//! Prometheus-style telemetry primitives.
//!
//! The workspace runs in offline containers with no crates.io access, so
//! this is a hand-rolled, dependency-free implementation of the
//! Prometheus **text exposition format** (version 0.0.4) plus the small
//! pieces a live telemetry service needs around it:
//!
//! * [`Exposition`] — an append-only builder emitting `# HELP`/`# TYPE`
//!   headers once per metric family and counter/gauge/histogram sample
//!   lines. Histograms render the workspace's log-bucketed
//!   [`HistSnapshot`](crate::HistSnapshot)s as cumulative `_bucket`
//!   lines (upper edges from [`bucket_high`](crate::bucket_high)) with
//!   the mandatory `+Inf` bucket, `_sum`, and `_count`.
//! * [`write_atomic`] — tmp-file + rename snapshot publication, so a
//!   concurrent reader (or a crash) never observes a torn file.
//!
//! Everything here is observe-only: building an exposition reads
//! snapshots and never touches engine state.

mod expo;
mod snapshot;

pub use expo::Exposition;
pub use snapshot::{write_atomic, SNAPSHOT_SCHEMA_VERSION};

// The unit tests check every page the builder writes with the test-support
// exposition checker, which fhs-experiments' telemetry tests share.
#[cfg(test)]
#[path = "../../tests/support/exposition_check.rs"]
mod exposition_check;
