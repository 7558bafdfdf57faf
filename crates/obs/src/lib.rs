//! `fhs-obs` — the observability layer of the FHS reproduction.
//!
//! The paper's thesis is *utilization balancing*: MQB wins because it
//! keeps per-type utilizations even. This crate provides the
//! instruments to actually see that happen:
//!
//! * [`UtilTimeline`] / [`UtilizationReport`] — per-type busy-processor
//!   timelines recorded live from the engine's epoch loop (RLE
//!   compressed), with derived utilization, idle-time decomposition
//!   (`busy + idle_active + idle_tail = P_α × makespan`), time-to-drain
//!   and cross-type imbalance indices (max−min, CoV); built from a
//!   trace's intervals, the same timeline gives the interleaving index
//!   and text sparklines of `fhs schedule --timeline`.
//! * [`LogHist`] / [`HistSnapshot`] — HDR-style log-bucketed histograms
//!   (fixed-size arrays, allocation-free recording, exact merging) for
//!   assign latency, epoch duration and ready-queue depth across pool
//!   workers.
//! * [`Event`] / [`EventBuf`] / [`TraceCell`] — a bounded structured
//!   event trace with Chrome-trace/Perfetto ([`chrome_trace_json`]) and
//!   JSONL ([`events_jsonl`]) exporters.
//! * [`Recorder`] / [`ObsConfig`] / [`RunObs`] — the per-run façade the
//!   simulator `Workspace` owns. Every channel is individually gated
//!   and off by default; recording is observe-only and allocation-free
//!   in the warm epoch loop (storage is sized in
//!   [`Recorder::begin_run`]).
//! * [`telemetry`] — a hand-rolled Prometheus text-format
//!   [`Exposition`] builder (with a structural [`validate`]r) plus
//!   atomic tmp+rename snapshot publication ([`write_atomic`]), the
//!   substrate of the live telemetry service in `fhs-experiments`.
//!
//! The crate deliberately has **zero dependencies** — it sits *below*
//! `fhs-sim` in the dependency graph and speaks plain integers, so the
//! simulator can own a recorder without a dependency cycle. JSON is
//! hand-rolled (see [`json`]) because the build environment has no
//! crates.io access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod hist;
pub mod jobs;
pub mod json;
pub mod recorder;
pub mod telemetry;
pub mod timeline;

pub use events::{chrome_trace_json, events_jsonl, Event, EventBuf, EventKind, TraceCell, NONE};
pub use hist::{bucket_high, bucket_index, HistSnapshot, LogHist, BUCKETS};
pub use jobs::{JobRecord, StreamStats};
pub use recorder::{ObsConfig, Recorder, RunObs};
pub use telemetry::{validate, write_atomic, Exposition, SNAPSHOT_SCHEMA_VERSION};
pub use timeline::{TypeUtilization, UtilSummary, UtilTimeline, UtilizationReport};
