//! # fhs-sim — discrete-time simulator for functionally heterogeneous systems
//!
//! Reimplements (in Rust) the discrete-time simulator the paper built in C#
//! (§V-A): `K` typed processor pools execute the tasks of a
//! [`kdag::KDag`]; a task of type `α` may only run on one of the `P_α`
//! processors of type `α`, and becomes *ready* once all its parents have
//! completed.
//!
//! A single unified epoch/event loop ([`engine::run`]) serves both
//! execution modes:
//!
//! * **Non-preemptive** ([`Mode::NonPreemptive`]): tasks are placed when a
//!   processor is idle and run to completion; the clock jumps between
//!   completion events.
//! * **Preemptive** ([`Mode::Preemptive`]): conceptually the scheduler
//!   re-decides the full processor assignment at every unit quantum; a task
//!   may be paused and later resumed on a different processor. By default
//!   the engine re-decides at completion events and advances the clock in
//!   between — exactly equivalent to per-quantum re-decisions for policies
//!   whose choices don't depend on candidates' *remaining* work (FIFO,
//!   DType, MaxDP, ShiftBT; property-tested), and a coarser preemption
//!   cadence for those that do (LSpan, MQB). Pass
//!   [`RunOptions::with_quantum`]`(1)` for the paper's literal per-quantum
//!   scheduler.
//!
//! The run state keeps its candidates in indexed, arrival-ordered
//! [`ready_queue::ReadyQueue`]s: a dense task→slot position map plus
//! tombstoned removal makes every state transition O(1) amortized while
//! policies still observe exact FIFO (seq) order. The pre-indexed
//! linear-scan engines survive unchanged in [`mod@reference`] as a
//! property-test oracle and benchmark baseline, and every run collects an
//! [`instrument::RunStats`] (epochs, policy wall time, transition counts,
//! peak queue depth) on [`SimOutcome`].
//!
//! Scheduling behaviour is supplied through the [`Policy`] trait; the six
//! algorithms of the paper live in the `fhs-core` crate. The engines
//! optionally record a full [`trace::Trace`] which can be validated against
//! the model's rules ([`trace::validate`]) and rendered as an ASCII Gantt
//! chart ([`gantt`]). Per-type utilization timelines are `fhs-obs`'s
//! [`UtilTimeline`]: the engine records one live when asked
//! ([`ObsConfig::utilization`]), and [`UtilTimeline::from_intervals`]
//! builds one from a trace's segments for the interleaving index and
//! sparklines.
//!
//! Beyond one job at a time: the [`session`] module hosts the **session
//! engine** — a persistent [`Session`] that admits seeded jobs from a
//! continuous arrival stream, schedules them all on the shared machine
//! (with an [`InterJobPolicy`] ordering jobs within each epoch), and
//! retires them as they drain, recording per-job response time, queueing
//! delay and slowdown. [`engine::run`] itself executes as a one-job
//! session over the same loop, bit-identical to the historical
//! single-job engine.
//!
//! ```
//! use kdag::KDagBuilder;
//! use fhs_sim::{engine, MachineConfig, Mode, RunOptions};
//! use fhs_sim::policy::FifoPolicy;
//!
//! let mut b = KDagBuilder::new(2);
//! let u = b.add_task(0, 2);
//! let v = b.add_task(1, 3);
//! b.add_edge(u, v).unwrap();
//! let job = b.build().unwrap();
//!
//! let cfg = MachineConfig::uniform(2, 1); // one processor of each type
//! let mut policy = FifoPolicy::default();
//! let out = engine::run(&job, &cfg, &mut policy, Mode::NonPreemptive,
//!                       &RunOptions::default());
//! assert_eq!(out.makespan, 5); // the two tasks form a chain
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod config;

pub mod engine;
pub mod gantt;
pub mod instrument;
pub mod metrics;
pub mod policy;
pub mod ready_queue;
pub mod reference;
pub mod session;
pub mod state;
pub mod svg;
pub mod trace;
pub mod workspace;

pub use config::MachineConfig;
pub use engine::{Mode, RunOptions, SimOutcome};
// The observability layer (utilization timelines, histograms, event
// trace) lives in the dependency-free `fhs-obs` crate; re-export the
// handles engine callers need.
pub use fhs_obs::{HistSnapshot, ObsConfig, RunObs, UtilSummary, UtilTimeline, UtilizationReport};
pub use instrument::{RunStats, SelectionStats, TransitionCounts};
pub use policy::{Assignments, EpochView, Policy, ReadyTask};
pub use ready_queue::{QueueEvent, ReadyQueue};
pub use session::{
    InterJobPolicy, JobId, Session, SessionOptions, SessionOutcome, ALL_INTER_JOB_POLICIES,
};
pub use workspace::Workspace;

/// Simulator clock value, in discrete time units.
pub type Time = u64;
