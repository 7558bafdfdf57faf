//! # kdag — the K-DAG job model
//!
//! A *K-DAG* (He, Liu, Sun — IPDPS 2011) models the execution of a parallel
//! job on a functionally heterogeneous system with `K` resource types: it is
//! a directed acyclic graph whose tasks each carry a **resource type**
//! `α ∈ {0, …, K-1}` and an integral amount of **work** (execution time in
//! discrete time units). A task may execute only on a processor of the
//! matching type, and becomes ready once all of its parents have completed.
//!
//! This crate provides:
//!
//! * the immutable [`KDag`] graph and its checked [`KDagBuilder`]; a
//!   graph stores each task's children (CSR) and only the *number* of its
//!   parents — there are no parent lists, since every analysis and the
//!   simulator walk edges downward,
//! * topological utilities ([`topo`]),
//! * the job measures from the paper ([`metrics`]): per-type work
//!   `T1(J, α)`, span (critical-path length) `T∞(J)`, and per-task
//!   remaining spans,
//! * the per-type **descendant values** used by the MQB scheduler and the
//!   type-blind variant used by MaxDP ([`descendants`]),
//! * **different-child distances** used by the DType heuristic
//!   ([`distance`]),
//! * **due dates** used by the ShiftBT heuristic ([`duedate`]),
//! * a per-job [`precompute::Artifacts`] bundle running each of the above
//!   on first use, the input of every scheduling policy's
//!   initialization; it stores each table once and hands out the
//!   bundle's own shared handle on it,
//! * Graphviz DOT export ([`dot`]) and the paper's Figure-1 example DAG
//!   ([`examples`]),
//! * flexible (JIT-compilable) tasks with multiple placement options
//!   ([`flex`]) — the paper's §VII extension,
//! * a line-oriented text interchange format ([`text`]).
//!
//! ## Example
//!
//! ```
//! use kdag::{KDagBuilder, metrics};
//!
//! // A two-type fork-join: a CPU task fans out to two GPU tasks that join
//! // into a final CPU task. Types are 0-based indices below `k`.
//! let mut b = KDagBuilder::new(2);
//! let src = b.add_task(0, 3); // type 0, 3 units of work
//! let g1 = b.add_task(1, 5);
//! let g2 = b.add_task(1, 2);
//! let sink = b.add_task(0, 1);
//! b.add_edge(src, g1).unwrap();
//! b.add_edge(src, g2).unwrap();
//! b.add_edge(g1, sink).unwrap();
//! b.add_edge(g2, sink).unwrap();
//! let job = b.build().unwrap();
//!
//! assert_eq!(job.total_work_per_type(), vec![4, 7]);
//! assert_eq!(metrics::span(&job), 3 + 5 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
mod types;

pub mod compose;
pub mod descendants;
pub mod distance;
pub mod dot;
pub mod duedate;
pub mod examples;
pub mod flex;
pub mod metrics;
pub mod precompute;
pub mod profile;
pub mod text;
pub mod topo;

pub use builder::{GraphError, KDagBuilder};
pub use graph::KDag;
pub use precompute::Artifacts;
pub use types::{TaskId, Work};
