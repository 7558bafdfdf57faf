//! # fhs-core — scheduling algorithms for functionally heterogeneous systems
//!
//! The six schedulers evaluated in the paper, implemented against
//! [`fhs_sim::Policy`]:
//!
//! | Policy | Kind | Rule when a type-`α` processor frees up |
//! |---|---|---|
//! | [`KGreedy`] | online | run any `P_α` ready `α`-tasks (FIFO here); §III |
//! | [`LSpan`] | offline | longest remaining span first |
//! | [`MaxDP`] | offline | largest type-blind descendant value first |
//! | [`DType`] | offline | smallest different-child distance first |
//! | [`ShiftBT`] | offline | fixed per-type sequences from iterated single-type EDD relaxations (shifting bottleneck) |
//! | [`Mqb`] | offline | the paper's contribution: pick the ready task whose descendant values best **balance** the per-type queue x-utilizations |
//!
//! MQB additionally supports the paper's §V-G *approximated information*
//! models through [`mqb::InfoModel`]: full-depth vs one-step lookahead and
//! precise vs exponentially-distributed vs noisy descendant estimates.
//!
//! The paper's §VII future-work direction — JIT-compiled tasks that can
//! execute on several resource types — is implemented in [`flex`]:
//! binding algorithms that choose a concrete type per flexible task
//! before ordinary scheduling takes over.
//!
//! ```
//! use fhs_core::{Algorithm, make_policy};
//! use fhs_sim::{metrics, MachineConfig, Mode};
//! use kdag::examples::figure1;
//!
//! let job = figure1();
//! let cfg = MachineConfig::uniform(3, 2);
//! let mut mqb = make_policy(Algorithm::Mqb);
//! let r = metrics::evaluate(&job, &cfg, mqb.as_mut(), Mode::NonPreemptive, 0);
//! assert!(r.ratio >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod ranked;

pub mod dtype;
pub mod edd;
pub mod flex;
pub mod kgreedy;
pub mod lspan;
pub mod maxdp;
pub mod mqb;
pub mod registry;
pub mod shiftbt;

pub use dtype::DType;
pub use edd::Edd;
pub use kgreedy::KGreedy;
pub use lspan::LSpan;
pub use maxdp::MaxDP;
pub use mqb::Mqb;
pub use registry::{make_policy, Algorithm, ALL_ALGORITHMS};
pub use shiftbt::ShiftBT;

// The test support files the suites share: the trace checker and the
// ShiftBT oracle.
#[cfg(test)]
#[path = "../tests/support/shiftbt_reference.rs"]
mod shiftbt_reference;
#[cfg(test)]
#[path = "../../sim/tests/support/trace_check.rs"]
mod trace_check;
