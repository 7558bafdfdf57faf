//! Streaming (multi-job) experiment harness on top of the session engine.
//!
//! The figure grids evaluate policies one job at a time — sample an
//! instance, run it on an empty machine, take the completion-time ratio.
//! A deployed scheduler never sees an empty machine: jobs arrive while
//! others are still draining, and the interesting quantities become
//! per-job **response time** (finish − arrival), **slowdown** (response
//! over the job's isolated lower bound), and sustained **throughput**.
//!
//! [`run_stream`] drives one [`Session`] per
//! `(algorithm, cadence, inter-job policy)` cell: the machine is sampled
//! once from the spec, jobs are admitted at the times of a seeded
//! [`ArrivalPlan`] (Poisson or random-order), policy values and job
//! runtimes are recycled through the session's spare pools, and the
//! outcome carries the retired-job records plus mergeable
//! response/queueing/slowdown histograms. Everything is deterministic in
//! the [`StreamConfig`] seed, so streams replay bit for bit.
//!
//! The session's epoch loop calls nothing observe-only. A caller that
//! wants a live view of a stream steps the [`Session`] with
//! [`Session::run_until`] and reads it between steps, as `sweep`
//! publishes its snapshots between chunks.

use std::sync::Arc;

use fhs_core::{make_policy, Algorithm};
use fhs_obs::{JobRecord, StreamStats};
use fhs_sim::{InterJobPolicy, Mode, RunStats, Session, SessionOptions};
use fhs_workloads::{ArrivalPlan, WorkloadSpec};

use crate::stats::Summary;

/// How jobs arrive (both processes from `fhs_workloads::arrivals`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Memoryless arrivals with the given mean inter-arrival gap.
    Poisson {
        /// Mean of the exponential inter-arrival gap, in time units.
        mean_gap: f64,
    },
    /// Random-order model: a fixed job set arrives as a seeded random
    /// permutation at a fixed cadence.
    RandomOrder {
        /// Fixed gap between consecutive arrivals, in time units.
        gap: u64,
    },
}

/// One streaming experiment: which jobs, when they arrive, from what seed.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Workload family the per-arrival instances are sampled from; the
    /// session machine is the spec's configuration sampled at `seed`.
    pub spec: WorkloadSpec,
    /// Number of jobs in the stream.
    pub jobs: usize,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Base seed: derives the machine, the arrival times, and (offset by
    /// job index) every instance seed.
    pub seed: u64,
}

impl StreamConfig {
    /// The seed feeding `WorkloadSpec::sample` for job index 0; job `i`
    /// uses `job_seed_base() + i`. Offset from the base seed so instance
    /// sampling never aliases the machine/arrival draws.
    fn job_seed_base(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }

    /// Materializes the arrival schedule.
    pub fn plan(&self) -> ArrivalPlan {
        match self.arrivals {
            Arrivals::Poisson { mean_gap } => {
                ArrivalPlan::poisson(self.jobs, mean_gap, self.seed, self.job_seed_base())
            }
            Arrivals::RandomOrder { gap } => {
                ArrivalPlan::random_order(self.jobs, gap, self.seed, self.job_seed_base())
            }
        }
    }
}

/// One `(algorithm, cadence, inter-job policy)` cell of a streaming grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamCell {
    /// The intra-job scheduling policy.
    pub algo: Algorithm,
    /// Execution mode.
    pub mode: Mode,
    /// Preemption cadence (`None` = event-driven).
    pub quantum: Option<u64>,
    /// The inter-job discipline ordering concurrent jobs.
    pub inter: InterJobPolicy,
}

impl StreamCell {
    /// A non-preemptive cell with the given inter-job discipline.
    pub fn new(algo: Algorithm, inter: InterJobPolicy) -> Self {
        StreamCell {
            algo,
            mode: Mode::NonPreemptive,
            quantum: None,
            inter,
        }
    }
}

/// Outcome of one streamed session.
#[derive(Clone, Debug)]
pub struct StreamResult {
    /// The cell that produced this result.
    pub cell: StreamCell,
    /// Session makespan (last retirement).
    pub makespan: u64,
    /// Per-job records in retirement order.
    pub jobs: Vec<JobRecord>,
    /// Mergeable response/queueing/slowdown histograms.
    pub stream: StreamStats,
    /// Engine counters accumulated over the whole session.
    pub stats: RunStats,
}

impl StreamResult {
    /// Sustained throughput in jobs per 1000 simulated time units.
    pub fn throughput(&self) -> f64 {
        self.stream.jobs_per_kilotime(self.makespan)
    }

    /// Summary over per-job response times.
    pub fn response_summary(&self) -> Summary {
        let xs: Vec<f64> = self.jobs.iter().map(|j| j.response() as f64).collect();
        Summary::from_samples(&xs)
    }

    /// Summary over per-job slowdowns (response over isolated lower
    /// bound; ≥ 1 by construction).
    pub fn slowdown_summary(&self) -> Summary {
        let xs: Vec<f64> = self.jobs.iter().map(|j| j.slowdown()).collect();
        Summary::from_samples(&xs)
    }
}

/// Runs one stream through one session and returns the per-job metrics.
///
/// Every job is admitted the same way: the session builds its analysis
/// bundle at admission, as an online-arrival system would, and computes
/// only the analysis the cell's policy reads. Policy values and job
/// runtimes are recycled across retirements — the steady-state path the
/// session engine exists for.
pub fn run_stream(config: &StreamConfig, cell: &StreamCell) -> StreamResult {
    let machine = config.spec.sample_machine(config.seed);
    let mut opts = SessionOptions::new(cell.mode).with_inter(cell.inter);
    opts.quantum = cell.quantum;
    let mut session = Session::new(machine, opts);
    for arrival in config.plan().arrivals() {
        session.run_until(arrival.t);
        let (job, _) = config.spec.sample(arrival.seed);
        let policy = session
            .recycled_policy()
            .unwrap_or_else(|| make_policy(cell.algo));
        session.admit(Arc::new(job), policy, arrival.seed);
    }
    let (out, _) = session.finish();
    StreamResult {
        cell: *cell,
        makespan: out.makespan,
        jobs: out.jobs,
        stream: out.stream,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_core::ALL_ALGORITHMS;
    use fhs_sim::ALL_INTER_JOB_POLICIES;
    use fhs_workloads::{resources::SystemSize, Family, Typing};

    fn tiny() -> StreamConfig {
        StreamConfig {
            spec: WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4),
            jobs: 8,
            arrivals: Arrivals::Poisson { mean_gap: 6.0 },
            seed: 17,
        }
    }

    #[test]
    fn every_cell_retires_every_job_and_replays_exactly() {
        let cfg = tiny();
        for algo in ALL_ALGORITHMS {
            for inter in ALL_INTER_JOB_POLICIES {
                let cell = StreamCell::new(algo, inter);
                let a = run_stream(&cfg, &cell);
                assert_eq!(a.jobs.len(), cfg.jobs, "{} {:?}", algo.label(), inter);
                assert_eq!(a.stream.completed, cfg.jobs as u64);
                assert!(a.throughput() > 0.0);
                for j in &a.jobs {
                    assert!(j.response() >= 1, "{}: empty response", algo.label());
                    assert!(j.slowdown() >= 1.0);
                }
                let b = run_stream(&cfg, &cell);
                let fa: Vec<(u64, u64)> = a.jobs.iter().map(|j| (j.id, j.finish)).collect();
                let fb: Vec<(u64, u64)> = b.jobs.iter().map(|j| (j.id, j.finish)).collect();
                assert_eq!(fa, fb, "{} {:?}: replay diverged", algo.label(), inter);
            }
        }
    }

    #[test]
    fn random_order_streams_run_the_same_job_set_in_a_different_order() {
        let mut cfg = tiny();
        cfg.arrivals = Arrivals::RandomOrder { gap: 4 };
        let cell = StreamCell::new(Algorithm::Mqb, InterJobPolicy::Fifo);
        let a = run_stream(&cfg, &cell);
        assert_eq!(a.jobs.len(), cfg.jobs);
        // Same fixed set (identified by total work) as a second seed's
        // permutation — only the order (and thus contention) differs.
        let mut cfg2 = cfg.clone();
        cfg2.seed = cfg.seed; // same set by construction
        let b = run_stream(&cfg2, &cell);
        let mut wa: Vec<u64> = a.jobs.iter().map(|j| j.work).collect();
        let mut wb: Vec<u64> = b.jobs.iter().map(|j| j.work).collect();
        wa.sort_unstable();
        wb.sort_unstable();
        assert_eq!(wa, wb);
    }

    #[test]
    fn summaries_cover_all_jobs() {
        let cfg = tiny();
        let r = run_stream(
            &cfg,
            &StreamCell::new(Algorithm::KGreedy, InterJobPolicy::Fifo),
        );
        assert_eq!(r.response_summary().n, cfg.jobs);
        let s = r.slowdown_summary();
        assert_eq!(s.n, cfg.jobs);
        assert!(s.min >= 1.0);
    }

    #[test]
    fn contention_rises_as_the_gap_shrinks() {
        // Mean response under a saturating stream (gap 1) must be at
        // least that of a near-isolated stream (gap 200) — queueing can
        // only add time. (Weak inequality: tiny streams can tie.)
        let cell = StreamCell::new(Algorithm::Mqb, InterJobPolicy::Fifo);
        let mut slow = tiny();
        slow.arrivals = Arrivals::Poisson { mean_gap: 200.0 };
        let mut fast = tiny();
        fast.arrivals = Arrivals::Poisson { mean_gap: 1.0 };
        let r_slow = run_stream(&slow, &cell);
        let r_fast = run_stream(&fast, &cell);
        assert!(
            r_fast.response_summary().mean >= r_slow.response_summary().mean,
            "contended mean response {} < isolated {}",
            r_fast.response_summary().mean,
            r_slow.response_summary().mean
        );
    }
}
