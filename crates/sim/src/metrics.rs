//! Evaluation helpers: the paper's lower bound and completion-time ratio.

use std::sync::Arc;

use kdag::precompute::Artifacts;
use kdag::KDag;

use crate::config::MachineConfig;
use crate::engine::{run_with, Mode, RunOptions};
use crate::instrument::RunStats;
use crate::policy::Policy;
use crate::workspace::Workspace;
use crate::Time;

/// One policy evaluation on one job instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Measured completion time `T(J)`.
    pub makespan: Time,
    /// The paper's offline lower bound `L(J) = max(T∞, max_α T1_α/P_α)`.
    pub lower_bound: Time,
    /// The headline metric: `T(J) / L(J)` (1.0 for an empty job).
    pub ratio: f64,
}

/// Runs `policy` on `(job, config)` and reports the completion-time ratio
/// against the paper's lower bound. Traces are not recorded.
pub fn evaluate(
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    seed: u64,
) -> EvalResult {
    let opts = RunOptions::seeded(seed);
    evaluate_observed_in(&mut Workspace::new(), job, config, policy, mode, &opts).0
}

/// As [`evaluate`], but with explicit [`RunOptions`], inside a caller-owned
/// [`Workspace`] (engine buffers are reused across calls; the result is
/// bit-identical to a cold evaluation), and also returning the run's engine
/// counters and observability payload
/// ([`SimOutcome::obs`](crate::SimOutcome::obs)) — present when any
/// [`RunOptions::observe`] channel is enabled. The policy and the lower
/// bound read one fresh [`Artifacts`] bundle, so each analysis runs at
/// most once.
pub fn evaluate_observed_in(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
) -> (EvalResult, RunStats, Option<Box<fhs_obs::RunObs>>) {
    evaluate_with(ws, job, config, policy, mode, opts, &Artifacts::new())
}

/// As [`evaluate_observed_in`], with `job`'s [`Artifacts`] bundle shared
/// by the caller — the sweep path, where every cell of an instance reads
/// one bundle. The result is bit-identical to [`evaluate_observed_in`].
#[allow(clippy::too_many_arguments)]
pub fn evaluate_observed_with_artifacts_in(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
    artifacts: &Arc<Artifacts>,
) -> (EvalResult, RunStats, Option<Box<fhs_obs::RunObs>>) {
    evaluate_with(ws, job, config, policy, mode, opts, artifacts)
}

#[allow(clippy::too_many_arguments)]
fn evaluate_with(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
    artifacts: &Artifacts,
) -> (EvalResult, RunStats, Option<Box<fhs_obs::RunObs>>) {
    let out = run_with(ws, job, config, policy, mode, opts, artifacts);
    let lb =
        kdag::metrics::lower_bound_with_span(job, config.procs_per_type(), artifacts.span(job));
    (eval_result(out.makespan, lb), out.stats, out.obs)
}

fn eval_result(makespan: Time, lb: Time) -> EvalResult {
    EvalResult {
        makespan,
        lower_bound: lb,
        ratio: if lb == 0 {
            1.0
        } else {
            makespan as f64 / lb as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FifoPolicy;
    use kdag::KDagBuilder;

    #[test]
    fn ratio_is_one_when_optimal() {
        // 4 unit tasks, 1 type, 2 procs: greedy achieves lb = 2.
        let mut b = KDagBuilder::new(1);
        for _ in 0..4 {
            b.add_task(0, 1);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        let r = evaluate(&job, &cfg, &mut FifoPolicy, Mode::NonPreemptive, 0);
        assert_eq!(r.makespan, 2);
        assert_eq!(r.lower_bound, 2);
        assert_eq!(r.ratio, 1.0);
    }

    #[test]
    fn ratio_is_at_least_one_always() {
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 3);
        let c = b.add_task(1, 2);
        let d = b.add_task(1, 4);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 1]);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let r = evaluate(&job, &cfg, &mut FifoPolicy, mode, 0);
            assert!(r.ratio >= 1.0, "ratio {} < 1 in {mode:?}", r.ratio);
            assert!(r.makespan >= r.lower_bound);
        }
    }

    #[test]
    fn empty_job_ratio_is_one() {
        let job = KDagBuilder::new(1).build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let r = evaluate(&job, &cfg, &mut FifoPolicy, Mode::NonPreemptive, 0);
        assert_eq!(r.ratio, 1.0);
        assert_eq!(r.lower_bound, 0);
    }
}
