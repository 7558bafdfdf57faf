//! The shared-artifact initialization path must be invisible: for every
//! policy, `init_with_artifacts` over a precomputed [`Artifacts`] bundle
//! must leave the policy in **bit-identical** state to a cold `init`, so
//! artifact-cached runs replay cold runs segment for segment. This is the
//! contract that makes the instance-major sweep
//! (`fhs_experiments::runner::run_sweep`) behavior-preserving.
//!
//! Coverage: all six paper schedulers × both modes × both cadences
//! (completion epochs and `quantum = 1`), plus every §V-G MQB information
//! model (the perturbation RNG must consume the same stream regardless of
//! where the descendant matrix came from).
//!
//! A second family pins the rewritten MQB selection loop (cached projected
//! rows + incremental sorted-vector repair) to `NaiveMqb`, a verbatim
//! re-statement of the pre-optimization quadratic selection: recompute and
//! re-sort every untaken candidate's balance vector on every pick. The
//! engine-level `engine_equivalence` suite cannot catch an MQB rewrite bug
//! because both engines share the policy code; this oracle can.

use std::sync::Arc;

use fhs_core::mqb::{cmp_balance, InfoModel};
use fhs_core::{make_policy, Algorithm, Mqb, ALL_ALGORITHMS};
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, Policy, ReadyTask, RunOptions, Workspace,
};
use kdag::descendants::DescendantValues;
use kdag::precompute::Artifacts;
use kdag::{KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

fn arb_kdag(k: usize, max_tasks: usize, max_work: u64) -> impl Strategy<Value = KDag> {
    (1..=max_tasks).prop_flat_map(move |n| {
        let types = proptest::collection::vec(0..k, n);
        let works = proptest::collection::vec(1..=max_work, n);
        let parents = proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=3), n);
        (types, works, parents).prop_map(move |(types, works, parents)| {
            let mut b = KDagBuilder::new(k);
            let ids: Vec<TaskId> = types
                .iter()
                .zip(&works)
                .map(|(&t, &w)| b.add_task(t, w))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (i, ps) in parents.iter().enumerate().skip(1) {
                for &raw in ps {
                    let p = (raw as usize) % i;
                    if seen.insert((p, i)) {
                        b.add_edge(ids[p], ids[i]).unwrap();
                    }
                }
            }
            b.build().expect("forward-edge graphs are acyclic")
        })
    })
}

fn arb_config(k: usize) -> impl Strategy<Value = MachineConfig> {
    proptest::collection::vec(1usize..4, k).prop_map(MachineConfig::new)
}

/// Runs `algo` cold (`engine::run`) and artifact-backed
/// (`engine::run_in_with_artifacts` over a shared bundle) and asserts the
/// strongest observable — the full trace — is identical.
fn assert_artifact_run_matches_cold(
    dag: &KDag,
    cfg: &MachineConfig,
    artifacts: &Arc<Artifacts>,
    algo: Algorithm,
    mode: Mode,
    opts: &RunOptions,
) {
    let cold = engine::run(dag, cfg, make_policy(algo).as_mut(), mode, opts);
    let warm = engine::run_in_with_artifacts(
        &mut Workspace::new(),
        dag,
        cfg,
        make_policy(algo).as_mut(),
        mode,
        opts,
        artifacts,
    );
    assert_eq!(
        warm.makespan,
        cold.makespan,
        "{} {:?}: makespan diverged under artifact init",
        algo.label(),
        mode
    );
    assert_eq!(warm.busy_time, cold.busy_time);
    assert_eq!(warm.epochs, cold.epochs, "{} {:?}", algo.label(), mode);
    let (warm_tr, cold_tr) = (
        warm.trace.expect("requested"),
        cold.trace.expect("requested"),
    );
    assert_eq!(
        warm_tr.segments(),
        cold_tr.segments(),
        "{} {:?}: trace diverged under artifact init",
        algo.label(),
        mode
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All six schedulers, both modes, default cadence: artifact-backed
    /// initialization replays cold initialization bit for bit.
    #[test]
    fn artifact_runs_match_cold_runs_for_all_six(
        dag in arb_kdag(3, 20, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let artifacts = Arc::new(Artifacts::compute(&dag));
        let opts = RunOptions::seeded(seed).with_trace();
        for algo in ALL_ALGORITHMS {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                assert_artifact_run_matches_cold(&dag, &cfg, &artifacts, algo, mode, &opts);
            }
        }
    }

    /// Same equivalence at the paper's literal per-quantum cadence, where
    /// remaining-work-dependent policies re-decide every time unit.
    #[test]
    fn artifact_runs_match_cold_runs_per_quantum(
        dag in arb_kdag(3, 14, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let artifacts = Arc::new(Artifacts::compute(&dag));
        let opts = RunOptions::seeded(seed).with_trace().with_quantum(1);
        for algo in ALL_ALGORITHMS {
            assert_artifact_run_matches_cold(&dag, &cfg, &artifacts, algo, Mode::Preemptive, &opts);
        }
    }

    /// Every §V-G information model: the perturbation RNG must consume the
    /// same stream whether the descendant matrix came cold or from the
    /// bundle, so the perturbed values — and hence the runs — are
    /// identical.
    #[test]
    fn artifact_runs_match_cold_runs_for_all_info_models(
        dag in arb_kdag(3, 16, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let artifacts = Arc::new(Artifacts::compute(&dag));
        let opts = RunOptions::seeded(seed).with_trace();
        for info in InfoModel::ALL_VARIANTS {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                assert_artifact_run_matches_cold(
                    &dag, &cfg, &artifacts, Algorithm::MqbWith(info), mode, &opts,
                );
            }
        }
    }

    /// The optimized MQB selection (cached rows, incremental repair,
    /// change-detection by bit pattern) equals the naive quadratic
    /// selection on the full trace, both modes, both cadences.
    #[test]
    fn fast_mqb_matches_naive_oracle(
        dag in arb_kdag(3, 18, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        for (mode, quantum) in [
            (Mode::NonPreemptive, None),
            (Mode::Preemptive, None),
            (Mode::Preemptive, Some(1)),
        ] {
            let mut opts = RunOptions::seeded(seed).with_trace();
            opts.quantum = quantum;
            let fast = engine::run(&dag, &cfg, &mut Mqb::default(), mode, &opts);
            let naive = engine::run(&dag, &cfg, &mut NaiveMqb::default(), mode, &opts);
            prop_assert_eq!(fast.makespan, naive.makespan, "{:?} q={:?}", mode, quantum);
            prop_assert_eq!(
                fast.trace.expect("requested").segments(),
                naive.trace.expect("requested").segments(),
                "{:?} q={:?}: fast MQB diverged from the naive oracle",
                mode,
                quantum
            );
        }
    }
}

/// The pre-optimization MQB selection, restated verbatim as an oracle:
/// full-lookahead precise descendant values, and a selection loop that
/// recomputes and re-sorts every untaken candidate's projected balance
/// vector on every pick. Deliberately naive — no caching, no repair.
#[derive(Default)]
struct NaiveMqb {
    k: usize,
    d: Vec<f64>,
    d_total: Vec<f64>,
    working: Vec<f64>,
}

impl NaiveMqb {
    fn candidate_balance(&self, alpha: usize, rt: &ReadyTask, procs: &[usize]) -> Vec<f64> {
        let row_start = rt.id.index() * self.k;
        let mut out: Vec<f64> = (0..self.k)
            .map(|beta| {
                let mut l = self.working[beta] + self.d[row_start + beta];
                if beta == alpha {
                    l -= rt.remaining as f64;
                }
                l / procs[beta] as f64
            })
            .collect();
        out.sort_unstable_by(f64::total_cmp);
        out
    }

    fn apply_projection(&mut self, alpha: usize, rt: &ReadyTask) {
        self.working[alpha] -= rt.remaining as f64;
        let row_start = rt.id.index() * self.k;
        for (beta, w) in self.working.iter_mut().enumerate() {
            *w += self.d[row_start + beta];
        }
    }
}

impl Policy for NaiveMqb {
    fn name(&self) -> &str {
        "NaiveMQB"
    }

    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64) {
        self.k = job.num_types();
        self.d = DescendantValues::compute(job).values().to_vec();
        self.d_total = (0..job.num_tasks())
            .map(|i| self.d[i * self.k..(i + 1) * self.k].iter().sum())
            .collect();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let k = self.k;
        let procs = view.config.procs_per_type();
        self.working.clear();
        self.working
            .extend(view.queue_work.iter().map(|&w| w as f64));

        for alpha in 0..k {
            let queue = &view.queues[alpha];
            let slots = view.slots[alpha];
            if slots == 0 || queue.is_empty() {
                continue;
            }
            let mut snap = Vec::new();
            queue.collect_into(&mut snap);
            if snap.len() <= slots {
                for rt in &snap {
                    out.push(alpha, rt.id);
                }
                for rt in snap.clone() {
                    self.apply_projection(alpha, &rt);
                }
                continue;
            }

            let mut taken = vec![false; snap.len()];
            for _ in 0..slots {
                let mut best_qi: Option<usize> = None;
                let mut best: Vec<f64> = Vec::new();
                for (qi, rt) in snap.iter().enumerate() {
                    if taken[qi] {
                        continue;
                    }
                    let cand = self.candidate_balance(alpha, rt, procs);
                    let better = match best_qi {
                        None => true,
                        Some(bqi) => {
                            let brt = &snap[bqi];
                            match cmp_balance(&cand, &best) {
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Less => false,
                                std::cmp::Ordering::Equal => {
                                    let (dt_c, dt_b) =
                                        (self.d_total[rt.id.index()], self.d_total[brt.id.index()]);
                                    match dt_c.total_cmp(&dt_b) {
                                        std::cmp::Ordering::Greater => true,
                                        std::cmp::Ordering::Less => false,
                                        std::cmp::Ordering::Equal => rt.seq < brt.seq,
                                    }
                                }
                            }
                        }
                    };
                    if better {
                        best_qi = Some(qi);
                        best = cand;
                    }
                }
                let bqi = best_qi.expect("queue longer than slots");
                taken[bqi] = true;
                let rt = snap[bqi];
                out.push(alpha, rt.id);
                self.apply_projection(alpha, &rt);
            }
        }
    }
}
