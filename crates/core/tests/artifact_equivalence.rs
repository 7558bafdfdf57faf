//! The analysis bundle must be invisible: a policy's `init` reads its
//! graph analysis from an [`Artifacts`] bundle, and the run must not
//! depend on how that bundle was filled. Three bundles give the same full
//! trace: the fresh lazy bundle `engine::run` builds itself, an eager
//! [`Artifacts::compute`] bundle (as the instance-major sweep
//! `fhs_experiments::runner::run_sweep` shares across its cells), and a
//! lazy bundle another policy's `init` already partly filled (as happens
//! when the cells of one instance fill a bundle in turn).
//!
//! Coverage: all seven fhs-core policies (the paper's six plus EDD) ×
//! both modes × both cadences (completion epochs and `quantum = 1`), plus
//! every §V-G MQB information model (the perturbation RNG must consume
//! the same stream, and perturb the policy's copy, never the shared
//! descendant matrix).
//!
//! ShiftBT's sequencing plan is the one machine-dependent slot of the
//! bundle: a ShiftBT column on a bundle another cadence's ShiftBT already
//! planned must run exactly as on a fresh bundle, two inits racing on one
//! shared bundle must read the same plan, and a bundle must refuse a
//! second machine.
//!
//! A second family pins the rewritten MQB selection loop (cached projected
//! rows + incremental sorted-vector repair) to `NaiveMqb`, a verbatim
//! re-statement of the pre-optimization quadratic selection: recompute and
//! re-sort every untaken candidate's balance vector on every pick. The
//! engine-level `engine_equivalence` suite cannot catch an MQB rewrite bug
//! because both engines share the policy code; this oracle can.

use fhs_core::mqb::{cmp_balance, InfoModel};
use fhs_core::{make_policy, Algorithm, Mqb, ShiftBT};
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, Policy, ReadyTask, RunOptions,
    SelectionStats,
};
use kdag::descendants::DescendantValues;
use kdag::precompute::Artifacts;
use kdag::{KDag, KDagBuilder, TaskId};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Each fhs-core policy, paired with the policy whose `init` pre-fills
/// the lazy bundle it then runs on. The pairs cover a bundle already
/// holding the analysis the policy reads (ShiftBT after EDD, LSpan after
/// ShiftBT), one holding only other analyses, and an untouched one
/// (after KGreedy).
const PREFILLED_BY: [(Algorithm, Algorithm); 7] = [
    (Algorithm::KGreedy, Algorithm::Mqb),
    (Algorithm::LSpan, Algorithm::ShiftBT),
    (Algorithm::DType, Algorithm::MaxDP),
    (Algorithm::MaxDP, Algorithm::DType),
    (Algorithm::ShiftBT, Algorithm::Edd),
    (Algorithm::Mqb, Algorithm::LSpan),
    (Algorithm::Edd, Algorithm::KGreedy),
];

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

/// The three cadences a sweep runs ShiftBT in: `(mode, quantum)`.
const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
];

/// Initializes the wrapped policy from `bundle`, whichever bundle the
/// engine hands it, so a run can read a bundle the test prepared.
struct FromBundle<'a> {
    inner: &'a mut dyn Policy,
    bundle: &'a Artifacts,
}

impl Policy for FromBundle<'_> {
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, _: &Artifacts) {
        self.inner.init(job, config, seed, self.bundle)
    }
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        self.inner.assign(view, out)
    }
    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        self.inner.take_selection_stats()
    }
    fn assign_stable(&self) -> bool {
        self.inner.assign_stable()
    }
}

/// Runs `algo` on the engine's own fresh bundle, on an eager bundle, and
/// on a lazy bundle `prefill`'s `init` already filled, and asserts the
/// strongest observable — the full trace — is identical.
fn assert_bundles_agree(
    dag: &KDag,
    cfg: &MachineConfig,
    algo: Algorithm,
    prefill: Algorithm,
    mode: Mode,
    opts: &RunOptions,
) {
    let fresh = engine::run(dag, cfg, make_policy(algo).as_mut(), mode, opts);
    let eager = Artifacts::compute(dag);
    let prefilled = Artifacts::new();
    make_policy(prefill).init(dag, cfg, opts.seed, &prefilled);
    for (label, bundle) in [("eager", &eager), ("prefilled", &prefilled)] {
        let mut policy = make_policy(algo);
        let mut from = FromBundle {
            inner: policy.as_mut(),
            bundle,
        };
        let out = engine::run(dag, cfg, &mut from, mode, opts);
        let ctx = format!("{} {:?} on the {label} bundle", algo.label(), mode);
        assert_eq!(out.makespan, fresh.makespan, "{ctx}: makespan diverged");
        assert_eq!(out.busy_time, fresh.busy_time, "{ctx}");
        assert_eq!(out.epochs, fresh.epochs, "{ctx}");
        assert_eq!(
            out.trace.expect("requested").segments(),
            fresh.trace.as_ref().expect("requested").segments(),
            "{ctx}: trace diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All seven policies, both modes, default cadence: how the bundle
    /// was filled never shows in the run.
    #[test]
    fn bundle_runs_agree_for_all_seven(
        dag in arb_kdag(3, 20, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = RunOptions::seeded(seed).with_trace();
        for (algo, prefill) in PREFILLED_BY {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                assert_bundles_agree(&dag, &cfg, algo, prefill, mode, &opts);
            }
        }
    }

    /// Same equivalence at the paper's literal per-quantum cadence, where
    /// remaining-work-dependent policies re-decide every time unit.
    #[test]
    fn bundle_runs_agree_per_quantum(
        dag in arb_kdag(3, 14, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = RunOptions { quantum: Some(1), ..RunOptions::seeded(seed).with_trace() };
        for (algo, prefill) in PREFILLED_BY {
            assert_bundles_agree(&dag, &cfg, algo, prefill, Mode::Preemptive, &opts);
        }
    }

    /// Every §V-G information model, on a bundle MQB itself pre-filled:
    /// the perturbed values — and hence the runs — are identical however
    /// the shared descendant matrix got there.
    #[test]
    fn bundle_runs_agree_for_all_info_models(
        dag in arb_kdag(3, 16, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = RunOptions::seeded(seed).with_trace();
        for info in InfoModel::ALL_VARIANTS {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                assert_bundles_agree(
                    &dag, &cfg, Algorithm::MqbWith(info), Algorithm::Mqb, mode, &opts,
                );
            }
        }
    }

    /// ShiftBT in each cadence, on a bundle whose sequence plan ShiftBT in
    /// another cadence already filled, runs exactly as on a fresh bundle.
    #[test]
    fn shiftbt_runs_the_plan_another_cadence_filled(
        dag in arb_kdag(3, 20, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = |quantum| {
            let mut opts = RunOptions::seeded(seed).with_trace();
            opts.quantum = quantum;
            opts
        };
        for (mode, quantum) in CADENCES {
            let fresh = engine::run(&dag, &cfg, &mut ShiftBT::default(), mode, &opts(quantum));
            for (fill_mode, fill_quantum) in CADENCES {
                if (fill_mode, fill_quantum) == (mode, quantum) {
                    continue;
                }
                let bundle = Artifacts::new();
                let run_on_bundle = |mode, quantum| {
                    let mut policy = ShiftBT::default();
                    let mut from = FromBundle { inner: &mut policy, bundle: &bundle };
                    engine::run(&dag, &cfg, &mut from, mode, &opts(quantum))
                };
                run_on_bundle(fill_mode, fill_quantum);
                bundle.sequence_plan(cfg.procs_per_type(), || {
                    panic!("the first ShiftBT init filled the plan")
                });
                let out = run_on_bundle(mode, quantum);
                prop_assert_eq!(out.makespan, fresh.makespan);
                prop_assert_eq!(
                    out.trace.expect("requested").segments(),
                    fresh.trace.as_ref().expect("requested").segments(),
                    "{:?} q={:?} after {:?} q={:?} filled the plan",
                    mode,
                    quantum,
                    fill_mode,
                    fill_quantum
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

/// Two ShiftBT inits racing on one shared bundle (as the sweep's
/// `(instance, column)` dispatch runs an instance's ShiftBT columns side
/// by side) read one plan: the one a lone init computes.
#[test]
fn racing_shiftbt_inits_read_one_plan() {
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
    use std::sync::{Arc, Barrier};

    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4);
    for seed in 0..4 {
        let (job, cfg) = spec.sample(seed);
        let alone = Artifacts::new();
        ShiftBT::default().init(&job, &cfg, seed, &alone);
        let shared = Arc::new(Artifacts::new());
        let start = Barrier::new(2);
        let init = || {
            start.wait();
            ShiftBT::default().init(&job, &cfg, seed, &shared);
        };
        std::thread::scope(|s| {
            let (a, b) = (s.spawn(init), s.spawn(init));
            a.join().expect("init panicked");
            b.join().expect("init panicked");
        });
        let procs = cfg.procs_per_type();
        let shared_plan = shared.sequence_plan(procs, || unreachable!("init stored it"));
        let alone_plan = alone.sequence_plan(procs, || unreachable!("init stored it"));
        assert_eq!(shared_plan, alone_plan, "seed {seed}");
    }
}

/// A bundle's plan belongs to the machine it was computed for.
#[test]
#[should_panic(expected = "serves one machine")]
fn a_planned_bundle_refuses_another_machine() {
    let job = kdag::examples::figure1();
    let bundle = Artifacts::new();
    ShiftBT::default().init(&job, &MachineConfig::uniform(3, 2), 0, &bundle);
    ShiftBT::default().init(&job, &MachineConfig::new(vec![1, 3, 2]), 0, &bundle);
}

/// Handles on one bundle table besides the bundle's own.
type Holders = Arc<dyn Fn() -> usize + Send + Sync>;

/// Records, at every epoch of its run, the [`Holders`] count of the table
/// the wrapped policy ranks by.
struct Probe {
    inner: Box<dyn Policy>,
    holders: Holders,
    seen: Arc<Mutex<Vec<usize>>>,
}

impl Policy for Probe {
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        self.inner.init(job, config, seed, artifacts)
    }
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        self.seen.lock().unwrap().push((self.holders)());
        self.inner.assign(view, out)
    }
    fn detach_job(&mut self) {
        self.inner.detach_job()
    }
}

/// The policies that rank by one bundle table — default-model MQB,
/// MaxDP, DType, ShiftBT and EDD — hold a handle on the bundle's own
/// table, not a copy, for the length of a run, and let go of it when the
/// run returns: on the sweep's evaluation path (which perfbench's traced
/// mode calls directly) and at a session retirement alike. A handle on
/// another allocation would not raise the bundle table's count, so a
/// count of one during the run is `Arc::ptr_eq` with the bundle's table.
/// A noisy MQB perturbs a copy of its own and holds none.
#[test]
fn offline_policies_read_the_bundles_own_tables_for_one_run() {
    use fhs_core::mqb::{Accuracy, Lookahead};
    use fhs_sim::{metrics, Session, SessionOptions, Workspace};
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
    let (job, cfg) = spec.sample(3);
    let job = Arc::new(job);
    let bundle = Arc::new(Artifacts::compute(&job));
    // Plan the bundle, so every table exists before any run.
    ShiftBT::default().init(&job, &cfg, 0, &bundle);
    let procs = cfg.procs_per_type().to_vec();
    // Each count less the bundle's own handle.
    let table = |f: fn(&Artifacts, &KDag, &[usize]) -> usize| -> Holders {
        let (bundle, job, procs) = (Arc::clone(&bundle), Arc::clone(&job), procs.clone());
        Arc::new(move || f(&bundle, &job, &procs) - 1)
    };
    let descendants = table(|a, j, _| Arc::strong_count(a.descendants(j)));
    let noisy = Algorithm::MqbWith(InfoModel {
        lookahead: Lookahead::All,
        accuracy: Accuracy::Noisy,
    });
    let cases = [
        (Algorithm::Mqb, Arc::clone(&descendants), 1),
        (
            Algorithm::MaxDP,
            table(|a, j, _| Arc::strong_count(a.type_blind(j))),
            1,
        ),
        (
            Algorithm::DType,
            table(|a, j, _| Arc::strong_count(a.different_child(j))),
            1,
        ),
        (
            Algorithm::ShiftBT,
            table(|a, _, p| Arc::strong_count(a.sequence_plan(p, || unreachable!("planned")))),
            1,
        ),
        (
            Algorithm::Edd,
            table(|a, j, _| Arc::strong_count(a.spans(j))),
            1,
        ),
        (noisy, descendants, 0),
    ];
    let mut ws = Workspace::new();
    for (algo, holders, during) in cases {
        let label = algo.label();
        let probe = |seen: &Arc<Mutex<Vec<usize>>>| Probe {
            inner: make_policy(algo),
            holders: Arc::clone(&holders),
            seen: Arc::clone(seen),
        };
        let check = |seen: &Mutex<Vec<usize>>, path: &str| {
            let seen = seen.lock().unwrap();
            assert!(!seen.is_empty(), "{label} {path}: no epoch ran");
            assert!(
                seen.iter().all(|&h| h == during),
                "{label} {path}: held {seen:?} handles during the run, want {during}"
            );
            assert_eq!(holders(), 0, "{label} {path}: a table outlived the run");
        };
        // One warm value for both modes, as a pool worker keeps it; it
        // is alive at each check.
        let seen = Arc::default();
        let mut warm = probe(&seen);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            metrics::evaluate_observed_with_artifacts_in(
                &mut ws,
                &job,
                &cfg,
                &mut warm,
                mode,
                &RunOptions::seeded(1),
                &bundle,
            );
            check(&seen, &format!("{mode:?} run"));
        }
        let seen = Arc::default();
        let mut session = Session::new(cfg.clone(), SessionOptions::new(Mode::NonPreemptive));
        session.admit_with_artifacts(Arc::clone(&job), Box::new(probe(&seen)), 1, &bundle);
        session.drain();
        // The retired policy waits, warm, in the session's recycle pool;
        // it is kept alive through the check.
        let retired = session.recycled_policy();
        assert!(retired.is_some(), "{label}: the job did not retire");
        check(&seen, "session");
        drop(retired);
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
    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64, _: &Artifacts) {
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
