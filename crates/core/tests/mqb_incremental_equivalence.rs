//! The incremental, index-pruned MQB selection (PR 7) must be **invisible**:
//! a change-journal replayed into a dominance-frontier index, with picks
//! served off frontier heads, has to reproduce the flat full-scan selection
//! bit for bit — same winners, same traces — for every §V-G information
//! model, both modes, both preemption cadences, and across multi-job
//! session shapes where queues churn between a policy's epochs.
//!
//! The oracle is `NaiveMqb`: the pre-optimization quadratic selection
//! restated verbatim (recompute and re-sort every untaken candidate's
//! balance vector on every pick), here generalized over information models
//! by borrowing the perturbed descendant matrix from a real `Mqb` init —
//! so both sides consume the identical RNG stream and the comparison pins
//! *selection*, not initialization.
//!
//! The wide-instance tests drive queues past the flat/indexed crossover
//! and assert — via the new selection counters — that the indexed path
//! actually engaged (candidates were pruned) while the trace stayed
//! identical. Without that assertion a regression that quietly routed
//! everything to the flat path would vacuously pass.
//!
//! MQB-Approx reads its per-round window off a journal-fed candidate
//! order; its oracle is the same naive selection restricted to the
//! snapshot window — the queue ranked by total descendant value, then
//! arrival, each pick scanning the first `cap` untaken candidates — with
//! the evaluated/pruned counters recomputed from that scan.

use std::sync::Arc;

use fhs_core::mqb::{cmp_balance, InfoModel, Mqb, MqbTuning};
use fhs_core::registry::DEFAULT_APPROX_CAP;
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, Policy, ReadyTask, RunOptions,
    SelectionStats, Session, SessionOptions,
};
use fhs_workloads::adversarial::antichain;
use kdag::{Artifacts, KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
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

/// Wide random K-DAGs: 400–700 tasks, about two thirds of them roots (a
/// non-root draws one to three earlier parents). The initial ready queues
/// sit far above the flat/indexed crossover (64), so — unlike the small
/// DAGs above — every run drives the dominance index, over random rows
/// rather than `wide_instance`'s fixed pattern.
fn arb_wide_kdag(k: usize, max_work: u64) -> impl Strategy<Value = KDag> {
    (400usize..=700).prop_flat_map(move |n| {
        let types = proptest::collection::vec(0..k, n);
        let works = proptest::collection::vec(1..=max_work, n);
        let parents =
            proptest::collection::vec((0u8..3, proptest::collection::vec(any::<u32>(), 1..=3)), n);
        (types, works, parents).prop_map(move |(types, works, parents)| {
            let mut b = KDagBuilder::new(k);
            let ids: Vec<TaskId> = types
                .iter()
                .zip(&works)
                .map(|(&t, &w)| b.add_task(t, w))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (i, (root_draw, ps)) in parents.iter().enumerate().skip(1) {
                if *root_draw != 0 {
                    continue;
                }
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

/// A deterministic two-type instance whose type-0 ready queue starts far
/// above the flat/indexed crossover (64), with a second wave of type-1
/// tasks released as their parents finish — so the index sees inserts,
/// removals and (per-quantum) remaining-work updates mid-run.
fn wide_instance(n0: usize, n1: usize) -> (KDag, MachineConfig) {
    let mut b = KDagBuilder::new(2);
    let mut roots = Vec::with_capacity(n0);
    for i in 0..n0 {
        roots.push(b.add_task(0, 1 + (i as u64 * 7 + 3) % 5));
    }
    for i in 0..n1 {
        let t = b.add_task(1, 1 + (i as u64 * 5 + 1) % 4);
        let p1 = i % n0;
        let p2 = (i * 3 + 1) % n0;
        b.add_edge(roots[p1], t).unwrap();
        if p2 != p1 {
            b.add_edge(roots[p2], t).unwrap();
        }
    }
    (b.build().unwrap(), MachineConfig::new(vec![2, 2]))
}

/// Queues that stay at or below the crossover (64) at first and later
/// widen past it: 40 type-0 and 20 type-1 roots give contested flat rounds
/// while the index only tracks membership, and an eight-task chain beside
/// them releases a 200-wide type-0 fan-out (90 type-1 grandchildren
/// behind it), so a later round places the deferred groups mid-run.
fn chain_fanout_instance() -> (KDag, MachineConfig) {
    let mut b = KDagBuilder::new(2);
    for i in 0..60u64 {
        b.add_task(usize::from(i >= 40), 1 + (i * 7 + 3) % 5);
    }
    let mut prev = b.add_task(0, 2);
    for i in 1..8u64 {
        let t = b.add_task((i % 2) as usize, 1 + i % 3);
        b.add_edge(prev, t).unwrap();
        prev = t;
    }
    let fan: Vec<TaskId> = (0..200u64)
        .map(|i| {
            let t = b.add_task(0, 1 + (i * 7 + 3) % 5);
            b.add_edge(prev, t).unwrap();
            t
        })
        .collect();
    for i in 0..90usize {
        let t = b.add_task(1, 1 + (i as u64 * 5 + 1) % 4);
        let (p1, p2) = (i % 200, (i * 3 + 1) % 200);
        b.add_edge(fan[p1], t).unwrap();
        if p2 != p1 {
            b.add_edge(fan[p2], t).unwrap();
        }
    }
    (b.build().unwrap(), MachineConfig::new(vec![2, 2]))
}

fn run_pair(
    dag: &KDag,
    cfg: &MachineConfig,
    fast: &mut Mqb,
    naive: &mut NaiveMqb,
    mode: Mode,
    quantum: Option<u64>,
    seed: u64,
) -> engine::SimOutcome {
    let mut opts = RunOptions::seeded(seed).with_trace();
    opts.quantum = quantum;
    let f = engine::run(dag, cfg, fast, mode, &opts);
    let n = engine::run(dag, cfg, naive, mode, &opts);
    assert_eq!(
        f.makespan, n.makespan,
        "{mode:?} q={quantum:?}: makespan diverged from the naive oracle"
    );
    assert_eq!(
        f.trace.as_ref().expect("requested").segments(),
        n.trace.as_ref().expect("requested").segments(),
        "{mode:?} q={quantum:?}: trace diverged from the naive oracle"
    );
    f
}

fn approx() -> Mqb {
    Mqb::with_tuning(
        InfoModel::default(),
        MqbTuning {
            max_candidates: Some(DEFAULT_APPROX_CAP),
        },
    )
}

/// MQB-Approx against the snapshot-window oracle: identical traces, and
/// identical evaluated and pruned counts. Returns MQB-Approx's counters.
fn run_approx_pair(
    dag: &KDag,
    cfg: &MachineConfig,
    mode: Mode,
    quantum: Option<u64>,
    seed: u64,
) -> SelectionStats {
    let mut naive = NaiveMqb::approx(DEFAULT_APPROX_CAP);
    let out = run_pair(dag, cfg, &mut approx(), &mut naive, mode, quantum, seed);
    let (fast, oracle) = (out.stats.selection, naive.sel);
    assert_eq!(
        (fast.candidates_evaluated, fast.candidates_pruned),
        (oracle.candidates_evaluated, oracle.candidates_pruned),
        "{mode:?} q={quantum:?}: MQB-Approx (evaluated, pruned) diverged from the \
         snapshot-window oracle"
    );
    fast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All six §V-G information models × three cadences: the incremental
    /// journal-synced selection equals the naive quadratic oracle on the
    /// full trace. The oracle borrows the perturbed matrix from an `Mqb`
    /// init, so any divergence is a selection bug, not an init skew.
    #[test]
    fn incremental_mqb_matches_naive_oracle_all_info_models(
        dag in arb_kdag(3, 18, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        for info in InfoModel::ALL_VARIANTS {
            for (mode, quantum) in CADENCES {
                run_pair(
                    &dag, &cfg,
                    &mut Mqb::new(info),
                    &mut NaiveMqb::new(info, true),
                    mode, quantum, seed,
                );
            }
        }
    }

    /// Multi-job sessions with staggered admissions and shuffled job
    /// shapes, exact and bounded: every job's retirement record (finish
    /// time, first start) and the session's busy-time vector match a
    /// session of naive oracles. Between a policy's epochs other jobs'
    /// picks interleave, so this pins the journal-cursor bookkeeping under
    /// queue churn the single-job engine never produces.
    #[test]
    fn shuffled_session_shapes_match_naive_oracle(
        (cfg, jobs) in (
            arb_config(3),
            proptest::collection::vec((arb_kdag(3, 14, 4), 0u64..1000), 2..=4),
        ),
        gap in 0u64..6,
    ) {
        for ((mode, quantum), bounded) in CADENCES.into_iter().flat_map(|c| [(c, false), (c, true)]) {
            let run_with = |naive: bool| {
                let mut opts = SessionOptions::new(mode);
                opts.quantum = quantum;
                let mut s = Session::new(cfg.clone(), opts);
                for (i, (dag, seed)) in jobs.iter().enumerate() {
                    s.run_until(i as u64 * gap);
                    let policy: Box<dyn Policy> = match (naive, bounded) {
                        (true, false) => Box::new(NaiveMqb::new(InfoModel::default(), true)),
                        (true, true) => Box::new(NaiveMqb::approx(DEFAULT_APPROX_CAP)),
                        (false, false) => Box::new(Mqb::default()),
                        (false, true) => Box::new(approx()),
                    };
                    s.admit(Arc::new(dag.clone()), policy, *seed);
                }
                let (out, _) = s.finish();
                out
            };
            let fast = run_with(false);
            let naive = run_with(true);
            prop_assert_eq!(fast.makespan, naive.makespan,
                "{:?} q={:?}: session makespan diverged", mode, quantum);
            prop_assert_eq!(&fast.busy_time, &naive.busy_time);
            prop_assert_eq!(&fast.jobs, &naive.jobs,
                "{:?} q={:?}: per-job records diverged", mode, quantum);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random wide DAGs through the indexed path: exact and perturbed
    /// full lookahead and perturbed one-step lookahead, × three cadences,
    /// against the naive oracle on the full trace — with the index
    /// engaged on every run (strictly positive pruning).
    #[test]
    fn indexed_path_matches_naive_oracle_on_random_wide_dags(
        dag in arb_wide_kdag(3, 6),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let infos = [
            InfoModel::ALL_VARIANTS[0], // All+Pre
            InfoModel::ALL_VARIANTS[1], // All+Exp
            InfoModel::ALL_VARIANTS[4], // 1Step+Exp
        ];
        for info in infos {
            for (mode, quantum) in CADENCES {
                let out = run_pair(
                    &dag, &cfg,
                    &mut Mqb::new(info),
                    &mut NaiveMqb::new(info, true),
                    mode, quantum, seed,
                );
                let sel = out.stats.selection;
                prop_assert!(
                    sel.candidates_pruned > 0,
                    "{} {:?} q={:?}: {} tasks never engaged the index (evaluated {})",
                    info.label(), mode, quantum, dag.num_tasks(), sel.candidates_evaluated
                );
            }
        }
    }

    /// Random wide DAGs through MQB-Approx, × three cadences: picks and
    /// the evaluated/pruned counters equal the snapshot-window oracle's,
    /// with the cap biting (strictly positive pruning).
    #[test]
    fn approx_matches_snapshot_window_oracle_on_random_wide_dags(
        dag in arb_wide_kdag(3, 6),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        for (mode, quantum) in CADENCES {
            let sel = run_approx_pair(&dag, &cfg, mode, quantum, seed);
            prop_assert!(sel.candidates_pruned > 0, "{:?} q={:?}: the cap never bit", mode, quantum);
        }
    }
}

/// Antichains (`fhs_workloads::adversarial::antichain`): no root dominates
/// another and no two share a group, so every queued root is a frontier
/// head and goes through the reject ladder on every pick. Exact MQB must
/// match the naive oracle, MQB-Approx the snapshot-window oracle, in both
/// modes and all three cadences. The quantum-1 cadence runs the smallest
/// size only: it consults the oracles every time unit.
#[test]
fn antichains_match_oracles_with_every_root_on_the_frontier() {
    for n in [70usize, 150, 300] {
        let (dag, cfg) = antichain(n);
        for (mode, quantum) in CADENCES {
            if quantum.is_some() && n > 70 {
                continue;
            }
            let mut naive = NaiveMqb::new(InfoModel::default(), true);
            let out = run_pair(
                &dag,
                &cfg,
                &mut Mqb::default(),
                &mut naive,
                mode,
                quantum,
                5,
            );
            let sel = out.stats.selection;
            assert!(
                sel.candidates_evaluated > (n * n / 8) as u64,
                "n={n} {mode:?} q={quantum:?}: the roots were not all evaluated \
                 (evaluated {})",
                sel.candidates_evaluated
            );
            if mode == Mode::NonPreemptive {
                assert_eq!(
                    sel.candidates_pruned, 0,
                    "n={n}: an antichain has nothing to prune"
                );
            }
            let sel = run_approx_pair(&dag, &cfg, mode, quantum, 5);
            assert!(sel.candidates_pruned > 0, "n={n} {mode:?} q={quantum:?}");
        }
    }
}

/// Wide instances (initial queue ≈ 3× the crossover): the indexed path
/// must both *engage* (strictly positive pruning, journal diffs, exactly
/// one cold snapshot per run) and stay bit-identical to the oracle.
#[test]
fn indexed_path_engages_and_matches_oracle_on_wide_instances() {
    for (n0, n1, seed) in [(200, 90, 7u64), (150, 150, 31)] {
        let (dag, cfg) = wide_instance(n0, n1);
        for (mode, quantum) in CADENCES {
            let mut fast = Mqb::default();
            let mut naive = NaiveMqb::new(InfoModel::default(), true);
            let out = run_pair(&dag, &cfg, &mut fast, &mut naive, mode, quantum, seed);
            let sel = out.stats.selection;
            assert!(
                sel.candidates_pruned > 0,
                "{mode:?} q={quantum:?}: wide instance never engaged the index \
                 (evaluated {}, pruned {})",
                sel.candidates_evaluated,
                sel.candidates_pruned
            );
            assert!(sel.candidates_evaluated > 0);
            assert_eq!(
                sel.cold_snapshots, 1,
                "{mode:?} q={quantum:?}: exactly one cold rebuild per attach"
            );
            assert!(
                sel.diff_events > 0,
                "{mode:?} q={quantum:?}: journal replay never ran"
            );
            // The whole point: the index prunes the bulk of the quadratic
            // candidate scan on contested wide rounds.
            assert!(
                sel.candidates_pruned > sel.candidates_evaluated,
                "{mode:?} q={quantum:?}: index pruned less than it evaluated \
                 ({} vs {})",
                sel.candidates_pruned,
                sel.candidates_evaluated
            );
        }
    }
}

/// Dominance placement deferred until a round first exceeds the
/// crossover: the groups the flat rounds left unplaced are placed mid-run,
/// in the round that first needs the index, and selection stays
/// bit-identical to the oracle — with no extra cold snapshot.
#[test]
fn deferred_placement_mid_run_matches_oracle() {
    let (dag, cfg) = chain_fanout_instance();
    for seed in [3u64, 17] {
        for (mode, quantum) in CADENCES {
            let mut fast = Mqb::default();
            let mut naive = NaiveMqb::new(InfoModel::default(), true);
            let out = run_pair(&dag, &cfg, &mut fast, &mut naive, mode, quantum, seed);
            let sel = out.stats.selection;
            assert!(
                sel.candidates_pruned > 0,
                "{mode:?} q={quantum:?}: the fan-out never engaged the index"
            );
            assert_eq!(
                sel.cold_snapshots, 1,
                "{mode:?} q={quantum:?}: deferred placement must not rebuild"
            );
        }
    }
}

/// The naive quadratic MQB selection, generalized over information
/// models: `init` runs a real `Mqb` init and copies its (perturbed)
/// descendant matrix, then every pick recomputes and re-sorts every
/// untaken candidate's projected balance vector from scratch.
///
/// With a `cap` it is the snapshot-window oracle of MQB-Approx: a
/// contested round ranks its queue snapshot by total descendant value
/// (descending, `total_cmp`), then arrival, and each pick scans only the
/// first `cap` untaken candidates in that order, counting them as
/// evaluated and the rest of the untaken queue as pruned.
struct NaiveMqb {
    inner: Mqb,
    subtract_own: bool,
    cap: Option<usize>,
    sel: SelectionStats,
    k: usize,
    d: Vec<f64>,
    d_total: Vec<f64>,
    working: Vec<f64>,
}

impl NaiveMqb {
    fn new(info: InfoModel, subtract_own: bool) -> Self {
        NaiveMqb {
            inner: Mqb::new(info),
            subtract_own,
            cap: None,
            sel: SelectionStats::default(),
            k: 0,
            d: Vec::new(),
            d_total: Vec::new(),
            working: Vec::new(),
        }
    }

    fn approx(cap: usize) -> Self {
        NaiveMqb {
            cap: Some(cap),
            ..NaiveMqb::new(InfoModel::default(), true)
        }
    }

    fn candidate_balance(&self, alpha: usize, rt: &ReadyTask, procs: &[usize]) -> Vec<f64> {
        let row_start = rt.id.index() * self.k;
        let mut out: Vec<f64> = (0..self.k)
            .map(|beta| {
                let mut l = self.working[beta] + self.d[row_start + beta];
                if beta == alpha && self.subtract_own {
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

    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        self.inner.init(job, config, seed, artifacts);
        self.sel = SelectionStats::default();
        self.k = job.num_types();
        self.d.clear();
        for i in 0..job.num_tasks() {
            self.d
                .extend_from_slice(self.inner.d_row(TaskId::from_index(i)));
        }
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

            if self.cap.is_some() {
                snap.sort_by(|a, b| {
                    let (da, db) = (self.d_total[a.id.index()], self.d_total[b.id.index()]);
                    db.total_cmp(&da).then(a.seq.cmp(&b.seq))
                });
            }
            let mut taken = vec![false; snap.len()];
            for pick in 0..slots {
                let mut best_qi: Option<usize> = None;
                let mut best: Vec<f64> = Vec::new();
                let untaken = snap.len() - pick;
                let scan = self.cap.map_or(untaken, |c| c.min(untaken));
                self.sel.candidates_evaluated += scan as u64;
                self.sel.candidates_pruned += (untaken - scan) as u64;
                let window = snap
                    .iter()
                    .enumerate()
                    .filter(|&(qi, _)| !taken[qi])
                    .take(scan);
                for (qi, rt) in window {
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

    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        Some(self.sel)
    }
}
