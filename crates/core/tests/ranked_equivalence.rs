//! The journal-fed key index behind the ranked policies (LSpan, DType,
//! MaxDP, ShiftBT, EDD; DESIGN.md §7.1) must be **invisible**: at every
//! epoch a policy is consulted, its picks must equal — in content and
//! order — what the full-scan selection it replaced makes on the same view.
//!
//! The oracle is `FullScan`: the pre-index `Selector::assign_by_key`
//! restated verbatim (rebuild a `(key, seq, id)` vector over the whole
//! queue, partially select, sort the prefix). Its keys are re-derived here
//! from the public `kdag` analyses rather than read from the policies, so
//! a key-table slip shows too. `Lockstep` wraps a production policy and
//! checks it against the oracle on every view the engine hands it,
//! across both modes, event-driven and quantum-1 cadences (with epoch
//! fast-forward on for the policies that allow it), and multi-job
//! sessions whose dirty-set skips leave journals spanning several epochs.
//!
//! Targeted tests close the gaps a lockstep run cannot: a policy value
//! re-initialized for a *different* job of the same size (the journal and
//! the live count both look consistent; only init-time invalidation
//! rebuilds the index), and wide instances where the index, epoch
//! fast-forward and dirty-set skipping must actually engage — without
//! those assertions, a silent fall-back would pass vacuously.

use std::sync::Arc;

use fhs_core::{DType, Edd, LSpan, MaxDP, ShiftBT};
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, Policy, ReadyQueue, ReadyTask, RunOptions,
    Session, SessionOptions, Workspace,
};
use kdag::precompute::Artifacts;
use kdag::{descendants, distance, duedate, metrics, KDag, KDagBuilder, TaskId, Work};
use proptest::prelude::*;

#[path = "support/shiftbt_reference.rs"]
mod shiftbt_reference;
use shiftbt_reference::bottleneck_sequencing;

const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
];

/// The five policies built on the shared key index.
#[derive(Clone, Copy, Debug)]
enum Ranked {
    LSpan,
    DType,
    MaxDP,
    ShiftBT,
    Edd,
}

const RANKED: [Ranked; 5] = [
    Ranked::LSpan,
    Ranked::DType,
    Ranked::MaxDP,
    Ranked::ShiftBT,
    Ranked::Edd,
];

impl Ranked {
    fn policy(self) -> Box<dyn Policy> {
        match self {
            Ranked::LSpan => Box::new(LSpan::default()),
            Ranked::DType => Box::new(DType::default()),
            Ranked::MaxDP => Box::new(MaxDP::default()),
            Ranked::ShiftBT => Box::new(ShiftBT::default()),
            Ranked::Edd => Box::new(Edd::default()),
        }
    }
}

/// Each policy's ranking key, derived independently from the public
/// analyses: a per-task table, plus LSpan's per-task max child span (its
/// key also reads the candidate's remaining work).
struct OracleKeys {
    algo: Ranked,
    table: Vec<f64>,
    child_span: Vec<Work>,
}

impl OracleKeys {
    fn new(algo: Ranked, job: &KDag, config: &MachineConfig) -> Self {
        let mut child_span = Vec::new();
        let table = match algo {
            Ranked::LSpan => {
                let spans = metrics::remaining_spans(job);
                child_span = job
                    .tasks()
                    .map(|v| {
                        job.children(v)
                            .iter()
                            .map(|&c| spans[c.index()])
                            .max()
                            .unwrap_or(0)
                    })
                    .collect();
                Vec::new()
            }
            Ranked::DType => distance::different_child_distances(job)
                .into_iter()
                .map(|d| d.map_or(f64::INFINITY, f64::from))
                .collect(),
            Ranked::MaxDP => descendants::type_blind_descendants(job)
                .into_iter()
                .map(|d| -d)
                .collect(),
            Ranked::ShiftBT => bottleneck_sequencing(job, config, &duedate::due_dates(job)).1,
            Ranked::Edd => duedate::due_dates(job)
                .into_iter()
                .map(|d| d as f64)
                .collect(),
        };
        OracleKeys {
            algo,
            table,
            child_span,
        }
    }

    fn key(&self, rt: &ReadyTask) -> f64 {
        match self.algo {
            Ranked::LSpan => -((rt.remaining + self.child_span[rt.id.index()]) as f64),
            _ => self.table[rt.id.index()],
        }
    }
}

/// The pre-index selection, verbatim: every epoch, every contested type
/// rebuilds a `(key, seq, id)` vector over its whole queue.
#[derive(Default)]
struct FullScan {
    scratch: Vec<(f64, u32, u32)>, // (key, seq, task-index)
}

impl FullScan {
    /// For every type, pushes into `out` the `slots[α]` queue entries with
    /// the smallest `key(α, candidate)` (ascending; ties by seq then id).
    fn assign_by_key<F>(&mut self, view: &EpochView<'_>, out: &mut Assignments, mut key: F)
    where
        F: FnMut(usize, &ReadyTask) -> f64,
    {
        for alpha in 0..view.config.num_types() {
            let queue = &view.queues[alpha];
            let slots = view.slots[alpha];
            if slots == 0 || queue.is_empty() {
                continue;
            }
            if queue.len() <= slots {
                // "if there are at most P_α ready tasks, execute them all"
                for rt in queue.iter() {
                    out.push(alpha, rt.id);
                }
                continue;
            }
            self.scratch.clear();
            self.scratch.extend(
                queue
                    .iter()
                    .map(|rt| (key(alpha, rt), rt.seq, rt.id.index() as u32)),
            );
            let cmp = |a: &(f64, u32, u32), b: &(f64, u32, u32)| {
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            };
            // (key, seq, id) is a strict total order (seq is unique), so a
            // partial selection of the smallest `slots` entries followed by
            // sorting just that prefix emits exactly the same sequence as a
            // full sort — in O(n + slots log slots) instead of O(n log n),
            // which matters when queues dwarf the processor pools.
            if queue.len() > 2 * slots {
                self.scratch.select_nth_unstable_by(slots - 1, cmp);
                self.scratch[..slots].sort_unstable_by(cmp);
            } else {
                self.scratch.sort_unstable_by(cmp);
            }
            for &(_, _, idx) in self.scratch.iter().take(slots) {
                out.push(alpha, kdag::TaskId::from_index(idx as usize));
            }
        }
    }
}

/// A production ranked policy checked against the full-scan oracle on
/// every view it is handed; everything else is forwarded.
struct Lockstep {
    algo: Ranked,
    inner: Box<dyn Policy>,
    keys: Option<OracleKeys>,
    scan: FullScan,
    want: Assignments,
}

impl Lockstep {
    fn new(algo: Ranked) -> Self {
        Lockstep {
            algo,
            inner: algo.policy(),
            keys: None,
            scan: FullScan::default(),
            want: Assignments::default(),
        }
    }
}

impl Policy for Lockstep {
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        self.inner.init(job, config, seed, artifacts);
        self.keys = Some(OracleKeys::new(self.algo, job, config));
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        self.inner.assign(view, out);
        let k = view.config.num_types();
        self.want.reset(k);
        let keys = self.keys.as_ref().expect("assign before init");
        self.scan
            .assign_by_key(view, &mut self.want, |_, rt| keys.key(rt));
        for alpha in 0..k {
            assert_eq!(
                out.chosen(alpha),
                self.want.chosen(alpha),
                "{:?} t={} preemptive={}: type-{alpha} picks diverged from the full scan \
                 (queue {}, slots {})",
                self.algo,
                view.time,
                view.preemptive,
                view.queues[alpha].len(),
                view.slots[alpha]
            );
        }
    }

    fn detach_job(&mut self) {
        self.inner.detach_job();
    }

    fn take_selection_stats(&mut self) -> Option<fhs_sim::SelectionStats> {
        self.inner.take_selection_stats()
    }

    fn assign_stable(&self) -> bool {
        self.inner.assign_stable()
    }
}

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

fn opts(seed: u64, quantum: Option<u64>) -> RunOptions {
    // No trace and no recording: the quantum-1 cadence fast-forwards for
    // the policies that certify `assign_stable`.
    let mut o = RunOptions::seeded(seed);
    o.quantum = quantum;
    o
}

/// A two-type instance whose type-0 queue starts far above its 2 slots,
/// with a second wave of type-1 tasks released as their parents finish —
/// so the index sees inserts, removals and (per-quantum) remaining-work
/// updates mid-run.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-job runs, cold `init` and artifact-backed init on one reused
    /// workspace: every consulted epoch picks exactly what the full scan
    /// picks.
    #[test]
    fn ranked_policies_match_full_scan_every_epoch(
        dag in arb_kdag(3, 40, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let artifacts = Arc::new(Artifacts::compute(&dag));
        for algo in RANKED {
            for (mode, quantum) in CADENCES {
                let o = opts(seed, quantum);
                let mut ws = Workspace::new();
                let mut p = Lockstep::new(algo);
                let cold = engine::run_in(&mut ws, &dag, &cfg, &mut p, mode, &o);
                let (warm, _, _) = fhs_sim::metrics::evaluate_observed_with_artifacts_in(
                    &mut ws, &dag, &cfg, &mut p, mode, &o, &artifacts,
                );
                prop_assert_eq!(cold.makespan, warm.makespan);
            }
        }
    }

    /// Multi-job sessions with staggered admissions: other jobs' picks
    /// interleave with a policy's epochs, non-preemptive dirty-set skips
    /// leave a job's journals spanning several epochs, and retired jobs'
    /// policy values are recycled onto later jobs.
    #[test]
    fn ranked_sessions_match_full_scan_every_epoch(
        (cfg, jobs) in (
            arb_config(3),
            proptest::collection::vec((arb_kdag(3, 24, 4), 0u64..1000), 2..=5),
        ),
        gap in 0u64..6,
        which in 0usize..5,
    ) {
        let algo = RANKED[which];
        for (mode, quantum) in CADENCES {
            let mut so = SessionOptions::new(mode);
            so.quantum = quantum;
            let mut s = Session::new(cfg.clone(), so);
            for (i, (dag, seed)) in jobs.iter().enumerate() {
                s.run_until(i as u64 * gap);
                let policy = s
                    .recycled_policy()
                    .unwrap_or_else(|| Box::new(Lockstep::new(algo)));
                s.admit(Arc::new(dag.clone()), policy, *seed);
            }
            let (out, _) = s.finish();
            prop_assert_eq!(out.jobs.len(), jobs.len());
        }
    }
}

/// Two 9-task jobs over the same task ids whose rankings disagree: a chain
/// over tasks 0..=4 in `a`, over tasks 7..=3 in `b`, with the type-1 task
/// hanging off the other end.
fn same_size_pair() -> (KDag, KDag, MachineConfig) {
    let build = |chain: &[usize], feeder: usize| {
        let mut b = KDagBuilder::new(2);
        let ids: Vec<TaskId> = (0..8).map(|_| b.add_task(0, 1)).collect();
        let other = b.add_task(1, 1);
        for w in chain.windows(2) {
            b.add_edge(ids[w[0]], ids[w[1]]).unwrap();
        }
        b.add_edge(ids[feeder], other).unwrap();
        b.build().unwrap()
    };
    (
        build(&[0, 1, 2, 3, 4], 7),
        build(&[7, 6, 5, 4, 3], 0),
        MachineConfig::new(vec![2, 1]),
    )
}

/// A policy value re-initialized for a different job with the same task
/// count, presented with the same hand-built queue: the journal is empty
/// and the live count matches, so only the invalidation in `init` stands
/// between the index and the previous job's keys.
#[test]
fn reinit_for_a_same_size_job_rebuilds_the_index() {
    let (a, b, cfg) = same_size_pair();
    let queues = || {
        vec![
            ReadyQueue::from_tasks(
                (0..8)
                    .map(|i| ReadyTask {
                        id: TaskId::from_index(i),
                        seq: i as u32,
                        remaining: 1,
                    })
                    .collect(),
            ),
            ReadyQueue::new(),
        ]
    };
    let view_picks = |p: &mut dyn Policy, job: &KDag| {
        let queues = queues();
        // Preemptive, so the picks stay indexed: the index still holds
        // all 8 candidates when the second job's view arrives.
        let view = EpochView {
            time: 0,
            job,
            config: &cfg,
            queues: &queues,
            queue_work: &[8, 0],
            slots: &[2, 1],
            preemptive: true,
        };
        let mut out = Assignments::default();
        out.reset(2);
        p.assign(&view, &mut out);
        out.chosen(0).to_vec()
    };
    for algo in RANKED {
        let mut oracle_a = Lockstep::new(algo);
        oracle_a.init(&a, &cfg, 0, &Artifacts::new());
        let mut oracle_b = Lockstep::new(algo);
        oracle_b.init(&b, &cfg, 0, &Artifacts::new());
        let picks_a = view_picks(&mut oracle_a, &a);
        let picks_b = view_picks(&mut oracle_b, &b);
        assert_ne!(
            picks_a, picks_b,
            "{algo:?}: the two jobs must rank differently for this test to bite"
        );

        let mut p = Lockstep::new(algo);
        p.init(&a, &cfg, 0, &Artifacts::new());
        assert_eq!(view_picks(&mut p, &a), picks_a);
        p.init(&b, &cfg, 0, &Artifacts::new());
        // Lockstep asserts the picks against the full scan with `b`'s keys.
        assert_eq!(
            view_picks(&mut p, &b),
            picks_b,
            "{algo:?}: stale index after re-init"
        );
        let sel = p
            .take_selection_stats()
            .expect("ranked policies report stats");
        assert_eq!(
            sel.cold_snapshots, 1,
            "{algo:?}: one cold build after re-init"
        );
    }
}

/// Wide instances (queue ≫ slots): the index must engage — one cold build
/// per contested type, journal replay from then on, no candidate
/// evaluation or pruning counters — while every epoch matches the scan.
#[test]
fn index_engages_on_wide_instances() {
    for (n0, n1, seed) in [(200, 90, 7u64), (150, 150, 31)] {
        let (dag, cfg) = wide_instance(n0, n1);
        for algo in RANKED {
            for (mode, quantum) in CADENCES {
                let mut p = Lockstep::new(algo);
                let out = engine::run(&dag, &cfg, &mut p, mode, &opts(seed, quantum));
                let sel = out.stats.selection;
                assert!(
                    (1..=2).contains(&sel.cold_snapshots),
                    "{algo:?} {mode:?} q={quantum:?}: {} cold builds for 2 types",
                    sel.cold_snapshots
                );
                assert!(
                    sel.diff_events > 0,
                    "{algo:?} {mode:?} q={quantum:?}: journal replay never ran"
                );
                assert_eq!(
                    (sel.candidates_evaluated, sel.candidates_pruned),
                    (0, 0),
                    "{algo:?}: ranked selection evaluates no candidates"
                );
                if quantum.is_some() && p.assign_stable() {
                    assert!(
                        out.stats.epochs_skipped > 0,
                        "{algo:?}: the quantum-1 run never fast-forwarded"
                    );
                }
            }
        }
    }
}

/// A non-preemptive session of two wide jobs: the dirty-set scan skips a
/// job whenever its free types face a busy pool, so its journals span
/// several epochs between consultations — and every consulted epoch still
/// matches the scan.
#[test]
fn dirty_set_skips_leave_multi_epoch_journals_that_replay_exactly() {
    let (a, cfg) = wide_instance(200, 90);
    let (b, _) = wide_instance(150, 150);
    for algo in RANKED {
        let mut s = Session::new(cfg.clone(), SessionOptions::new(Mode::NonPreemptive));
        s.admit(Arc::new(a.clone()), Box::new(Lockstep::new(algo)), 7);
        s.run_until(3);
        s.admit(Arc::new(b.clone()), Box::new(Lockstep::new(algo)), 31);
        let (out, _) = s.finish();
        assert!(
            out.stats.full_rescans < out.stats.epochs,
            "{algo:?}: no epoch skipped a job"
        );
        assert!(out.stats.selection.diff_events > 0, "{algo:?}");
        assert_eq!(out.jobs.len(), 2);
    }
}
