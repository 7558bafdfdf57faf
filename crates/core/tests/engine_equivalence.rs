//! The unified epoch engine must be indistinguishable from the two
//! pre-refactor engines (preserved verbatim in `fhs_sim::reference`) for
//! **all six** paper schedulers, in both modes, on random K-DAGs — not
//! just FIFO on a chain. Equality is checked on the strongest observable:
//! the full trace, segment by segment.
//!
//! A second family pins the epoch-skipping preemptive engine to the
//! literal per-quantum scheduler (`quantum: Some(1)`): exactly for policies
//! whose choices ignore candidates' *remaining* work (DType, MaxDP,
//! ShiftBT — and FIFO, covered in `fhs-sim`'s own suite), skipping
//! decision epochs between completions cannot change the schedule.
//! LSpan and MQB *do* read remaining work, so they are only compared to
//! the reference engines at `quantum: Some(1)` (above). KGreedy is
//! excluded from the cadence family only: its RNG draws once
//! per consulted epoch, so changing the epoch *count* legitimately
//! changes the stream (it still matches `reference::run` exactly).

use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_sim::{engine, reference, MachineConfig, Mode, RunOptions};
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

/// Asserts that the unified engine and the reference engine produce the
/// same outcome on the strongest observable: the full trace. Panics on
/// divergence (the proptest shim's `prop_assert*` are panic-based too).
fn assert_matches_reference(
    dag: &KDag,
    cfg: &MachineConfig,
    algo: Algorithm,
    mode: Mode,
    opts: &RunOptions,
) {
    let new = engine::run(dag, cfg, make_policy(algo).as_mut(), mode, opts);
    let old = reference::run(dag, cfg, make_policy(algo).as_mut(), mode, opts);
    assert_eq!(
        new.makespan,
        old.makespan,
        "{} {:?}: makespan diverged",
        algo.label(),
        mode
    );
    assert_eq!(new.busy_time, old.busy_time);
    assert_eq!(new.epochs, old.epochs, "{} {:?}", algo.label(), mode);
    let (new_tr, old_tr) = (new.trace.expect("requested"), old.trace.expect("requested"));
    assert_eq!(
        new_tr.segments(),
        old_tr.segments(),
        "{} {:?}: trace diverged",
        algo.label(),
        mode
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All six schedulers, both modes: the indexed engine replays the
    /// pre-refactor engines bit for bit.
    #[test]
    fn unified_engine_matches_reference_for_all_six(
        dag in arb_kdag(3, 20, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = RunOptions::seeded(seed).with_trace();
        for algo in ALL_ALGORITHMS {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                assert_matches_reference(&dag, &cfg, algo, mode, &opts);
            }
        }
    }

    /// Same equivalence at the paper's literal per-quantum cadence, where
    /// the remaining-work-dependent policies (LSpan, MQB) exercise the
    /// `progress` fast path every time unit.
    #[test]
    fn unified_engine_matches_reference_per_quantum(
        dag in arb_kdag(3, 14, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        let opts = RunOptions { quantum: Some(1), ..RunOptions::seeded(seed).with_trace() };
        for algo in ALL_ALGORITHMS {
            assert_matches_reference(&dag, &cfg, algo, Mode::Preemptive, &opts);
        }
    }

    /// Epoch-skipping is invisible to remaining-work-independent policies:
    /// the default preemptive run equals the literal per-step scheduler.
    #[test]
    fn epoch_skipping_equals_per_step_for_remaining_independent_policies(
        dag in arb_kdag(3, 16, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        for algo in [Algorithm::DType, Algorithm::MaxDP, Algorithm::ShiftBT] {
            let opts = RunOptions::seeded(seed);
            let stepped = RunOptions { quantum: Some(1), ..opts.clone() };
            let fast = engine::run(&dag, &cfg, make_policy(algo).as_mut(), Mode::Preemptive, &opts);
            let slow = engine::run(&dag, &cfg, make_policy(algo).as_mut(), Mode::Preemptive, &stepped);
            prop_assert_eq!(fast.makespan, slow.makespan, "{}", algo.label());
            prop_assert_eq!(&fast.busy_time, &slow.busy_time);
        }
    }
}
