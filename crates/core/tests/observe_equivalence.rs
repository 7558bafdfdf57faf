//! Observability must be observe-only: running with every recording
//! channel enabled (utilization timeline, latency histograms, event
//! trace) must reproduce the unobserved run bit for bit — same makespan,
//! same busy-time vector, same epoch count, same full trace — for every
//! scheduler, both modes, both cadences. The recorded payload itself must
//! satisfy the paper's accounting identities.

use fhs_core::{make_policy, ALL_ALGORITHMS};
use fhs_sim::{engine, MachineConfig, Mode, ObsConfig, RunOptions};
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

const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every scheduler, both modes, both cadences: the instrumented run
    /// replays the uninstrumented one exactly, and the recorded
    /// utilization report satisfies `busy == busy_time[α]` and
    /// `busy + idle = P_α × makespan` for every type α.
    #[test]
    fn recording_is_invisible_and_accounts_exactly(
        dag in arb_kdag(3, 18, 4),
        cfg in arb_config(3),
        seed in 0u64..1000,
    ) {
        for algo in ALL_ALGORITHMS {
            for (mode, quantum) in CADENCES {
                let mut plain_opts = RunOptions::seeded(seed).with_trace();
                plain_opts.quantum = quantum;
                let plain = engine::run(
                    &dag, &cfg, make_policy(algo).as_mut(), mode, &plain_opts,
                );
                let seen_opts = RunOptions {
                    observe: ObsConfig::all(),
                    ..plain_opts.clone()
                };
                let seen = engine::run(
                    &dag, &cfg, make_policy(algo).as_mut(), mode, &seen_opts,
                );
                let label = format!("{} {:?} q={:?}", algo.label(), mode, quantum);
                prop_assert_eq!(seen.makespan, plain.makespan, "{}: makespan", &label);
                prop_assert_eq!(&seen.busy_time, &plain.busy_time, "{}: busy", &label);
                prop_assert_eq!(seen.epochs, plain.epochs, "{}: epochs", &label);
                prop_assert_eq!(
                    seen.trace.expect("requested").segments(),
                    plain.trace.expect("requested").segments(),
                    "{}: trace diverged under recording", &label
                );
                let obs = seen.obs.expect("observe requested");
                let util = obs.util.as_ref().expect("utilization on");
                prop_assert_eq!(util.makespan, plain.makespan);
                prop_assert_eq!(util.per_type.len(), 3);
                for (alpha, t) in util.per_type.iter().enumerate() {
                    prop_assert_eq!(
                        t.busy, plain.busy_time[alpha],
                        "{} type {}: timeline busy != engine busy", &label, alpha
                    );
                    prop_assert_eq!(
                        t.busy + t.idle_active + t.idle_tail,
                        t.procs as u64 * util.makespan,
                        "{} type {}: busy+idle != P_α × makespan", &label, alpha
                    );
                    prop_assert!(
                        t.drain_time <= util.makespan,
                        "{} type {}: drain {} past makespan {}",
                        &label, alpha, t.drain_time, util.makespan
                    );
                }
                // Event stream sanity: epoch-stamped, time-monotonic.
                prop_assert!(obs.events.windows(2).all(|w| w[0].t <= w[1].t));
                prop_assert!(obs.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
                prop_assert_eq!(obs.assign_ns.count, plain.epochs);
            }
        }
    }
}
