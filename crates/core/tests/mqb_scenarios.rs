//! Crafted scenarios pinning down MQB's decision rule — the paper's
//! algorithm description (§IV-A), one clause at a time.

use fhs_core::mqb::{Accuracy, InfoModel, Lookahead, Mqb};
use fhs_sim::{engine, MachineConfig, Mode, Policy, RunOptions};
use kdag::{Artifacts, KDag, KDagBuilder, TaskId};

fn first_started(job: &KDag, cfg: &MachineConfig, policy: &mut dyn Policy, rtype: usize) -> TaskId {
    let out = engine::run(
        job,
        cfg,
        policy,
        Mode::NonPreemptive,
        &RunOptions::default().with_trace(),
    );
    let tr = out.trace.expect("requested");
    tr.segments()
        .iter()
        .filter(|s| s.rtype == rtype)
        .min_by_key(|s| (s.start, s.proc))
        .expect("at least one segment of the type")
        .task
}

/// Clause: "gives priority to tasks whose execution can potentially
/// activate more descendants that can use under-utilized types".
/// Two candidates unlock equal total downstream work, but for different
/// types; the type whose queue is starving must win.
#[test]
fn feeds_the_most_starved_queue() {
    // Ready type-0: a unlocks type-1 work, b unlocks type-2 work.
    // Type-2 queue already holds work; type-1 queue is empty -> pick a.
    let mut b = KDagBuilder::new(3);
    let a = b.add_task(0, 1);
    let c1 = b.add_task(1, 6);
    b.add_edge(a, c1).unwrap();
    let bb = b.add_task(0, 1);
    let c2 = b.add_task(2, 6);
    b.add_edge(bb, c2).unwrap();
    let _existing_t2 = b.add_task(2, 6); // pre-loads the type-2 queue
    let job = b.build().unwrap();
    let cfg = MachineConfig::uniform(3, 1);
    let mut mqb = Mqb::default();
    assert_eq!(first_started(&job, &cfg, &mut mqb, 0), a);
}

/// Clause: x-utilization divides by the processor count — a queue with
/// more processors is effectively *less* utilized at equal work.
#[test]
fn balance_accounts_for_processor_counts() {
    // Both feeder tasks unlock 6 units for their type. Type 1 has 1 proc,
    // type 2 has 6: at equal queued work, type 2's x-utilization is far
    // lower, so (with both queues equally pre-loaded) MQB must feed
    // type 2 first.
    let mut b = KDagBuilder::new(3);
    let to1 = b.add_task(0, 1);
    let c1 = b.add_task(1, 6);
    b.add_edge(to1, c1).unwrap();
    let to2 = b.add_task(0, 1);
    let c2 = b.add_task(2, 6);
    b.add_edge(to2, c2).unwrap();
    b.add_task(1, 6); // pre-load both queues equally
    b.add_task(2, 6);
    let job = b.build().unwrap();
    let cfg = MachineConfig::new(vec![1, 1, 6]);
    let mut mqb = Mqb::default();
    assert_eq!(first_started(&job, &cfg, &mut mqb, 0), to2);
}

/// Clause: "when there are at most P_α ready α-tasks, run them all" —
/// even if their descendant values would rank them badly.
#[test]
fn small_queues_run_in_full() {
    let mut b = KDagBuilder::new(2);
    for _ in 0..3 {
        b.add_task(0, 5);
    }
    b.add_task(1, 5);
    let job = b.build().unwrap();
    let cfg = MachineConfig::new(vec![3, 2]);
    let out = engine::run(
        &job,
        &cfg,
        &mut Mqb::default(),
        Mode::NonPreemptive,
        &RunOptions::default(),
    );
    // everything starts at t=0: makespan = single task work
    assert_eq!(out.makespan, 5);
}

/// Ties in balance break toward the larger total descendant value.
#[test]
fn ties_prefer_heavier_descendants() {
    // Two type-0 candidates, both feeding type 1 (so queue-0/queue-1
    // projections tie in the sorted vector only if their own work and d
    // rows are equal)... give them equal works but different amounts of
    // SAME-type descendants so the balance vectors tie lexicographically
    // after sorting, leaving the total-descendant tie-break to decide.
    let mut b = KDagBuilder::new(2);
    let light = b.add_task(0, 2);
    let heavy = b.add_task(0, 2);
    // heavy unlocks 4 units of type 1; light unlocks 4 units of type 1 as
    // well BUT split so totals differ: heavy gets an extra child.
    let c1 = b.add_task(1, 4);
    b.add_edge(light, c1).unwrap();
    let c2 = b.add_task(1, 4);
    let c3 = b.add_task(1, 2);
    b.add_edge(heavy, c2).unwrap();
    b.add_edge(heavy, c3).unwrap();
    let job = b.build().unwrap();
    let cfg = MachineConfig::uniform(2, 1);
    let mut mqb = Mqb::default();
    // heavy's projection fills the starving type-1 queue more -> better
    // balance outright; also larger total. Either way: heavy first.
    assert_eq!(first_started(&job, &cfg, &mut mqb, 0), heavy);
}

/// The Exp information model preserves the mean: averaged over many
/// seeds, the perturbed values converge to the true ones.
#[test]
fn exponential_model_is_mean_preserving() {
    let mut b = KDagBuilder::new(2);
    let v = b.add_task(0, 1);
    let c = b.add_task(1, 10);
    b.add_edge(v, c).unwrap();
    let job = b.build().unwrap();
    let cfg = MachineConfig::uniform(2, 1);
    let info = InfoModel {
        lookahead: Lookahead::All,
        accuracy: Accuracy::Exponential,
    };
    let mut sum = 0.0;
    let trials = 4000;
    for seed in 0..trials {
        let mut p = Mqb::new(info);
        p.init(&job, &cfg, seed, &Artifacts::new());
        sum += p.d_row(v)[1];
    }
    let mean = sum / trials as f64;
    assert!(
        (mean - 10.0).abs() < 0.5,
        "Exp model mean {mean} should approximate the true value 10"
    );
}

/// The Noise model stays within its documented envelope:
/// `true×U[0.5,1.5] + U[0, w̄]`.
#[test]
fn noise_model_respects_its_envelope() {
    let mut b = KDagBuilder::new(2);
    let v = b.add_task(0, 2);
    let c = b.add_task(1, 10);
    b.add_edge(v, c).unwrap();
    let job = b.build().unwrap(); // mean work w̄ = 6
    let cfg = MachineConfig::uniform(2, 1);
    let info = InfoModel {
        lookahead: Lookahead::All,
        accuracy: Accuracy::Noisy,
    };
    for seed in 0..2000 {
        let mut p = Mqb::new(info);
        p.init(&job, &cfg, seed, &Artifacts::new());
        let val = p.d_row(v)[1];
        assert!(
            (5.0..=21.0).contains(&val),
            "noise sample {val} outside [0.5·10, 1.5·10 + 6]"
        );
    }
}

/// Preemptive MQB treats running tasks as candidates: a freshly-unlocked
/// task with dominant descendants may preempt a running sibling.
#[test]
fn preemptive_mqb_reconsiders_running_tasks() {
    // One type-0 processor. A long low-value task starts first (alone),
    // then a feeder arrives whose completion unlocks starving type-1 work.
    let mut b = KDagBuilder::new(2);
    let root = b.add_task(0, 1);
    let long = b.add_task(0, 20);
    let feeder = b.add_task(0, 2);
    b.add_edge(root, feeder).unwrap();
    let gpu = b.add_task(1, 20);
    b.add_edge(feeder, gpu).unwrap();
    let job = b.build().unwrap();
    let cfg = MachineConfig::uniform(2, 1);
    let _ = long;
    let out = engine::run(
        &job,
        &cfg,
        &mut Mqb::default(),
        Mode::Preemptive,
        &RunOptions::default().with_trace(),
    );
    // Optimal-ish: root(1) + feeder(2), gpu overlaps the rest of long:
    // makespan 23 requires preempting/ordering around `long`. Anything
    // ≥ 41 would mean the feeder waited for `long` to finish. Since at
    // t=1 MQB re-decides with both `long` (19 left... or unstarted) and
    // `feeder` available, the feeder's type-1 descendants must win.
    assert!(
        out.makespan <= 25,
        "feeder was starved behind the long task: makespan {}",
        out.makespan
    );
    let tr = out.trace.expect("requested");
    // the gpu task must start well before `long` finishes
    let gpu_start = tr
        .segments()
        .iter()
        .filter(|s| s.task == gpu)
        .map(|s| s.start)
        .min()
        .expect("gpu ran");
    assert!(gpu_start <= 4, "gpu started only at {gpu_start}");
}
