//! Mechanism tests: verify not just *that* MQB wins but *why* — the
//! paper's thesis is that makespan gains come from keeping all resource
//! types busy simultaneously (utilization balancing / task interleaving).

use fhs::prelude::*;
use fhs::sim::trace::Trace;
use fhs::sim::UtilTimeline;

/// The interleaving index of a traced schedule on `k` types.
fn interleaving_index(trace: &Trace, k: usize) -> f64 {
    let spans = trace.segments().iter().map(|s| (s.rtype, s.start, s.end));
    UtilTimeline::from_intervals(k, spans).interleaving_index(trace.makespan())
}

fn interleaving(algo: Algorithm, spec: &WorkloadSpec, seeds: u64) -> f64 {
    let mut total = 0.0;
    for seed in 0..seeds {
        let (job, cfg) = spec.sample(seed);
        let mut policy = make_policy(algo);
        let out = engine::run(
            &job,
            &cfg,
            policy.as_mut(),
            Mode::NonPreemptive,
            &RunOptions::seeded(seed).with_trace(),
        );
        let trace = out.trace.expect("requested");
        total += interleaving_index(&trace, cfg.num_types());
    }
    total / seeds as f64
}

/// On layered IR — the panel where MQB's advantage is largest — MQB keeps
/// all K pools simultaneously busy for a larger fraction of the run than
/// blind KGreedy. This is the paper's §IV claim made measurable: MQB
/// "minimizes completion time by maximizing system utilization over
/// different resource types".
#[test]
fn mqb_interleaves_types_better_than_kgreedy_on_layered_ir() {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
    let kgreedy = interleaving(Algorithm::KGreedy, &spec, 40);
    let mqb = interleaving(Algorithm::Mqb, &spec, 40);
    assert!(
        mqb > kgreedy,
        "MQB interleaving {mqb:.3} !> KGreedy {kgreedy:.3}"
    );
}

/// The interleaving advantage carries the makespan advantage: across
/// instances, better interleaving and better ratio go together for MQB
/// vs KGreedy (paired sign test: MQB interleaves at least as well on a
/// clear majority of instances where it wins on makespan).
#[test]
fn interleaving_tracks_the_makespan_win() {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
    let mut both = 0;
    let mut makespan_wins = 0;
    for seed in 0..60u64 {
        let (job, cfg) = spec.sample(seed);
        let eval = |algo: Algorithm| {
            let mut p = make_policy(algo);
            let out = engine::run(
                &job,
                &cfg,
                p.as_mut(),
                Mode::NonPreemptive,
                &RunOptions::seeded(seed).with_trace(),
            );
            let trace = out.trace.expect("requested");
            let il = interleaving_index(&trace, cfg.num_types());
            (out.makespan, il)
        };
        let (t_kg, il_kg) = eval(Algorithm::KGreedy);
        let (t_mqb, il_mqb) = eval(Algorithm::Mqb);
        if t_mqb < t_kg {
            makespan_wins += 1;
            if il_mqb >= il_kg {
                both += 1;
            }
        }
    }
    assert!(
        makespan_wins >= 20,
        "too few MQB wins to test: {makespan_wins}"
    );
    assert!(
        both * 3 >= makespan_wins * 2,
        "only {both}/{makespan_wins} makespan wins came with ≥ interleaving"
    );
}

/// The adversarial family makes the mechanism extreme: online KGreedy
/// spends most of its time with idle pools (queues drain one type at a
/// time), while MQB — by scheduling the hidden active tasks first —
/// pipelines the types.
#[test]
fn adversarial_family_shows_the_starvation_mechanism() {
    use fhs::workloads::adversarial::{self, AdversarialParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let params = AdversarialParams::new(vec![2, 2, 2], 6);
    let cfg = MachineConfig::new(params.procs.clone());
    let mut il = [0.0f64; 2];
    let trials = 10;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(t);
        let job = adversarial::generate(&params, &mut rng);
        for (i, algo) in [Algorithm::KGreedy, Algorithm::Mqb].into_iter().enumerate() {
            let mut p = make_policy(algo);
            let out = engine::run(
                &job,
                &cfg,
                p.as_mut(),
                Mode::NonPreemptive,
                &RunOptions::seeded(t).with_trace(),
            );
            let trace = out.trace.expect("requested");
            il[i] += interleaving_index(&trace, cfg.num_types()) / trials as f64;
        }
    }
    // KGreedy drains type by type: pools overlap rarely. The chain tail
    // (one type-K task at a time) caps even MQB's index well below 1, but
    // the gap must be decisive.
    assert!(
        il[1] > il[0] + 0.1,
        "MQB interleaving {:.3} not clearly above KGreedy {:.3}",
        il[1],
        il[0]
    );
}

/// The Theorem-2 family (`fhs::workloads::adversarial`) with every active
/// task at the **end** of its type's id block: the deterministic worst
/// case against FIFO dispatch, which drains each block in arrival order
/// before it uncovers the tasks that gate the next type.
fn worst_case_fifo(params: &fhs::workloads::adversarial::AdversarialParams) -> KDag {
    let (k, m) = (params.procs.len(), params.m);
    let pk = params.procs[k - 1];
    let mut b = KDagBuilder::new(k);
    let blocks: Vec<Vec<TaskId>> = (0..k)
        .map(|alpha| {
            let count = params.procs[alpha] * pk * m;
            (0..count).map(|_| b.add_task(alpha, 1)).collect()
        })
        .collect();
    // The last P_α α-tasks gate every (α+1)-task.
    for alpha in 0..k - 1 {
        for &active in blocks[alpha].iter().rev().take(params.procs[alpha]) {
            for &t in &blocks[alpha + 1] {
                b.add_edge(active, t).unwrap();
            }
        }
    }
    // The last m·P_K − 1 K-tasks form the chain; the last P_K of the
    // others gate its head.
    let (others, chain) = blocks[k - 1].split_at(blocks[k - 1].len() - (m * pk - 1));
    for w in chain.windows(2) {
        b.add_edge(w[0], w[1]).unwrap();
    }
    for &active in others.iter().rev().take(pk) {
        b.add_edge(active, chain[0]).unwrap();
    }
    b.build().unwrap()
}

/// The deterministic lower bound, realized: with every active task placed
/// last in FIFO arrival order, deterministic FIFO greedy drains each
/// type's entire block before unlocking the next — its ratio approaches
/// `K + 1` (here `K + 1 − 1/P_max` = 3.5), while the same FIFO policy on
/// *randomly* hidden actives only pays the randomized expectation.
#[test]
fn worst_case_placement_realizes_the_deterministic_bound() {
    use fhs::sched::kgreedy::FifoGreedy;
    use fhs::workloads::adversarial::{self, AdversarialParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let params = AdversarialParams::new(vec![2, 2, 2], 16);
    let cfg = MachineConfig::new(params.procs.clone());
    let t_star = params.optimal_makespan() as f64;

    let job = worst_case_fifo(&params);
    assert_eq!(fhs::kdag::metrics::span(&job), params.optimal_makespan());
    // Tie the test's placement to the production family: the same tasks,
    // edges and per-task degrees, only ordered differently.
    let family = adversarial::generate(&params, &mut StdRng::seed_from_u64(0));
    let profile = |g: &KDag| {
        let mut p: Vec<_> = g
            .tasks()
            .map(|v| (g.rtype(v), g.work(v), g.num_parents(v), g.children(v).len()))
            .collect();
        p.sort_unstable();
        p
    };
    assert_eq!(job.num_tasks(), family.num_tasks());
    assert_eq!(job.num_edges(), family.num_edges());
    for alpha in 0..params.procs.len() {
        assert_eq!(
            job.num_tasks_of_type(alpha),
            family.num_tasks_of_type(alpha)
        );
    }
    assert_eq!(fhs::kdag::metrics::span(&family), params.optimal_makespan());
    assert_eq!(profile(&job), profile(&family));
    let out = engine::run(
        &job,
        &cfg,
        &mut FifoGreedy,
        Mode::NonPreemptive,
        &RunOptions::default(),
    );
    let ratio = out.makespan as f64 / t_star;
    // He/Sun/Hsu's deterministic online bound K + 1 − 1/P_max (§III): 3.5.
    let pmax = *params.procs.iter().max().expect("three types") as f64;
    let det_bound = params.procs.len() as f64 + 1.0 - 1.0 / pmax;
    assert!(
        ratio > det_bound - 0.3,
        "worst-case FIFO ratio {ratio:.3} should approach {det_bound}"
    );
    assert!(ratio <= params.procs.len() as f64 + 1.0 + 1e-9);

    // Randomly-placed actives cost FIFO strictly less on average.
    let mut avg = 0.0;
    let trials = 10;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(t);
        let random_job = adversarial::generate(&params, &mut rng);
        let out = engine::run(
            &random_job,
            &cfg,
            &mut FifoGreedy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        avg += out.makespan as f64 / t_star / trials as f64;
    }
    assert!(
        avg < ratio,
        "random placement ({avg:.3}) should cost FIFO less than adversarial ({ratio:.3})"
    );
}
