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

/// The deterministic lower bound, realized: with every active task placed
/// last in FIFO arrival order, deterministic FIFO greedy drains each
/// type's entire block before unlocking the next — its ratio approaches
/// `K + 1` (here `K + 1 − 1/P_max` = 3.5), while the same FIFO policy on
/// *randomly* hidden actives only pays the randomized expectation.
#[test]
fn worst_case_placement_realizes_the_deterministic_bound() {
    use fhs::sched::kgreedy::FifoGreedy;
    use fhs::theory::bounds;
    use fhs::workloads::adversarial::{self, AdversarialParams};

    let params = AdversarialParams::new(vec![2, 2, 2], 16);
    let cfg = MachineConfig::new(params.procs.clone());
    let t_star = params.optimal_makespan() as f64;

    let job = adversarial::generate_worst_case_fifo(&params);
    let out = engine::run(
        &job,
        &cfg,
        &mut FifoGreedy,
        Mode::NonPreemptive,
        &RunOptions::default(),
    );
    let ratio = out.makespan as f64 / t_star;
    let det_bound = bounds::deterministic_lower_bound(&params.procs); // 3.5
    assert!(
        ratio > det_bound - 0.3,
        "worst-case FIFO ratio {ratio:.3} should approach {det_bound}"
    );
    assert!(ratio <= params.procs.len() as f64 + 1.0 + 1e-9);

    // Randomly-placed actives cost FIFO strictly less on average.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
