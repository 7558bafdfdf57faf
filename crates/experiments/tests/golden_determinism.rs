//! Golden determinism pins for all six algorithms in both modes: exact
//! makespans and trace hashes on one fixed instance, and the exact
//! per-instance ratios of each cell swept alone over a small workload. These freeze the full
//! seed→schedule pipeline (generator sampling, policy decisions, engine
//! event order), so an engine or policy refactor that silently changes
//! any schedule fails here even when every invariant test still passes.
//!
//! Values are recorded under the offline rand shim's streams
//! (crates/compat/rand). If a change is intentional, regenerate by
//! re-running these computations and updating the tables — and say why
//! in the commit.

use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_experiments::runner::{instance_seed, run_sweep, SweepCell};
use fhs_sim::{engine, trace, Mode, RunOptions};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// (algorithm, mode, makespan, FNV-1a of the canonical trace CSV) on the
/// small layered IR instance sampled with `instance_seed(0x5EED, 0)`.
const GOLDEN_RUNS: &[(Algorithm, Mode, u64, u64)] = &[
    (
        Algorithm::KGreedy,
        Mode::NonPreemptive,
        12,
        0xb8ef8b85b1976826,
    ),
    (Algorithm::KGreedy, Mode::Preemptive, 14, 0xc0cb3ff4681954ae),
    (
        Algorithm::LSpan,
        Mode::NonPreemptive,
        12,
        0xec525ddf9ed366c5,
    ),
    (Algorithm::LSpan, Mode::Preemptive, 12, 0xf8b25b10ec7d9e40),
    (
        Algorithm::DType,
        Mode::NonPreemptive,
        14,
        0x2c08d7d8e5dac4c5,
    ),
    (Algorithm::DType, Mode::Preemptive, 14, 0x20da03aa886f12af),
    (
        Algorithm::MaxDP,
        Mode::NonPreemptive,
        10,
        0xe7815357881dbca1,
    ),
    (Algorithm::MaxDP, Mode::Preemptive, 10, 0x8b4ab1d20a2327a1),
    (
        Algorithm::ShiftBT,
        Mode::NonPreemptive,
        12,
        0xec525ddf9ed366c5,
    ),
    (Algorithm::ShiftBT, Mode::Preemptive, 12, 0x5b7e3b483aeb6b41),
    (Algorithm::Mqb, Mode::NonPreemptive, 11, 0x1ac2c16c8d14e932),
    (Algorithm::Mqb, Mode::Preemptive, 11, 0xcca5a3fa5d05ed91),
];

/// (algorithm, mode, per-instance completion-time ratios) for a
/// 6-instance small layered EP (K = 4) cell with base seed 0x5EED.
const GOLDEN_RATIOS: &[(Algorithm, Mode, &[f64])] = &[
    (
        Algorithm::KGreedy,
        Mode::NonPreemptive,
        &[
            1.7391304347826086,
            1.4074074074074074,
            1.2692307692307692,
            1.1111111111111112,
            1.6521739130434783,
            1.4746543778801844,
        ],
    ),
    (
        Algorithm::KGreedy,
        Mode::Preemptive,
        &[
            1.9130434782608696,
            1.4074074074074074,
            1.3846153846153846,
            1.1111111111111112,
            1.6666666666666667,
            1.5529953917050692,
        ],
    ),
    (
        Algorithm::LSpan,
        Mode::NonPreemptive,
        &[
            1.826086956521739,
            1.3703703703703705,
            1.2307692307692308,
            1.0740740740740742,
            1.608695652173913,
            1.4423963133640554,
        ],
    ),
    (
        Algorithm::LSpan,
        Mode::Preemptive,
        &[
            1.7826086956521738,
            1.3703703703703705,
            1.2884615384615385,
            1.1111111111111112,
            1.5942028985507246,
            1.5253456221198156,
        ],
    ),
    (
        Algorithm::DType,
        Mode::NonPreemptive,
        &[
            1.6521739130434783,
            1.4444444444444444,
            1.1923076923076923,
            1.1481481481481481,
            1.318840579710145,
            1.0829493087557605,
        ],
    ),
    (
        Algorithm::DType,
        Mode::Preemptive,
        &[
            1.608695652173913,
            1.4444444444444444,
            1.1923076923076923,
            1.1481481481481481,
            1.318840579710145,
            1.0829493087557605,
        ],
    ),
    (
        Algorithm::MaxDP,
        Mode::NonPreemptive,
        &[
            1.7826086956521738,
            1.4074074074074074,
            1.2115384615384615,
            1.0740740740740742,
            1.565217391304348,
            1.4930875576036866,
        ],
    ),
    (
        Algorithm::MaxDP,
        Mode::Preemptive,
        &[
            1.7826086956521738,
            1.3703703703703705,
            1.2692307692307692,
            1.0740740740740742,
            1.565217391304348,
            1.4930875576036866,
        ],
    ),
    (
        Algorithm::ShiftBT,
        Mode::NonPreemptive,
        &[
            1.9565217391304348,
            1.3703703703703705,
            1.25,
            1.0740740740740742,
            1.5942028985507246,
            1.5622119815668203,
        ],
    ),
    (
        Algorithm::ShiftBT,
        Mode::Preemptive,
        &[
            1.9565217391304348,
            1.3703703703703705,
            1.25,
            1.0740740740740742,
            1.5942028985507246,
            1.576036866359447,
        ],
    ),
    (
        Algorithm::Mqb,
        Mode::NonPreemptive,
        &[
            1.608695652173913,
            1.4074074074074074,
            1.1346153846153846,
            1.1851851851851851,
            1.391304347826087,
            1.576036866359447,
        ],
    ),
    (
        Algorithm::Mqb,
        Mode::Preemptive,
        &[
            1.6521739130434783,
            1.3703703703703705,
            1.1346153846153846,
            1.2222222222222223,
            1.3768115942028984,
            1.6129032258064515,
        ],
    ),
];

#[test]
fn golden_makespans_and_traces() {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
    let seed = instance_seed(0x5EED, 0);
    let (job, cfg) = spec.sample(seed);
    assert_eq!(
        GOLDEN_RUNS.len(),
        ALL_ALGORITHMS.len() * 2,
        "every algorithm must be pinned in both modes"
    );
    for &(algo, mode, makespan, trace_hash) in GOLDEN_RUNS {
        let mut policy = make_policy(algo);
        let opts = RunOptions::seeded(seed).with_trace();
        let out = engine::run(&job, &cfg, policy.as_mut(), mode, &opts);
        assert_eq!(
            out.makespan,
            makespan,
            "{} {:?}: makespan drifted",
            algo.label(),
            mode
        );
        let csv = trace::to_csv(out.trace.as_ref().expect("trace requested"));
        assert_eq!(
            fnv1a(csv.as_bytes()),
            trace_hash,
            "{} {:?}: schedule (trace) drifted",
            algo.label(),
            mode
        );
    }
}

#[test]
fn golden_run_cell_ratios() {
    let spec = WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 4);
    assert_eq!(GOLDEN_RATIOS.len(), ALL_ALGORITHMS.len() * 2);
    for &(algo, mode, expected) in GOLDEN_RATIOS {
        let got = run_sweep(&spec, &[SweepCell::new(algo, mode)], 6, 0x5EED, Some(1));
        assert_eq!(
            got[0].ratios,
            expected,
            "{} {:?}: per-instance ratios drifted",
            algo.label(),
            mode
        );
    }
}
