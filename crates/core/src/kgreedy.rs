//! KGreedy — the online greedy algorithm (paper §III).
//!
//! KGreedy runs `K` independent Graham greedy schedulers, one per resource
//! type: whenever there are more than `P_α` ready `α`-tasks it executes
//! **any** `P_α` of them, otherwise all of them. "Any" is implemented as a
//! *uniformly random* choice (seeded, hence reproducible): an online
//! scheduler has no information to distinguish ready tasks — the paper's
//! Theorem-2 analysis models exactly this as drawing balls from a
//! non-transparent box (Lemma 1). A deterministic FIFO variant is
//! available as [`FifoGreedy`] for comparison and ablations.
//!
//! The paper shows KGreedy is `(K+1)`-competitive with respect to
//! completion time (an extension of Graham's argument; Theorem 3 of
//! He/Sun/Hsu ICPP'07), which nearly matches the randomized online lower
//! bound of Theorem 2 — see the `fhs-theory` crate. The guarantee holds
//! for any tie-breaking rule, random or FIFO, because both are greedy
//! (work-conserving per type).

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy};
use kdag::{Artifacts, KDag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic FIFO tie-breaking greedy (dispatch in arrival order).
pub use fhs_sim::policy::FifoPolicy as FifoGreedy;

/// The online greedy scheduler with uniformly random tie-breaking.
///
/// The random choice is a *sparse* partial Fisher–Yates: instead of
/// materializing the identity permutation (and a queue snapshot) every
/// contested epoch — O(queue) writes for O(slots) picks — the permutation
/// is virtual. A stamped override table records only the entries the
/// shuffle actually displaced (`value(p) = p` unless stamped this round),
/// and one generation bump replaces clearing it. The chosen *ranks* are
/// then resolved to task ids in a single
/// [`ReadyQueue::select_ranks`](fhs_sim::ReadyQueue) bitmap walk. The RNG
/// call sequence and the emitted id order are bit-for-bit identical to the
/// dense shuffle, so seeds reproduce the same schedules.
#[derive(Clone, Debug)]
pub struct KGreedy {
    rng: StdRng,
    /// Sparse permutation overrides: `over_val[p]` holds `value(p)` iff
    /// `over_gen[p] == gen`; otherwise `value(p) = p`. Sized to the largest
    /// queue seen, never cleared — the generation stamp invalidates stale
    /// entries for free.
    over_val: Vec<u32>,
    over_gen: Vec<u64>,
    gen: u64,
    /// Picked (rank, emission position) pairs for the current type.
    picks: Vec<(u32, u32)>,
    ranks: Vec<u32>,
    ids: Vec<kdag::TaskId>,
}

impl Default for KGreedy {
    fn default() -> Self {
        KGreedy {
            rng: StdRng::seed_from_u64(0),
            over_val: Vec::new(),
            over_gen: Vec::new(),
            gen: 0,
            picks: Vec::new(),
            ranks: Vec::new(),
            ids: Vec::new(),
        }
    }
}

impl Policy for KGreedy {
    fn init(&mut self, _job: &KDag, _config: &MachineConfig, seed: u64, _: &Artifacts) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x4B47_5245_4544_5921);
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        for alpha in 0..view.config.num_types() {
            let queue = &view.queues[alpha];
            let slots = view.slots[alpha];
            if slots == 0 || queue.is_empty() {
                continue;
            }
            if queue.len() <= slots {
                for rt in queue.iter() {
                    out.push(alpha, rt.id);
                }
                continue;
            }
            // Partial Fisher–Yates over the virtual identity permutation of
            // live ranks 0..n. Each pick reads/writes at most two override
            // entries, so a contested epoch costs O(slots), not O(n).
            let n = queue.len();
            if self.over_val.len() < n {
                self.over_val.resize(n, 0);
                self.over_gen.resize(n, 0);
            }
            self.gen += 1;
            let gen = self.gen;
            self.picks.clear();
            for i in 0..slots {
                let j = self.rng.gen_range(i..n);
                let vi = if self.over_gen[i] == gen {
                    self.over_val[i]
                } else {
                    i as u32
                };
                let vj = if self.over_gen[j] == gen {
                    self.over_val[j]
                } else {
                    j as u32
                };
                self.over_val[j] = vi;
                self.over_gen[j] = gen;
                self.over_val[i] = vj;
                self.over_gen[i] = gen;
                self.picks.push((vj, i as u32));
            }
            // Resolve the picked ranks to ids in one queue walk, then emit
            // in the original pick order (it decides processor placement).
            self.picks.sort_unstable();
            self.ranks.clear();
            self.ranks.extend(self.picks.iter().map(|&(rank, _)| rank));
            self.ids.clear();
            self.ids.resize(slots, kdag::TaskId::from_index(0));
            let (picks, ids) = (&self.picks, &mut self.ids);
            queue.select_ranks(&self.ranks, |ri, rt| {
                ids[picks[ri].1 as usize] = rt.id;
            });
            for &id in self.ids.iter() {
                out.push(alpha, id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{engine, metrics, MachineConfig, Mode, RunOptions};
    use kdag::{examples::figure1, KDagBuilder};

    #[test]
    fn greedy_bound_holds_on_figure1() {
        // Graham-style bound per type: T ≤ T∞ + Σ_α T1α/Pα, independent
        // of tie-breaking.
        let job = figure1();
        for p in 1..4 {
            let cfg = MachineConfig::uniform(3, p);
            for seed in 0..5 {
                let out = engine::run(
                    &job,
                    &cfg,
                    &mut KGreedy::default(),
                    Mode::NonPreemptive,
                    &RunOptions::seeded(seed),
                );
                let bound: u64 = kdag::metrics::span(&job)
                    + (0..3)
                        .map(|a| job.total_work_per_type()[a].div_ceil(p as u64))
                        .sum::<u64>();
                assert!(out.makespan <= bound);
            }
        }
    }

    #[test]
    fn kgreedy_is_optimal_on_flat_single_type_unit_jobs() {
        // With unit works, any greedy order is optimal on a flat job.
        let mut b = KDagBuilder::new(1);
        for _ in 0..10 {
            b.add_task(0, 1);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 5);
        let r = metrics::evaluate(&job, &cfg, &mut KGreedy::default(), Mode::NonPreemptive, 3);
        assert_eq!(r.ratio, 1.0);
    }

    #[test]
    fn choice_is_seed_deterministic_but_varies_across_seeds() {
        // A job with 30 distinct-work ready tasks on 1 processor: the
        // execution order (hence nothing) changes the makespan, so compare
        // traces instead.
        let mut b = KDagBuilder::new(1);
        for i in 0..30 {
            b.add_task(0, (i % 7) + 1);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let trace_of = |seed: u64| {
            let out = engine::run(
                &job,
                &cfg,
                &mut KGreedy::default(),
                Mode::NonPreemptive,
                &RunOptions::seeded(seed).with_trace(),
            );
            let mut segs = out.trace.unwrap().segments().to_vec();
            segs.sort_by_key(|s| s.start);
            segs.iter().map(|s| s.task).collect::<Vec<_>>()
        };
        assert_eq!(trace_of(1), trace_of(1));
        assert_ne!(trace_of(1), trace_of(2));
    }

    #[test]
    fn random_choice_never_exceeds_slots() {
        let mut b = KDagBuilder::new(2);
        for i in 0..40 {
            b.add_task(i % 2, 2);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![3, 2]);
        let out = engine::run(
            &job,
            &cfg,
            &mut KGreedy::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(9).with_trace(),
        );
        crate::trace_check::validate(&out.trace.unwrap(), &job, &cfg).unwrap();
    }
}
