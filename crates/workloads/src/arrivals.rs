//! Seeded job-arrival processes for the session engine.
//!
//! A streaming experiment needs *when* jobs arrive and *which* job arrives,
//! both reproducible from a seed. An [`ArrivalPlan`] is a finite, sorted
//! list of [`JobArrival`]s — each an arrival time plus the instance seed to
//! feed [`crate::WorkloadSpec::sample`] — produced by one of two processes:
//!
//! * [`ArrivalPlan::poisson`] — memoryless arrivals: inter-arrival gaps
//!   are i.i.d. exponential with the given mean, the classic open-system
//!   load model (offered load is then `mean job work / (gap × capacity)`).
//! * [`ArrivalPlan::random_order`] — the random-order (secretary) model of
//!   Im et al. (PAPERS.md): a *fixed* set of jobs, identified by seeds
//!   `base..base+n`, arrives as a uniformly random permutation at a fixed
//!   cadence. Adversarial job sets, stochastic order — exactly the regime
//!   where online policies beat their worst-case bounds.
//!
//! Determinism contract: the same constructor arguments produce the same
//! plan on every platform (the exponential draw uses the shim rng's fixed
//! 53-bit uniform; the permutation is a seeded Fisher–Yates).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One planned job arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobArrival {
    /// Simulation time the job is admitted.
    pub t: u64,
    /// Seed identifying the job instance (fed to `WorkloadSpec::sample`).
    pub seed: u64,
}

/// A finite, time-sorted arrival schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalPlan {
    arrivals: Vec<JobArrival>,
}

impl ArrivalPlan {
    /// Poisson process: `n` arrivals whose inter-arrival gaps are i.i.d.
    /// exponential with mean `mean_gap` time units (gaps are rounded up,
    /// so consecutive arrivals are at least 1 apart and strictly
    /// increasing). Job `i` carries instance seed `job_seed_base + i`.
    ///
    /// # Panics
    /// If `mean_gap` is not positive and finite.
    pub fn poisson(n: usize, mean_gap: f64, seed: u64, job_seed_base: u64) -> Self {
        assert!(
            mean_gap.is_finite() && mean_gap > 0.0,
            "mean_gap must be positive and finite, got {mean_gap}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0u64;
        let arrivals = (0..n)
            .map(|i| {
                // Inverse-CDF exponential: -mean · ln(1 - U), U ∈ [0, 1).
                let u: f64 = rng.gen();
                let gap = (-mean_gap * (1.0 - u).ln()).ceil();
                t += (gap as u64).max(1);
                JobArrival {
                    t,
                    seed: job_seed_base + i as u64,
                }
            })
            .collect();
        ArrivalPlan { arrivals }
    }

    /// Random-order model: the fixed job set `{job_seed_base, …,
    /// job_seed_base + n − 1}` arrives as a seeded uniformly random
    /// permutation, one job every `gap` time units starting at `gap`.
    ///
    /// # Panics
    /// If `gap` is zero.
    pub fn random_order(n: usize, gap: u64, seed: u64, job_seed_base: u64) -> Self {
        assert!(gap > 0, "gap must be positive");
        let mut order: Vec<u64> = (0..n as u64).map(|i| job_seed_base + i).collect();
        // Fisher–Yates with the seeded shim rng: uniform over permutations.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let arrivals = order
            .into_iter()
            .enumerate()
            .map(|(i, seed)| JobArrival {
                t: (i as u64 + 1) * gap,
                seed,
            })
            .collect();
        ArrivalPlan { arrivals }
    }

    /// The arrivals, sorted by time (ties impossible by construction).
    pub fn arrivals(&self) -> &[JobArrival] {
        &self.arrivals
    }

    /// Number of planned arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_sorted_and_strictly_increasing() {
        let a = ArrivalPlan::poisson(64, 10.0, 7, 100);
        let b = ArrivalPlan::poisson(64, 10.0, 7, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.arrivals().windows(2).all(|w| w[0].t < w[1].t));
        assert_eq!(a.arrivals()[0].seed, 100);
        assert_eq!(a.arrivals()[63].seed, 163);
        // A different seed moves the times.
        let c = ArrivalPlan::poisson(64, 10.0, 8, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_gap_is_roughly_respected() {
        let a = ArrivalPlan::poisson(2000, 10.0, 42, 0);
        let horizon = a.arrivals().last().expect("2000 arrivals").t;
        let mean = horizon as f64 / a.len() as f64;
        // Exponential(10) gaps, ceiled: the empirical mean lands near
        // 10.5; allow generous slack for the fixed seed.
        assert!((8.0..14.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn random_order_is_a_permutation_of_the_fixed_set() {
        let a = ArrivalPlan::random_order(32, 5, 9, 50);
        assert_eq!(a.len(), 32);
        // Fixed cadence.
        assert!(a
            .arrivals()
            .iter()
            .enumerate()
            .all(|(i, ar)| ar.t == (i as u64 + 1) * 5));
        // Same multiset of seeds, not (for this seed) the identity order.
        let mut seeds: Vec<u64> = a.arrivals().iter().map(|ar| ar.seed).collect();
        assert!(seeds.windows(2).any(|w| w[0] > w[1]), "expected a shuffle");
        seeds.sort_unstable();
        assert_eq!(seeds, (50..82).collect::<Vec<u64>>());
        // Deterministic; different seed → different permutation.
        assert_eq!(a, ArrivalPlan::random_order(32, 5, 9, 50));
        assert_ne!(a, ArrivalPlan::random_order(32, 5, 10, 50));
    }

    #[test]
    fn empty_plans_are_well_formed() {
        let p = ArrivalPlan::poisson(0, 1.0, 0, 0);
        assert!(p.is_empty());
        let r = ArrivalPlan::random_order(0, 1, 0, 0);
        assert!(r.is_empty());
    }
}
