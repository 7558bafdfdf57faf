//! Closed-form bounds (paper §III).

/// Lemma 1: with `n` balls of which `r` are red, drawn one at a time
/// uniformly without replacement, the expected number of draws needed to
/// collect **all** red balls is `r(n+1)/(r+1)`.
///
/// # Panics
/// If `r > n`.
pub fn lemma1_expected_steps(n: u64, r: u64) -> f64 {
    assert!(r <= n, "cannot have more red balls than balls");
    if r == 0 {
        return 0.0;
    }
    r as f64 * (n as f64 + 1.0) / (r as f64 + 1.0)
}

/// Theorem 2: the competitive ratio of any randomized online algorithm for
/// K-DAG scheduling is at least
///
/// `K + 1 − Σ_α 1/(P_α + 1) − 1/(P_max + 1)`.
///
/// (The paper's abstract quotes the deterministic variant with `1/P_max`;
/// the theorem proved in §III carries `1/(P_max + 1)`. We implement the
/// theorem.)
///
/// # Panics
/// If `procs` is empty or contains a zero.
pub fn theorem2_lower_bound(procs: &[usize]) -> f64 {
    assert!(!procs.is_empty(), "need at least one type");
    assert!(procs.iter().all(|&p| p > 0), "pools must be non-empty");
    let k = procs.len() as f64;
    let sum: f64 = procs.iter().map(|&p| 1.0 / (p as f64 + 1.0)).sum();
    let pmax = *procs.iter().max().expect("non-empty") as f64;
    k + 1.0 - sum - 1.0 / (pmax + 1.0)
}

/// KGreedy's guarantee: `(K+1)`-competitive completion time (paper §III,
/// "Performance Upper Bound").
pub fn kgreedy_upper_bound(k: usize) -> f64 {
    k as f64 + 1.0
}

/// The expected completion time the Theorem-2 analysis ascribes to *any*
/// online algorithm on the adversarial family:
///
/// `E[T] ≥ (K + 1 − Σ_α 1/(P_α+1)) · m·P_K − m·P_K/(P_K+1) − 1`.
pub fn adversarial_online_expected_makespan(procs: &[usize], m: u64) -> f64 {
    let sum: f64 = procs.iter().map(|&p| 1.0 / (p as f64 + 1.0)).sum();
    let k = procs.len() as f64;
    let pk = *procs.last().expect("non-empty") as f64;
    (k + 1.0 - sum) * (m as f64) * pk - (m as f64) * pk / (pk + 1.0) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma1_edge_cases() {
        assert_eq!(lemma1_expected_steps(10, 0), 0.0);
        // all balls red: must draw them all -> n·(n+1)/(n+1) = n
        assert_eq!(lemma1_expected_steps(7, 7), 7.0);
        // one red among n: expected position (n+1)/2
        assert_eq!(lemma1_expected_steps(9, 1), 5.0);
    }

    #[test]
    fn lemma1_is_monotone_in_r() {
        let mut prev = 0.0;
        for r in 1..=20 {
            let v = lemma1_expected_steps(20, r);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "more red balls")]
    fn lemma1_rejects_r_gt_n() {
        lemma1_expected_steps(3, 4);
    }

    #[test]
    fn theorem2_approaches_k_plus_one() {
        let b = theorem2_lower_bound(&[10_000; 5]);
        assert!(b > 5.99 && b < 6.0);
    }

    #[test]
    fn theorem2_hand_computed_small_case() {
        // K=2, P=[1,1]: 3 − 1/2 − 1/2 − 1/2 = 1.5
        assert!((theorem2_lower_bound(&[1, 1]) - 1.5).abs() < 1e-12);
        // K=4, P=[2,2,2,2]: 5 − 4/3 − 1/3 = 10/3
        assert!((theorem2_lower_bound(&[2; 4]) - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bound_hierarchy_holds() {
        // randomized LB ≤ deterministic LB ≤ KGreedy guarantee
        for procs in [vec![1usize, 2], vec![3, 3, 3], vec![1, 5, 10, 10]] {
            let rand_lb = theorem2_lower_bound(&procs);
            // He/Sun/Hsu's deterministic bound, K + 1 − 1/P_max (§III).
            let pmax = *procs.iter().max().expect("non-empty") as f64;
            let det_lb = procs.len() as f64 + 1.0 - 1.0 / pmax;
            let ub = kgreedy_upper_bound(procs.len());
            assert!(rand_lb <= det_lb + 1e-12, "{procs:?}");
            assert!(det_lb <= ub, "{procs:?}");
        }
    }

    #[test]
    fn adversarial_expected_makespan_dominates_optimum_for_large_m() {
        let procs = vec![2usize, 2, 3];
        let m = 100;
        let t_star = (procs.len() as f64 - 1.0) + (m as f64) * 3.0;
        let online = adversarial_online_expected_makespan(&procs, m);
        // the ratio approaches the Theorem-2 bound from below
        let ratio = online / t_star;
        let bound = theorem2_lower_bound(&procs);
        assert!(ratio > bound - 0.1, "ratio {ratio} vs bound {bound}");
        assert!(ratio < bound + 0.1);
    }
}

#[cfg(test)]
mod pmf_tests {
    use super::*;

    /// Lemma 1's full distribution: `Pr[Q = q]` where `Q` is the number of
    /// draws needed to collect all `r` red balls among `n`. From the paper's
    /// proof: `Pr[Q = r+i] = C(r+i−1, i) / C(n, r)` — the last red ball is at
    /// position `r+i` and the `i` black balls before it may sit anywhere among
    /// the first `r+i−1` positions.
    ///
    /// Returns 0 outside the support `r ≤ q ≤ n` (and for `r = 0` the
    /// distribution is a point mass at 0).
    fn lemma1_pmf(n: u64, r: u64, q: u64) -> f64 {
        assert!(r <= n, "cannot have more red balls than balls");
        if r == 0 {
            return if q == 0 { 1.0 } else { 0.0 };
        }
        if q < r || q > n {
            return 0.0;
        }
        let i = q - r;
        // C(r+i−1, i) / C(n, r) computed in log space for robustness.
        (ln_choose(r + i - 1, i) - ln_choose(n, r)).exp()
    }

    /// `ln C(n, k)` via `ln Γ` (Stirling-free exact accumulation; n stays
    /// small in our uses).
    fn ln_choose(n: u64, k: u64) -> f64 {
        assert!(k <= n);
        let k = k.min(n - k);
        let mut acc = 0.0f64;
        for j in 0..k {
            acc += ((n - j) as f64).ln() - ((j + 1) as f64).ln();
        }
        acc
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, r) in &[(10u64, 3u64), (20, 1), (7, 7), (15, 6)] {
            let total: f64 = (0..=n).map(|q| lemma1_pmf(n, r, q)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} r={r}: total {total}");
        }
    }

    #[test]
    fn pmf_expectation_matches_lemma1() {
        for &(n, r) in &[(10u64, 3u64), (25, 5), (12, 12), (30, 1)] {
            let e: f64 = (0..=n).map(|q| q as f64 * lemma1_pmf(n, r, q)).sum();
            let exact = lemma1_expected_steps(n, r);
            assert!((e - exact).abs() < 1e-8, "n={n} r={r}: {e} vs {exact}");
        }
    }

    #[test]
    fn pmf_support_is_r_to_n() {
        assert_eq!(lemma1_pmf(10, 3, 2), 0.0);
        assert_eq!(lemma1_pmf(10, 3, 11), 0.0);
        assert!(lemma1_pmf(10, 3, 3) > 0.0);
        assert!(lemma1_pmf(10, 3, 10) > 0.0);
        // all red: point mass at n
        assert_eq!(lemma1_pmf(5, 5, 5), 1.0);
        // no red: point mass at 0
        assert_eq!(lemma1_pmf(5, 0, 0), 1.0);
        assert_eq!(lemma1_pmf(5, 0, 1), 0.0);
    }

    #[test]
    fn pmf_minimum_case_probability() {
        // Pr[Q = r] = 1/C(n, r): all reds drawn first.
        let p = lemma1_pmf(6, 2, 2);
        assert!((p - 1.0 / 15.0).abs() < 1e-12);
    }
}
