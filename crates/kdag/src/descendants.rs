//! Descendant values — the lookahead quantity behind MQB and MaxDP.
//!
//! The paper defines, for each task `v` and resource type `α`, a
//! *descendant value* approximating the type-`α` workload downstream of
//! `v`:
//!
//! ```text
//! d_α(v) = 0                                              if v has no children
//! d_α(v) = Σ_{u ∈ children(v)} ( d_α(u) + w_α(u) ) / pr(u) otherwise
//! ```
//!
//! where `pr(u)` is the number of parents of `u` and `w_α(u)` equals
//! `work(u)` if `u` is an `α`-task and 0 otherwise. A node's contribution
//! is split evenly among its parents, so summing over the roots recovers
//! the total per-type work of all non-root tasks exactly (up to rounding;
//! property-tested).
//!
//! MaxDP uses the same recursion with the types collapsed
//! ([`type_blind_descendants`]).

use crate::graph::KDag;
use crate::topo::children_first;
use crate::types::TaskId;

/// Dense `|V| × K` matrix of per-type descendant values.
#[derive(Clone, Debug)]
pub struct DescendantValues {
    k: usize,
    values: Vec<f64>, // row-major: task-major, type-minor
}

impl DescendantValues {
    /// Computes descendant values for every task of `dag` in one reverse
    /// topological sweep, O(|V|·K + |E|·K).
    pub fn compute(dag: &KDag) -> Self {
        let n = dag.num_tasks();
        let k = dag.num_types();
        let mut values = vec![0.0f64; n * k];
        // One reusable per-type accumulator across the whole sweep instead
        // of a fresh allocation per task.
        let mut acc = vec![0.0f64; k];
        for v in children_first(dag) {
            acc.fill(0.0);
            for &u in dag.children(v) {
                let pr = dag.num_parents(u) as f64; // ≥ 1: u has parent v
                let urow = u.index() * k;
                for (alpha, a) in acc.iter_mut().enumerate() {
                    *a += values[urow + alpha] / pr;
                }
                acc[dag.rtype(u)] += dag.work(u) as f64 / pr;
            }
            values[v.index() * k..v.index() * k + k].copy_from_slice(&acc);
        }
        DescendantValues { k, values }
    }

    /// Number of resource types `K`.
    pub fn num_types(&self) -> usize {
        self.k
    }

    /// `d_α(v)` for `alpha < K`.
    #[inline]
    pub fn get(&self, v: TaskId, alpha: usize) -> f64 {
        self.values[v.index() * self.k + alpha]
    }

    /// The full per-type row `[d_0(v), …, d_{K-1}(v)]`.
    #[inline]
    pub fn row(&self, v: TaskId) -> &[f64] {
        &self.values[v.index() * self.k..(v.index() + 1) * self.k]
    }

    /// Sum over all types, `Σ_α d_α(v)` — the type-blind descendant value.
    pub fn total(&self, v: TaskId) -> f64 {
        self.row(v).iter().sum()
    }

    /// The raw row-major `|V| × K` value matrix (task-major, type-minor).
    /// Lets consumers copy the dense matrix out without re-walking rows.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Type-blind descendant values used by MaxDP:
///
/// `d(v) = Σ_{u ∈ children(v)} ( d(u) + w(u) ) / pr(u)`.
///
/// Equal to the per-type row sums of [`DescendantValues`], computed in a
/// single pass without the K-factor.
pub fn type_blind_descendants(dag: &KDag) -> Vec<f64> {
    let n = dag.num_tasks();
    let mut d = vec![0.0f64; n];
    for v in children_first(dag) {
        let mut acc = 0.0;
        for &u in dag.children(v) {
            let pr = dag.num_parents(u) as f64;
            acc += (d[u.index()] + dag.work(u) as f64) / pr;
        }
        d[v.index()] = acc;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KDagBuilder;

    const EPS: f64 = 1e-9;

    #[test]
    fn chain_descendants_accumulate_downstream_work() {
        // t0(type0,w=1) -> t1(type1,w=2) -> t2(type0,w=3)
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 1);
        let m = b.add_task(1, 2);
        let z = b.add_task(0, 3);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, z).unwrap();
        let g = b.build().unwrap();
        let d = DescendantValues::compute(&g);
        assert!((d.get(z, 0) - 0.0).abs() < EPS);
        assert!((d.get(m, 0) - 3.0).abs() < EPS);
        assert!((d.get(m, 1) - 0.0).abs() < EPS);
        assert!((d.get(a, 0) - 3.0).abs() < EPS);
        assert!((d.get(a, 1) - 2.0).abs() < EPS);
        assert!((d.total(a) - 5.0).abs() < EPS);
    }

    #[test]
    fn multi_parent_children_split_contributions() {
        // t0, t1 both -> t2(type1, w=4); pr(t2) = 2 so each parent gets 2.
        let mut b = KDagBuilder::new(2);
        let p0 = b.add_task(0, 1);
        let p1 = b.add_task(0, 1);
        let c = b.add_task(1, 4);
        b.add_edge(p0, c).unwrap();
        b.add_edge(p1, c).unwrap();
        let g = b.build().unwrap();
        let d = DescendantValues::compute(&g);
        assert!((d.get(p0, 1) - 2.0).abs() < EPS);
        assert!((d.get(p1, 1) - 2.0).abs() < EPS);
        assert!((d.get(p0, 0) - 0.0).abs() < EPS);
    }

    #[test]
    fn root_identity_on_diamond() {
        let mut b = KDagBuilder::new(3);
        let a = b.add_task(0, 1);
        let x = b.add_task(1, 2);
        let y = b.add_task(2, 3);
        let z = b.add_task(0, 4);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        let g = b.build().unwrap();
        let d = DescendantValues::compute(&g);
        // Single root ⇒ its descendant row is exactly the non-root work.
        assert!((d.get(a, 0) - 4.0).abs() < EPS);
        assert!((d.get(a, 1) - 2.0).abs() < EPS);
        assert!((d.get(a, 2) - 3.0).abs() < EPS);
    }

    #[test]
    fn type_blind_matches_row_sum() {
        let mut b = KDagBuilder::new(3);
        let mut prev = b.add_task(0, 2);
        for i in 1..12 {
            let v = b.add_task(i % 3, (i as u64 % 4) + 1);
            b.add_edge(prev, v).unwrap();
            if i % 3 == 0 {
                // extra cross edge creating multi-parent nodes
                let extra = b.add_task((i + 1) % 3, 2);
                b.add_edge(extra, v).unwrap();
            }
            prev = v;
        }
        let g = b.build().unwrap();
        let per_type = DescendantValues::compute(&g);
        let blind = type_blind_descendants(&g);
        for v in g.tasks() {
            assert!(
                (per_type.total(v) - blind[v.index()]).abs() < 1e-9,
                "mismatch at {v}"
            );
        }
    }

    #[test]
    fn leaves_have_zero_descendants() {
        let mut b = KDagBuilder::new(2);
        b.add_task(0, 5);
        b.add_task(1, 5);
        let g = b.build().unwrap();
        let d = DescendantValues::compute(&g);
        for v in g.tasks() {
            assert_eq!(d.total(v), 0.0);
        }
    }
}
