//! Shared per-instance analysis artifacts.
//!
//! Every offline policy in `fhs-core` starts from one graph analysis:
//! descendant values (MQB), type-blind descendants (MaxDP), remaining
//! spans (LSpan, and — via due dates — EDD and ShiftBT), and
//! different-child distances (DType). A policy reads its analysis from
//! an [`Artifacts`] bundle handed to `fhs_sim::Policy::init`, the only
//! job-initialization hook.
//!
//! Each field is filled on first use: an accessor takes the job and runs
//! its analysis once, so a bundle built with [`Artifacts::new`] computes
//! only what its readers ask for — one policy's table plus the span
//! behind the lower bound. [`Artifacts::compute`] fills every field at
//! once; a sweep evaluating many `(algorithm, mode)` cells on *common
//! random numbers* builds one per sampled instance and shares it across
//! the cells behind an `Arc`. Either way each value is exactly the
//! standalone analysis's, so it is **bit-identical** whichever reader
//! filled it first (property-tested in `fhs-core`'s
//! `artifact_equivalence`).
//!
//! Each analysis walks the job children-first on its own, in
//! [`crate::topo::topological_order`] reversed: `n-1, …, 0` for an
//! id-ordered DAG (every edge from a lower to a higher id, as every
//! workload generator emits), which no analysis allocates, and Kahn's
//! order reversed otherwise. No order is stored. Each is a DP
//! over a task's children, which any reverse topological order has
//! finished before the task, so the values do not depend on which order
//! it is; `kdag`'s `id_order_shortcut_matches_kahn_across_a_relabelling`
//! property test checks every field bit for bit against the same DAG
//! relabelled to take Kahn's path.
//!
//! Each table is stored once, behind an `Arc`, and its accessor returns
//! the bundle's own handle: a reader borrows the table through it, and a
//! policy clones it to keep the table for the length of one run instead
//! of copying its keys. Due dates are not stored at all:
//! [`Artifacts::due_dates`] reads `due(v) = T∞ − span(v)` off the spans.
//!
//! A bundle belongs to one job: every accessor must be passed the job the
//! bundle was first filled for.
//!
//! One slot depends on the machine as well: ShiftBT's [`SequencePlan`]
//! (its bottleneck order and frozen sequences, paper §IV-B) reads the
//! per-type processor counts. kdag cannot run the sequencing itself, so
//! [`Artifacts::sequence_plan`] takes the computation as a closure: the
//! first caller fills the slot, every later one reads it. The plan
//! records the processor counts it was computed for, and the accessor
//! asserts that one bundle only ever sees one machine.

use std::sync::{Arc, OnceLock};

use crate::descendants::{type_blind_descendants, DescendantValues};
use crate::distance::{different_child_distances, Distances};
use crate::duedate::DueDates;
use crate::graph::KDag;
use crate::metrics::remaining_spans;
use crate::types::Work;

/// The per-instance analysis bundle: everything the paper policies
/// precompute in their `init`, each field derived on first use.
#[derive(Clone, Debug, Default)]
pub struct Artifacts {
    descendants: OnceLock<Arc<DescendantValues>>,
    type_blind: OnceLock<Arc<Vec<f64>>>,
    spans: OnceLock<Arc<Vec<Work>>>,
    different_child: OnceLock<Arc<Distances>>,
    sequence_plan: OnceLock<Arc<SequencePlan>>,
}

/// ShiftBT's machine-dependent sequencing result, stored in the bundle
/// so the columns of one instance compute it once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencePlan {
    /// Processors per type the plan was computed for.
    pub procs: Vec<usize>,
    /// Per task: its position in its type's frozen sequence.
    pub rank: Vec<u32>,
    /// Types in the order they were fixed (most-late first).
    pub bottleneck_order: Vec<usize>,
}

impl Artifacts {
    /// An empty bundle; each accessor fills its field on first use.
    pub fn new() -> Self {
        Artifacts::default()
    }

    /// Runs every analysis. O(|V|·K + |E|·K).
    pub fn compute(dag: &KDag) -> Self {
        let a = Artifacts::new();
        a.descendants(dag);
        a.type_blind(dag);
        a.spans(dag);
        a.different_child(dag);
        a
    }

    /// Per-type descendant values, as [`DescendantValues::compute`].
    pub fn descendants(&self, dag: &KDag) -> &Arc<DescendantValues> {
        filled(&self.descendants, || DescendantValues::compute(dag))
    }

    /// Type-blind descendant values, as [`type_blind_descendants`].
    pub fn type_blind(&self, dag: &KDag) -> &Arc<Vec<f64>> {
        filled(&self.type_blind, || type_blind_descendants(dag))
    }

    /// Per-task remaining spans, as [`remaining_spans`].
    pub fn spans(&self, dag: &KDag) -> &Arc<Vec<Work>> {
        filled(&self.spans, || remaining_spans(dag))
    }

    /// The job span `T∞(J)` — the maximum remaining span.
    pub fn span(&self, dag: &KDag) -> Work {
        self.spans(dag).iter().copied().max().unwrap_or(0)
    }

    /// Due dates, as [`crate::duedate::due_dates`], read off the spans.
    pub fn due_dates(&self, dag: &KDag) -> DueDates<'_> {
        DueDates::from_spans(self.spans(dag))
    }

    /// Different-child distances, as [`different_child_distances`].
    pub fn different_child(&self, dag: &KDag) -> &Arc<Distances> {
        filled(&self.different_child, || different_child_distances(dag))
    }

    /// The sequencing plan for the machine with `procs` processors per
    /// type. The first caller fills it with `fill`, which returns the
    /// per-task ranks and the bottleneck order; racing callers wait for
    /// that one fill.
    ///
    /// # Panics
    /// If the bundle's plan was computed for different processor counts:
    /// one bundle serves one machine.
    pub fn sequence_plan(
        &self,
        procs: &[usize],
        fill: impl FnOnce() -> (Vec<u32>, Vec<usize>),
    ) -> &Arc<SequencePlan> {
        let plan = filled(&self.sequence_plan, || {
            let (rank, bottleneck_order) = fill();
            SequencePlan {
                procs: procs.to_vec(),
                rank,
                bottleneck_order,
            }
        });
        assert_eq!(
            plan.procs, procs,
            "an Artifacts bundle serves one machine: its sequence plan was computed for other processor counts"
        );
        plan
    }
}

/// The table in `cell`, computed by `f` on first use.
fn filled<T>(cell: &OnceLock<Arc<T>>, f: impl FnOnce() -> T) -> &Arc<T> {
    cell.get_or_init(|| Arc::new(f()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{descendants, distance, duedate, metrics, KDagBuilder};
    use std::sync::{Arc, Barrier};

    fn layered_job() -> KDag {
        // Three layers with cross edges and multi-parent joins over 3 types.
        let mut b = KDagBuilder::new(3);
        let roots: Vec<_> = (0..4).map(|i| b.add_task(i % 3, (i as u64) + 1)).collect();
        let mids: Vec<_> = (0..5)
            .map(|i| b.add_task((i + 1) % 3, (i as u64 % 4) + 2))
            .collect();
        let sinks: Vec<_> = (0..3).map(|i| b.add_task((i + 2) % 3, 3)).collect();
        for (i, &m) in mids.iter().enumerate() {
            b.add_edge(roots[i % roots.len()], m).unwrap();
            b.add_edge(roots[(i + 1) % roots.len()], m).unwrap();
        }
        for (i, &s) in sinks.iter().enumerate() {
            b.add_edge(mids[i], s).unwrap();
            b.add_edge(mids[(i + 2) % mids.len()], s).unwrap();
        }
        b.build().unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Every field of `a` equals the eager bundle's, `f64`s bit for bit.
    fn assert_fields_match_compute(a: &Artifacts, g: &KDag) {
        let want = Artifacts::compute(g);
        assert_eq!(
            bits(a.descendants(g).values()),
            bits(want.descendants(g).values())
        );
        assert_eq!(bits(a.type_blind(g)), bits(want.type_blind(g)));
        assert_eq!(a.spans(g), want.spans(g));
        assert_eq!(a.span(g), want.span(g));
        assert_eq!(a.due_dates(g).to_vec(), want.due_dates(g).to_vec());
        assert_eq!(a.different_child(g), want.different_child(g));
    }

    #[test]
    fn artifacts_match_standalone_analyses_bitwise() {
        let g = layered_job();
        let a = Artifacts::compute(&g);
        let dv = descendants::DescendantValues::compute(&g);
        assert_eq!(
            bits(a.descendants(&g).values()),
            bits(dv.values()),
            "descendant values must be bit-identical"
        );
        let tb = descendants::type_blind_descendants(&g);
        assert_eq!(bits(a.type_blind(&g)), bits(&tb));
        assert_eq!(**a.spans(&g), metrics::remaining_spans(&g));
        assert_eq!(a.span(&g), metrics::span(&g));
        assert_eq!(a.due_dates(&g).to_vec(), duedate::due_dates(&g));
        assert_eq!(
            **a.different_child(&g),
            distance::different_child_distances(&g)
        );
    }

    #[test]
    fn compute_hands_out_its_own_tables() {
        let g = layered_job();
        let a = Artifacts::compute(&g);
        let b = a.clone();
        // Every read returns the one stored table, and a cloned bundle
        // shares it.
        assert!(Arc::ptr_eq(a.descendants(&g), b.descendants(&g)));
        assert!(Arc::ptr_eq(a.type_blind(&g), b.type_blind(&g)));
        assert!(Arc::ptr_eq(a.spans(&g), b.spans(&g)));
        assert!(Arc::ptr_eq(a.different_child(&g), b.different_child(&g)));
        let plan =
            Arc::clone(a.sequence_plan(&[1, 1, 1], || (vec![0; g.num_tasks()], vec![0, 1, 2])));
        assert!(Arc::ptr_eq(
            &plan,
            a.sequence_plan(&[1, 1, 1], || unreachable!("the plan is filled"))
        ));
        drop(b);
        // The handles keep a table alive past its bundle.
        let spans = Arc::clone(a.spans(&g));
        let want = a.spans(&g).to_vec();
        drop(a);
        assert_eq!(*spans, want);
    }

    #[test]
    fn lazy_fill_in_either_order_equals_compute() {
        let g = layered_job();
        // Due dates first: they are read off the spans, so the spans are
        // filled on the way, and nothing else is.
        let a = Artifacts::new();
        a.due_dates(&g);
        assert!(a.spans.get().is_some());
        assert!(a.descendants.get().is_none() && a.type_blind.get().is_none());
        assert!(a.different_child.get().is_none());
        a.descendants(&g);
        a.different_child(&g);
        a.type_blind(&g);
        assert_fields_match_compute(&a, &g);
        // The reverse order: spans before due dates.
        let b = Artifacts::new();
        b.type_blind(&g);
        b.different_child(&g);
        b.spans(&g);
        assert!(b.descendants.get().is_none());
        b.descendants(&g);
        b.due_dates(&g);
        assert_fields_match_compute(&b, &g);
    }

    #[test]
    fn racing_threads_fill_one_shared_bundle_consistently() {
        let g = layered_job();
        let shared = Arc::new(Artifacts::new());
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let forward = s.spawn(|| {
                start.wait();
                shared.descendants(&g);
                shared.due_dates(&g);
                shared.different_child(&g);
                shared.type_blind(&g);
            });
            let backward = s.spawn(|| {
                start.wait();
                shared.type_blind(&g);
                shared.different_child(&g);
                shared.due_dates(&g);
                shared.descendants(&g);
            });
            forward.join().expect("forward reader panicked");
            backward.join().expect("backward reader panicked");
        });
        assert_fields_match_compute(&shared, &g);
    }

    #[test]
    fn sequence_plan_is_filled_once() {
        let a = Artifacts::new();
        let plan = a
            .sequence_plan(&[2, 1], || (vec![1, 0, 2], vec![1, 0]))
            .clone();
        assert_eq!(plan.procs, [2, 1]);
        assert_eq!(plan.rank, [1, 0, 2]);
        assert_eq!(plan.bottleneck_order, [1, 0]);
        let again = a.sequence_plan(&[2, 1], || unreachable!("the plan is filled"));
        assert_eq!(again, &plan);
    }

    #[test]
    fn empty_graph_artifacts_are_empty() {
        let g = KDagBuilder::new(2).build().unwrap();
        let a = Artifacts::compute(&g);
        assert!(a.spans(&g).is_empty());
        assert_eq!(a.span(&g), 0);
        assert!(a.due_dates(&g).to_vec().is_empty());
    }
}
