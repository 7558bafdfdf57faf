//! The antichain: a worst case for MQB's dominance pruning, and so an
//! adversary of its *selection cost* rather than of its schedule. Test
//! support: the `mqb_incremental_equivalence` and `bench_gates` suites
//! include this one file by `#[path]`.

use fhs_sim::MachineConfig;
use kdag::{KDag, KDagBuilder};

/// The three-partite shape of Kari, Russell & Shashidhar's k-partite
/// task graphs: K = 3, P = (4, 4, 4), and `n` unit-work type-0 roots,
/// root `i` (1-based) feeding a type-1 child of work `i` and a type-2
/// child of work `n + 1 − i`.
///
/// Every root has the same total descendant value `n + 1`, and the roots'
/// descendant rows `(0, i, n + 1 − i)` are pairwise incomparable, so no
/// root dominates another: exact MQB evaluates the whole ready queue on
/// every pick.
///
/// # Panics
/// If `n == 0`.
pub fn antichain(n: usize) -> (KDag, MachineConfig) {
    assert!(n > 0, "an antichain needs at least one root");
    let n = n as u64;
    let mut b = KDagBuilder::new(3);
    for i in 1..=n {
        let root = b.add_task(0, 1);
        let left = b.add_task(1, i);
        let right = b.add_task(2, n + 1 - i);
        b.add_edge(root, left).expect("root edges are valid");
        b.add_edge(root, right).expect("root edges are valid");
    }
    (
        b.build().expect("a forest of depth one is acyclic"),
        MachineConfig::new(vec![4, 4, 4]),
    )
}
