//! The pre-incremental ShiftBT sequencing loop (paper §IV-B), kept
//! verbatim as the oracle of fhs-core's incremental `sequence_bottlenecks`:
//! every round re-simulates every remaining type's relaxation from
//! scratch, to completion, with fresh allocations. O(K²) full simulations,
//! so keep it off Huge instances outside of the speed gates.
//!
//! Test support, not part of fhs-core's API: the `shiftbt_equivalence`,
//! `ranked_equivalence` and `bench_gates` suites include this one file by
//! `#[path]`, and so do the `shiftbt` unit tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fhs_sim::MachineConfig;
use kdag::{KDag, TaskId};

/// Runs the original bottleneck-sequencing loop and returns the
/// bottleneck order (most-late type first) and the per-task rank
/// table, exactly as `fhs_core::ShiftBT` computes them.
pub fn bottleneck_sequencing(
    job: &KDag,
    config: &MachineConfig,
    due: &[u64],
) -> (Vec<usize>, Vec<f64>) {
    let k = job.num_types();
    let mut fixed: Vec<Option<Vec<u64>>> = vec![None; k];
    let mut bottleneck_order = Vec::new();

    let mut remaining: Vec<usize> = (0..k).collect();
    while !remaining.is_empty() {
        let mut best: Option<(i64, usize, Vec<TaskId>)> = None;
        for &alpha in &remaining {
            let (lateness, seq) = relax(job, config, &fixed, alpha, due);
            let better = match &best {
                None => true,
                Some((bl, ba, _)) => lateness > *bl || (lateness == *bl && alpha < *ba),
            };
            if better {
                best = Some((lateness, alpha, seq));
            }
        }
        let (_, alpha, seq) = best.expect("remaining non-empty");
        let mut ranks = vec![0u64; job.num_tasks()];
        for (pos, &v) in seq.iter().enumerate() {
            ranks[v.index()] = pos as u64;
        }
        fixed[alpha] = Some(ranks);
        bottleneck_order.push(alpha);
        remaining.retain(|&a| a != alpha);
    }

    let mut rank = vec![0.0; job.num_tasks()];
    for v in job.tasks() {
        let alpha = job.rtype(v);
        rank[v.index()] = fixed[alpha].as_ref().expect("all types fixed")[v.index()] as f64;
    }
    (bottleneck_order, rank)
}

/// One-type relaxation: simulate the whole job with type `target` at
/// its real capacity under EDD, fixed types at their capacity under
/// their frozen sequences, and all other types at infinite capacity.
/// Returns the maximum start-based lateness over `target`'s tasks
/// (`i64::MIN` if the type has none) and the `target` tasks in start
/// order.
fn relax(
    job: &KDag,
    config: &MachineConfig,
    fixed: &[Option<Vec<u64>>],
    target: usize,
    due: &[u64],
) -> (i64, Vec<TaskId>) {
    let k = job.num_types();
    let n = job.num_tasks();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| job.num_parents(TaskId::from_index(i)) as u32)
        .collect();
    let mut ready: Vec<Vec<TaskId>> = vec![Vec::new(); k];
    for v in job.roots() {
        ready[job.rtype(v)].push(v);
    }
    let capacity: Vec<Option<usize>> = (0..k)
        .map(|a| {
            if a == target || fixed[a].is_some() {
                Some(config.procs(a))
            } else {
                None // infinite
            }
        })
        .collect();
    let key = |alpha: usize, v: TaskId| -> u64 {
        if alpha == target {
            due[v.index()]
        } else if let Some(rk) = &fixed[alpha] {
            rk[v.index()]
        } else {
            0 // infinite capacity: order irrelevant
        }
    };

    let mut busy = vec![0usize; k];
    let mut heap: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut starts: Vec<(u64, TaskId)> = Vec::new();
    let mut max_lateness = i64::MIN;
    let mut done = 0usize;

    while done < n {
        // Dispatch at `now`.
        for alpha in 0..k {
            let free = match capacity[alpha] {
                Some(c) => c - busy[alpha],
                None => usize::MAX,
            };
            if free == 0 || ready[alpha].is_empty() {
                continue;
            }
            ready[alpha].sort_unstable_by_key(|&v| (key(alpha, v), v));
            let take = free.min(ready[alpha].len());
            for &v in ready[alpha].iter().take(take) {
                if alpha == target {
                    starts.push((now, v));
                    max_lateness = max_lateness.max(now as i64 - due[v.index()] as i64);
                }
                busy[alpha] += 1;
                heap.push(Reverse((now + job.work(v), v)));
            }
            ready[alpha].drain(..take);
        }

        // Advance to the next completion.
        let Reverse((t, v)) = heap.pop().expect("work remains, something must be running");
        now = t;
        let mut finished = vec![v];
        while let Some(&Reverse((t2, _))) = heap.peek() {
            if t2 != now {
                break;
            }
            finished.push(heap.pop().expect("peeked").0 .1);
        }
        for v in finished {
            busy[job.rtype(v)] -= 1;
            done += 1;
            for &c in job.children(v) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    ready[job.rtype(c)].push(c);
                }
            }
        }
    }

    starts.sort_unstable_by_key(|&(t, v)| (t, due[v.index()], v));
    (max_lateness, starts.into_iter().map(|(_, v)| v).collect())
}
