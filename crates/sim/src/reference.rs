//! The pre-indexed reference engines: linear-scan state, separate
//! non-preemptive and preemptive loops.
//!
//! This module preserves the simulator as it existed before the indexed
//! ready-set and unified epoch loop landed in [`crate::engine`]: every
//! `start`/`complete`/`progress`/`remaining` walks its type's queue with a
//! linear scan, and removal shifts elements (`Vec::remove` semantics). It
//! exists for two reasons:
//!
//! 1. **Oracle.** The production engine is property-tested to produce
//!    bit-identical outcomes (makespan, busy time, trace) against this
//!    implementation for every policy and mode — the two code paths share
//!    no event-loop code, so agreement on random K-DAGs is strong evidence
//!    the refactor preserved semantics.
//! 2. **Baseline.** The `bench_gates` speed gate asserts the indexed
//!    engine is ≥ 2× faster than this implementation on a wide flat job.
//!
//! No instrumentation is collected here; [`SimOutcome::stats`] is zeroed
//! except for `epochs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kdag::{KDag, TaskId, Work};

use crate::config::MachineConfig;
use crate::engine::{Mode, RunOptions, SimOutcome};
use crate::instrument::RunStats;
use crate::policy::{Assignments, EpochView, Policy, ReadyTask};
use crate::ready_queue::ReadyQueue;
use crate::trace::{Segment, Trace};
use crate::Time;

/// Linear-scan job state: the pre-refactor [`crate::state::JobState`].
/// Queues stay dense (removal shifts), so policies observe exactly the
/// arrival-ordered live sequences of the original implementation.
struct RefState {
    status: Vec<Status>,
    indeg: Vec<u32>,
    queues: Vec<ReadyQueue>,
    queue_work: Vec<Work>,
    next_seq: u32,
    done: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Blocked,
    Ready,
    Running,
    Done,
}

impl RefState {
    fn new(job: &KDag) -> Self {
        let n = job.num_tasks();
        let mut s = RefState {
            status: vec![Status::Blocked; n],
            indeg: (0..n)
                .map(|i| job.num_parents(TaskId::from_index(i)) as u32)
                .collect(),
            queues: vec![ReadyQueue::new(); job.num_types()],
            queue_work: vec![0; job.num_types()],
            next_seq: 0,
            done: 0,
        };
        for v in job.roots() {
            s.release(job, v);
        }
        s
    }

    fn all_done(&self, job: &KDag) -> bool {
        self.done == job.num_tasks()
    }

    fn release(&mut self, job: &KDag, v: TaskId) {
        self.status[v.index()] = Status::Ready;
        let alpha = job.rtype(v);
        let w = job.work(v);
        self.queues[alpha].push(ReadyTask {
            id: v,
            seq: self.next_seq,
            remaining: w,
        });
        self.queue_work[alpha] += w;
        self.next_seq += 1;
    }

    fn start(&mut self, job: &KDag, v: TaskId) -> Work {
        assert_eq!(
            self.status[v.index()],
            Status::Ready,
            "policy selected task {v} which is not ready"
        );
        self.status[v.index()] = Status::Running;
        let alpha = job.rtype(v);
        let rt = self.queues[alpha]
            .scan_remove(v)
            .expect("ready task must be queued");
        self.queue_work[alpha] -= rt.remaining;
        rt.remaining
    }

    fn complete(&mut self, job: &KDag, v: TaskId) {
        let st = self.status[v.index()];
        assert!(
            st == Status::Running || st == Status::Ready,
            "completing task {v} in status {st:?}"
        );
        if st == Status::Ready {
            let alpha = job.rtype(v);
            let rt = self.queues[alpha]
                .scan_remove(v)
                .expect("ready task must be queued");
            self.queue_work[alpha] -= rt.remaining;
        }
        self.status[v.index()] = Status::Done;
        self.done += 1;
        for &c in job.children(v) {
            self.indeg[c.index()] -= 1;
            if self.indeg[c.index()] == 0 {
                self.release(job, c);
            }
        }
    }

    fn progress(&mut self, job: &KDag, v: TaskId, dt: Work) -> Work {
        assert_eq!(
            self.status[v.index()],
            Status::Ready,
            "progressing task {v} which is not a candidate"
        );
        let alpha = job.rtype(v);
        let rem = self.queues[alpha]
            .scan_progress(v, dt)
            .expect("ready task must be queued");
        self.queue_work[alpha] -= dt;
        rem
    }

    fn remaining(&self, job: &KDag, v: TaskId) -> Option<Work> {
        self.queues[job.rtype(v)]
            .scan_find(v)
            .map(|rt| rt.remaining)
    }
}

/// Runs `policy` with the reference engines. Same contract and panics as
/// [`crate::engine::run`].
pub fn run(
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
) -> SimOutcome {
    assert_eq!(
        job.num_types(),
        config.num_types(),
        "job declared K={} but machine has K={}",
        job.num_types(),
        config.num_types()
    );
    policy.init(job, config, opts.seed, &kdag::Artifacts::new());
    let out = match mode {
        Mode::NonPreemptive => run_nonpreemptive(job, config, policy, opts),
        Mode::Preemptive => run_preemptive(job, config, policy, opts, opts.quantum),
    };
    policy.detach_job();
    out
}

fn outcome(makespan: Time, epochs: u64, busy_time: Vec<Time>, trace: Option<Trace>) -> SimOutcome {
    SimOutcome {
        makespan,
        epochs,
        busy_time,
        trace,
        stats: RunStats {
            epochs,
            ..RunStats::default()
        },
        obs: None,
    }
}

fn run_nonpreemptive(
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    opts: &RunOptions,
) -> SimOutcome {
    let k = config.num_types();
    let mut state = RefState::new(job);
    let mut out = Assignments::default();
    let mut heap: BinaryHeap<Reverse<(Time, TaskId)>> = BinaryHeap::new();
    let mut busy = vec![0usize; k];
    let mut busy_time = vec![0u64; k];
    let mut epochs = 0u64;

    let mut free_procs: Vec<Vec<u32>> = (0..k)
        .map(|a| (0..config.procs(a) as u32).rev().collect())
        .collect();
    let mut proc_of: Vec<u32> = vec![0; job.num_tasks()];
    let mut segments: Vec<Segment> = Vec::new();

    let mut now: Time = 0;
    let mut slots = vec![0usize; k];

    if state.all_done(job) {
        let trace = opts.record_trace.then(|| Trace::new(Vec::new(), 0));
        return outcome(0, 0, busy_time, trace);
    }

    loop {
        let mut has_slot_and_work = false;
        for alpha in 0..k {
            slots[alpha] = config.procs(alpha) - busy[alpha];
            if slots[alpha] > 0 && !state.queues[alpha].is_empty() {
                has_slot_and_work = true;
            }
        }
        if has_slot_and_work {
            epochs += 1;
            out.reset(k);
            let view = EpochView {
                time: now,
                job,
                config,
                queues: &state.queues,
                queue_work: &state.queue_work,
                slots: &slots,
                preemptive: false,
            };
            policy.assign(&view, &mut out);
            for alpha in 0..k {
                let chosen = out.chosen(alpha);
                assert!(
                    chosen.len() <= slots[alpha],
                    "policy over-assigned type {alpha}: {} > {} slots",
                    chosen.len(),
                    slots[alpha]
                );
                for i in 0..chosen.len() {
                    let v = out.chosen(alpha)[i];
                    assert_eq!(
                        job.rtype(v),
                        alpha,
                        "policy put task {v} (type {}) on type-{alpha} processors",
                        job.rtype(v)
                    );
                    let rem = state.start(job, v);
                    busy[alpha] += 1;
                    busy_time[alpha] += rem;
                    let p = free_procs[alpha].pop().expect("slot accounting");
                    proc_of[v.index()] = p;
                    heap.push(Reverse((now + rem, v)));
                    if opts.record_trace {
                        segments.push(Segment {
                            task: v,
                            rtype: alpha,
                            proc: p,
                            start: now,
                            end: now + rem,
                        });
                    }
                }
            }
        }

        if heap.is_empty() {
            assert!(
                state.all_done(job),
                "deadlock: no running tasks but {} tasks incomplete",
                job.num_tasks() - state.done
            );
            break;
        }

        let Reverse((t, first)) = heap.pop().expect("checked non-empty");
        now = t;
        finish(job, &mut state, &mut busy, &mut free_procs, &proc_of, first);
        while let Some(&Reverse((t2, _))) = heap.peek() {
            if t2 != now {
                break;
            }
            let Reverse((_, v)) = heap.pop().expect("peeked");
            finish(job, &mut state, &mut busy, &mut free_procs, &proc_of, v);
        }

        if state.all_done(job) {
            break;
        }
    }

    let trace = opts
        .record_trace
        .then(|| Trace::new(std::mem::take(&mut segments), now));
    outcome(now, epochs, busy_time, trace)
}

fn finish(
    job: &KDag,
    state: &mut RefState,
    busy: &mut [usize],
    free_procs: &mut [Vec<u32>],
    proc_of: &[u32],
    v: TaskId,
) {
    let alpha = job.rtype(v);
    busy[alpha] -= 1;
    free_procs[alpha].push(proc_of[v.index()]);
    state.complete(job, v);
}

fn run_preemptive(
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    opts: &RunOptions,
    quantum: Option<Work>,
) -> SimOutcome {
    let k = config.num_types();
    let mut state = RefState::new(job);
    let mut out = Assignments::default();
    let mut busy_time = vec![0u64; k];
    let mut epochs = 0u64;
    let mut now: Time = 0;
    let slots: Vec<usize> = (0..k).map(|a| config.procs(a)).collect();

    let mut last_proc: Vec<Option<u32>> = vec![None; job.num_tasks()];
    let mut segments: Vec<Segment> = Vec::new();

    let mut stamp = vec![0u64; job.num_tasks()];
    let mut epoch_id = 0u64;

    while !state.all_done(job) {
        epoch_id += 1;
        epochs += 1;
        out.reset(k);
        let view = EpochView {
            time: now,
            job,
            config,
            queues: &state.queues,
            queue_work: &state.queue_work,
            slots: &slots,
            preemptive: true,
        };
        policy.assign(&view, &mut out);

        let mut min_rem: Option<Work> = None;
        let mut total_chosen = 0usize;
        for (alpha, &slot_count) in slots.iter().enumerate() {
            let chosen = out.chosen(alpha);
            assert!(
                chosen.len() <= slot_count,
                "policy over-assigned type {alpha}"
            );
            for &v in chosen {
                assert_eq!(job.rtype(v), alpha, "type mismatch for task {v}");
                assert_ne!(stamp[v.index()], epoch_id, "task {v} chosen twice");
                stamp[v.index()] = epoch_id;
                let rem = state
                    .remaining(job, v)
                    .unwrap_or_else(|| panic!("task {v} is not a candidate"));
                assert!(rem > 0, "task {v} already finished");
                min_rem = Some(min_rem.map_or(rem, |m| m.min(rem)));
                total_chosen += 1;
            }
        }
        assert!(
            total_chosen > 0,
            "deadlock: policy assigned nothing with {} tasks incomplete",
            job.num_tasks() - state.done
        );

        let dt = match quantum {
            Some(q) => q.min(min_rem.expect("chosen non-empty")),
            None => min_rem.expect("chosen non-empty"),
        };

        if opts.record_trace {
            for alpha in 0..k {
                let mut used = vec![false; config.procs(alpha)];
                let chosen: Vec<TaskId> = out.chosen(alpha).to_vec();
                let mut needs: Vec<TaskId> = Vec::new();
                for &v in &chosen {
                    match last_proc[v.index()] {
                        Some(p) if !used[p as usize] => used[p as usize] = true,
                        _ => needs.push(v),
                    }
                }
                let mut next_free = 0usize;
                for v in needs {
                    while used[next_free] {
                        next_free += 1;
                    }
                    used[next_free] = true;
                    last_proc[v.index()] = Some(next_free as u32);
                }
                for &v in &chosen {
                    segments.push(Segment {
                        task: v,
                        rtype: alpha,
                        proc: last_proc[v.index()].expect("assigned above"),
                        start: now,
                        end: now + dt,
                    });
                }
            }
        }

        now += dt;
        for (alpha, bt) in busy_time.iter_mut().enumerate() {
            *bt += out.chosen(alpha).len() as u64 * dt;
            for i in 0..out.chosen(alpha).len() {
                let v = out.chosen(alpha)[i];
                if state.progress(job, v, dt) == 0 {
                    state.complete(job, v);
                    last_proc[v.index()] = None;
                }
            }
        }
    }

    if opts.record_trace {
        crate::trace::coalesce(&mut segments);
    }
    let trace = opts
        .record_trace
        .then(|| Trace::new(std::mem::take(&mut segments), now));
    outcome(now, epochs, busy_time, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::policy::FifoPolicy;
    use kdag::KDagBuilder;

    #[test]
    fn reference_matches_engine_on_a_small_job() {
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 2);
        let m = b.add_task(1, 3);
        let z = b.add_task(0, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, z).unwrap();
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(2, 2);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let opts = RunOptions::seeded(0).with_trace();
            let r = run(&job, &cfg, &mut FifoPolicy, mode, &opts);
            let e = engine::run(&job, &cfg, &mut FifoPolicy, mode, &opts);
            assert_eq!(r.makespan, e.makespan);
            assert_eq!(r.busy_time, e.busy_time);
            assert_eq!(r.epochs, e.epochs);
            assert_eq!(
                crate::trace::to_csv(r.trace.as_ref().unwrap()),
                crate::trace::to_csv(e.trace.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn reference_stats_are_zero_except_epochs() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 2);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let r = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert_eq!(r.stats.epochs, r.epochs);
        assert_eq!(r.stats.transitions.releases, 0);
        assert_eq!(r.stats.assign_nanos, 0);
    }
}
