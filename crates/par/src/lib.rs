//! # fhs-par — persistent worker pool
//!
//! The experiment harness evaluates thousands of independent `(job,
//! policy)` instances per table cell; this crate fans that work across
//! cores through [`pool()`], a lazily-initialized **persistent** worker
//! pool shared by the whole process. The sweep runner and the figure
//! binaries call [`Pool::map`] many times per run; helper threads are
//! spawned once and reused, so steady-state fan-out pays no thread-spawn
//! cost and per-thread state (the harness's warm workspaces) survives
//! from one call to the next. The crate is built on `std` alone.
//!
//! Work distribution is pull-based and **chunked**: items are split into
//! contiguous chunks (plus per-item singleton chunks for the unbalanced
//! tail), team members pop the next chunk from a shared queue, map it into
//! a chunk-owned output buffer, and the caller stitches buffers back into
//! input order by chunk offset. No per-item channel sends, and no per-slot
//! result mutexes: a result is written exactly once, into a buffer its
//! worker owns. Uneven per-item cost (MQB instances are much more
//! expensive than KGreedy ones) still balances because idle workers keep
//! pulling.
//!
//! ```
//! let cubes = fhs_par::pool().map((0..10u64).collect(), |i| i * i * i);
//! assert_eq!(cubes[9], 729);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Team size of the global [`pool()`]: the machine's available
/// parallelism, floor 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Chunking.
// ---------------------------------------------------------------------------

/// Splits `items` into contiguous `(start_offset, chunk)` pieces for a team
/// of `team` workers: head chunks of roughly a quarter of a fair share
/// each, then one singleton chunk per item for the last `2 × team` items so
/// an expensive straggler can't serialize the tail. The layout depends only
/// on `(len, team)` — never on execution order — so stitched results are
/// deterministic.
fn make_chunks<T>(mut items: Vec<T>, team: usize) -> VecDeque<(usize, Vec<T>)> {
    let n = items.len();
    let team = team.max(1);
    let tail_len = n.min(team * 2);
    let head_len = n - tail_len;
    let chunk = (head_len / (team * 4)).max(1);
    let mut bounds: Vec<usize> = Vec::new();
    let mut s = 0usize;
    while s < head_len {
        bounds.push(s);
        s += chunk.min(head_len - s);
    }
    while s < n {
        bounds.push(s);
        s += 1;
    }
    let mut out = VecDeque::with_capacity(bounds.len());
    for &b in bounds.iter().rev() {
        let piece = items.split_off(b);
        out.push_front((b, piece));
    }
    out
}

fn pop_chunk<T>(chunks: &Mutex<VecDeque<(usize, Vec<T>)>>) -> Option<(usize, Vec<T>)> {
    chunks
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
}

/// Reassembles chunk-owned output buffers into input order.
fn stitch<U>(n: usize, mut parts: Vec<(usize, Vec<U>)>) -> Vec<U> {
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    debug_assert_eq!(out.len(), n);
    out
}

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent team of helper threads plus the calling thread.
///
/// The process-wide instance is obtained through [`pool()`]; explicit pools
/// (mainly for tests) come from [`Pool::with_helpers`]. The calling thread
/// always participates in [`Pool::map`], so a pool with zero helpers — the
/// single-core case — degenerates to a plain sequential map with no
/// synchronization at all, and re-entrant `map` calls from inside a job
/// cannot deadlock.
pub struct Pool {
    helpers: usize,
    /// Job injector; `None` when the pool has no helper threads.
    inject: Option<SyncSender<Job>>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide persistent pool, spawned on first use with
/// [`default_workers`]`- 1` helper threads (the caller is the last team
/// member). All sweep/figure fan-out goes through this handle, so a full
/// experiment campaign spawns its threads exactly once.
pub fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool::with_helpers(default_workers().saturating_sub(1)))
}

impl Pool {
    /// Spawns a pool with exactly `helpers` persistent helper threads.
    /// Dropping the pool closes the injector and the helpers exit.
    pub fn with_helpers(helpers: usize) -> Pool {
        if helpers == 0 {
            return Pool {
                helpers,
                inject: None,
            };
        }
        let (tx, rx) = mpsc::sync_channel::<Job>(helpers * 2);
        let rx: Arc<Mutex<Receiver<Job>>> = Arc::new(Mutex::new(rx));
        for i in 0..helpers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("fhs-pool-{i}"))
                .spawn(move || loop {
                    // The receiver lock is held only while waiting for the
                    // next job: the guard is a temporary of this `let`
                    // statement (a `while let` would keep it for the whole
                    // body), so the job runs with the queue free for the
                    // other helpers. No code panics while holding it.
                    let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(job) = next else { break };
                    // A panicking job must not kill the worker: the panic
                    // payload is forwarded to the caller through the job's
                    // own result channel; here we only keep the thread
                    // alive.
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
                .expect("spawn pool worker");
        }
        Pool {
            helpers,
            inject: Some(tx),
        }
    }

    /// Team size: helper threads plus the calling thread.
    pub fn workers(&self) -> usize {
        self.helpers + 1
    }

    /// Applies `f` to every item using the whole team, preserving input
    /// order. Panics in `f` propagate to the caller.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.map_with(self.workers(), items, f)
    }

    /// As [`Pool::map`] with the team capped at `max_workers` (caller
    /// included). A cap of 1 runs inline and sequentially.
    pub fn map_with<T, U, F>(&self, max_workers: usize, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let team = max_workers.max(1).min(self.workers()).min(n);
        let Some(inject) = (team > 1).then_some(self.inject.as_ref()).flatten() else {
            return items.into_iter().map(f).collect();
        };

        struct CallState<T, U, F> {
            chunks: Mutex<VecDeque<(usize, Vec<T>)>>,
            results: Sender<(usize, std::thread::Result<Vec<U>>)>,
            f: F,
        }

        let chunks = make_chunks(items, team);
        let total_chunks = chunks.len();
        // Unbounded: helper sends can never block, so an unwinding caller
        // cannot strand a helper mid-send.
        let (res_tx, res_rx) = mpsc::channel();
        let state = Arc::new(CallState {
            chunks: Mutex::new(chunks),
            results: res_tx,
            f,
        });

        let helper_jobs = (team - 1).min(total_chunks);
        for _ in 0..helper_jobs {
            let st = Arc::clone(&state);
            let job: Job = Box::new(move || {
                while let Some((start, chunk)) = pop_chunk(&st.chunks) {
                    let mapped = catch_unwind(AssertUnwindSafe(|| {
                        chunk.into_iter().map(|t| (st.f)(t)).collect::<Vec<U>>()
                    }));
                    if st.results.send((start, mapped)).is_err() {
                        break; // caller is gone (unwound); stop early
                    }
                }
            });
            // Enqueueing a helper job is only an *offer* of parallelism —
            // the caller pops every chunk itself if nobody helps — so a
            // full injector (every helper saturated, possibly parked in
            // this very call stack when maps nest) must skip the offer,
            // never block: a blocking send here can deadlock two team
            // members against each other.
            if inject.try_send(job).is_err() {
                break;
            }
        }

        // The caller pulls chunks too: every chunk is popped exactly once,
        // and each helper-popped chunk produces exactly one result message.
        let mut parts: Vec<(usize, Vec<U>)> = Vec::with_capacity(total_chunks);
        let mut outstanding = total_chunks;
        while let Some((start, chunk)) = pop_chunk(&state.chunks) {
            outstanding -= 1;
            parts.push((start, chunk.into_iter().map(|t| (state.f)(t)).collect()));
        }
        for _ in 0..outstanding {
            let (start, mapped) = res_rx.recv().expect("helper result");
            match mapped {
                Ok(part) => parts.push((start, part)),
                Err(payload) => resume_unwind(payload),
            }
        }
        stitch(n, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_gives_empty_output() {
        for helpers in [0, 2] {
            let p = Pool::with_helpers(helpers);
            let out: Vec<u32> = p.map(Vec::new(), |x: u32| x);
            assert!(out.is_empty());
            let out: Vec<u32> = p.map_with(2, Vec::new(), |x: u32| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn zero_workers_behaves_like_one() {
        // A cap of 0 is clamped to 1: the caller maps every item inline,
        // in order, without offering work to the helpers.
        let p = Pool::with_helpers(2);
        let caller = std::thread::current().id();
        let zero = p.map_with(0, (0..10u32).collect(), move |i| {
            assert_eq!(std::thread::current().id(), caller);
            i + 1
        });
        let one = p.map_with(1, (0..10u32).collect(), |i| i + 1);
        assert_eq!(zero, (1..=10).collect::<Vec<_>>());
        assert_eq!(zero, one);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn chunks_cover_every_index_in_order_once() {
        for n in [0usize, 1, 2, 7, 8, 9, 63, 64, 100, 1000] {
            for team in [1usize, 2, 3, 8] {
                let chunks = make_chunks((0..n).collect(), team);
                let mut seen = Vec::new();
                for (start, part) in &chunks {
                    assert_eq!(part[0], *start, "chunk start offset mismatch");
                    seen.extend(part.iter().copied());
                }
                assert_eq!(seen, (0..n).collect::<Vec<_>>());
                // The tail must be singleton chunks for straggler balance.
                let tail = n.min(team * 2);
                assert!(chunks.iter().rev().take(tail).all(|(_, p)| p.len() == 1));
            }
        }
    }

    #[test]
    fn pool_map_preserves_order_and_reuses_threads() {
        let p = Pool::with_helpers(3);
        assert_eq!(p.workers(), 4);
        for round in 0..3u64 {
            let out = p.map((0..300u64).collect(), move |i| i * 7 + round);
            assert_eq!(out, (0..300).map(|i| i * 7 + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_map_runs_on_multiple_threads() {
        let p = Pool::with_helpers(3);
        let ids = p.map((0..64u32).collect(), |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }

    #[test]
    fn pool_with_zero_helpers_runs_sequentially() {
        let p = Pool::with_helpers(0);
        assert_eq!(p.workers(), 1);
        let out = p.map((0..10u32).collect(), |i| i + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_map_with_cap_one_is_sequential_and_identical() {
        let p = Pool::with_helpers(2);
        let seq = p.map_with(1, (0..128u64).collect(), |i| i.wrapping_mul(3));
        let par = p.map_with(3, (0..128u64).collect(), |i| i.wrapping_mul(3));
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_processes_every_item_exactly_once() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        COUNTER.store(0, Ordering::Relaxed);
        let p = Pool::with_helpers(3);
        let out = p.map((0..500usize).collect(), |i| {
            COUNTER.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(COUNTER.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn global_pool_is_usable_and_stable() {
        let a = pool() as *const Pool;
        let out = pool().map((0..50u64).collect(), |i| i + 1);
        assert_eq!(out[49], 50);
        let b = pool() as *const Pool;
        assert_eq!(a, b, "pool() must return the same persistent instance");
    }

    #[test]
    fn reentrant_pool_map_does_not_deadlock() {
        // A job that itself fans out through the pool: the caller always
        // participates in the chunk drain, so nested maps make progress
        // even when every helper is busy.
        let out = pool().map((0..4u64).collect(), |i| {
            pool()
                .map((0..8u64).collect(), move |j| i * 8 + j)
                .iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(out, expect);
    }
}

#[cfg(test)]
mod panic_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capped boom")]
    fn worker_panics_propagate() {
        // A panic in a team smaller than the pool still reaches the caller.
        let p = Pool::with_helpers(3);
        let _ = p.map_with(2, (0..16u32).collect(), |i| {
            if i == 7 {
                panic!("capped boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn pool_panics_propagate() {
        let p = Pool::with_helpers(3);
        let _ = p.map((0..64u32).collect(), |i| {
            if i == 33 {
                panic!("pool boom");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let p = Pool::with_helpers(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.map((0..32u32).collect(), |i| {
                if i == 5 {
                    panic!("transient");
                }
                i
            })
        }));
        assert!(r.is_err());
        // The helpers must still be alive and serving.
        let out = p.map((0..32u32).collect(), |i| i * 2);
        assert_eq!(out[31], 62);
    }
}
