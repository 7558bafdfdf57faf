//! Host-speed calibration.
//!
//! The benchmark's host may run the same code at very different speeds
//! from one minute to the next (a shared machine whose other tenants come
//! and go). A fixed reference kernel that uses none of the repository's
//! code is timed between passes, and between the sweeps of a pass, on as
//! many threads as the passes use; its slowdown against a nominal time
//! estimates the host's slowdown, and the time metrics are scaled back to
//! the nominal host. A change to the
//! repository's code moves the passes and not the reference, so it shows
//! in full.

use std::time::Instant;

/// Entries in the reference's pointer chain: 256 KB of `u32`, so the
/// kernel runs from the core's own caches and measures the CPU time the
/// host grants, not the memory traffic of its other tenants.
const CHAIN_LEN: usize = 1 << 16;
/// Chain steps per thread in one timing.
const STEPS: usize = 1 << 20;
/// The reference's time per thread, in nanoseconds, on the nominal host:
/// the 2-vCPU host the benchmark was sized on, at its typical speed.
pub const NOMINAL_NS: f64 = 9.5e6;

/// The reference kernel: a pointer chase through one random cycle mixed
/// with integer hashing.
pub struct Reference {
    chain: Vec<u32>,
}

impl Reference {
    /// Builds the chain (deterministic; not timed).
    pub fn new() -> Reference {
        // Sattolo's algorithm: a uniformly random single cycle.
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHAIN_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chain.swap(i, (x % i as u64) as usize);
        }
        Reference { chain }
    }

    /// The host's slowdown against the nominal host, from one run of the
    /// kernel on each of `threads` threads at once: the mean per-thread
    /// time over [`NOMINAL_NS`].
    pub fn slowdown(&self, threads: usize) -> f64 {
        let threads = threads.max(1);
        let total_ns: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let chain = &self.chain;
                    s.spawn(move || {
                        let t0 = Instant::now();
                        let mut at = (t * CHAIN_LEN / threads) as u32;
                        let mut h = 0u64;
                        for _ in 0..STEPS {
                            at = chain[at as usize];
                            h = (h ^ u64::from(at))
                                .wrapping_mul(0x100_0000_01B3)
                                .rotate_left(5);
                        }
                        std::hint::black_box(h);
                        t0.elapsed().as_nanos() as f64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread"))
                .sum()
        });
        total_ns / threads as f64 / NOMINAL_NS
    }
}
