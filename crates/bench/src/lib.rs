//! # fhs-bench — the release-only test suites
//!
//! This crate holds no code: its test suites live under
//! `crates/bench/tests`:
//!
//! * `bench_gates` — the speed gates: growth exponents, same-binary
//!   speedups against retained oracles and cold paths, and the
//!   observability overhead bound (`-- --ignored` adds the host-speed
//!   gates);
//! * `alloc_regression` — zero-allocation warm reruns;
//! * `huge_smoke`, `huge_mqb_smoke`, `perf_smoke` — the ~110k-task rung;
//! * `stream_smoke`, `mqb_approx_quality` — the session engine and the
//!   approximation's quality.
//!
//! Run them with `cargo test -p fhs-bench --release`; debug builds skip
//! the timing and Huge-rung tests. Speed over time is recorded by the
//! repo benchmark (`perfbench/`), not here.

#![forbid(unsafe_code)]
