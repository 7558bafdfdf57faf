//! Regression test for the pool's try-offer rule: enqueueing a helper job
//! is only an offer of parallelism, never a blocking send.
//!
//! With nested maps every helper can be parked inside an outer job while
//! the injector is full. If the inner map *blocked* on enqueueing its own
//! helper jobs, two team members would wait on each other forever. Under
//! the rule the inner caller skips the offer and drains its chunks itself.
//! A 1-helper pool saturates its injector fastest; a zero-helper pool has
//! no injector at all and must run every level inline.

use fhs_par::Pool;

#[test]
fn nested_maps_on_small_pool() {
    for helpers in [1, 0] {
        let p: &'static Pool = Box::leak(Box::new(Pool::with_helpers(helpers)));
        for round in 0..50 {
            let out = p.map((0..8u64).collect(), move |i| {
                p.map((0..8u64).collect(), move |j| i * 8 + j)
                    .iter()
                    .sum::<u64>()
                    + round
            });
            let expect: Vec<u64> = (0..8)
                .map(|i| (0..8).map(|j| i * 8 + j).sum::<u64>() + round)
                .collect();
            assert_eq!(out, expect, "helpers = {helpers}, round = {round}");
        }
    }
}
