//! Output checks. Every (instance, column) run of a sweep and every
//! streamed job is one *operation*; an operation fails when its output
//! breaks a property the program guarantees:
//!
//! * a completion-time ratio is finite and at least 1, because `L(J)` is a
//!   lower bound on any schedule's completion time;
//! * every streamed job retires exactly once, with a finite slowdown of at
//!   least 1;
//! * a repeated pass, and the traced replay of a pass, reproduce the first
//!   pass's ratios, logical engine counters and job records bit for bit
//!   (compared by hash, per sweep column or stream cell).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use fhs_experiments::runner::SweepCellResult;
use fhs_experiments::stream::StreamResult;
use fhs_obs::JobRecord;
use fhs_sim::RunStats;

use crate::entry::PassOut;
use crate::workload::Pass;

/// Operations attempted and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output broke a check.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks every operation of `out`, the output of `pass`.
pub fn check(pass: &Pass, out: &PassOut) -> Tally {
    let mut tally = Tally::default();
    match (pass, out) {
        (Pass::Sweeps(jobs), PassOut::Sweeps(sweeps)) if jobs.len() == sweeps.len() => {
            for ((job, _), cols) in jobs.iter().zip(sweeps) {
                tally.add(check_sweep(job.instances, job.cells.len(), cols));
            }
        }
        (Pass::Stream(config, cells), PassOut::Stream(results)) if cells.len() == results.len() => {
            for result in results {
                tally.add(check_stream(config.jobs, result));
            }
        }
        _ => {
            tally.attempted = pass.jobs();
            tally.failed = pass.jobs();
        }
    }
    tally
}

fn check_sweep(instances: usize, columns: usize, cols: &[SweepCellResult]) -> Tally {
    let attempted = (instances * columns) as u64;
    let mut failed = (columns.saturating_sub(cols.len()) * instances) as u64;
    for col in cols.iter().take(columns) {
        failed += instances.saturating_sub(col.ratios.len()) as u64;
        failed += col
            .ratios
            .iter()
            .take(instances)
            .filter(|r| !(r.is_finite() && **r >= 1.0))
            .count() as u64;
    }
    Tally {
        attempted,
        failed: failed.min(attempted),
    }
}

fn check_stream(jobs: usize, result: &StreamResult) -> Tally {
    let mut retired = vec![false; jobs];
    let mut failed = 0u64;
    for job in &result.jobs {
        let Some(seen) = usize::try_from(job.id)
            .ok()
            .and_then(|i| retired.get_mut(i))
        else {
            failed += 1;
            continue;
        };
        let slowdown = job.slowdown();
        if *seen || job.finish < job.arrival || !(slowdown.is_finite() && slowdown >= 1.0) {
            failed += 1;
        }
        *seen = true;
    }
    failed += retired.iter().filter(|r| !**r).count() as u64;
    Tally {
        attempted: jobs as u64,
        failed: failed.min(jobs as u64),
    }
}

/// The reproducible part of a pass's output, one entry per sweep column
/// or stream cell: a hash of its ratio bits (a cell's makespan and job
/// records) and logical counters, and the operations the entry covers.
pub type Fingerprint = Vec<(u64, u64)>;

/// `stats` without its wall clocks and per-process pool artifacts
/// (workspace reuse, allocation bytes), which no two runs share.
fn logical_stats(stats: &RunStats) -> RunStats {
    RunStats {
        assign_nanos: 0,
        engine_nanos: 0,
        workspace_reuses: 0,
        workspace_cold_inits: 0,
        epoch_bytes: 0,
        ..*stats
    }
}

/// The fingerprint of `out`.
pub fn fingerprint(out: &PassOut) -> Fingerprint {
    let entry = |ops: usize, fill: &dyn Fn(&mut DefaultHasher)| {
        let mut h = DefaultHasher::new();
        fill(&mut h);
        (h.finish(), ops as u64)
    };
    match out {
        PassOut::Sweeps(sweeps) => sweeps
            .iter()
            .flatten()
            .map(|c| {
                entry(c.ratios.len(), &|h| {
                    c.ratios.iter().for_each(|r| r.to_bits().hash(h));
                    format!("{:?}", logical_stats(&c.stats)).hash(h);
                })
            })
            .collect(),
        PassOut::Stream(results) => results
            .iter()
            .map(|r| {
                entry(r.jobs.len(), &|h| {
                    r.makespan.hash(h);
                    format!("{:?}", r.jobs).hash(h);
                    format!("{:?}", logical_stats(&r.stats)).hash(h);
                })
            })
            .collect(),
    }
}

/// Operations of `expected` whose entry `actual` does not reproduce.
pub fn diff(expected: &Fingerprint, actual: &Fingerprint) -> u64 {
    if expected.len() != actual.len() {
        return expected.iter().map(|e| e.1).sum();
    }
    expected
        .iter()
        .zip(actual)
        .filter(|(e, a)| e != a)
        .map(|(e, _)| e.1)
        .sum()
}

/// Per scheduled job, its completion time over `L(J)`: the ratio `T/L(J)`
/// of a sweep run (the job alone on an empty machine from time 0), or the
/// slowdown of a streamed job (time from arrival to retirement over
/// `L(J)`). Both read the same for a job alone on the machine.
pub fn job_ratios(out: &PassOut) -> Vec<f64> {
    match out {
        PassOut::Sweeps(sweeps) => sweeps
            .iter()
            .flatten()
            .flat_map(|c| c.ratios.iter().copied())
            .collect(),
        PassOut::Stream(results) => results
            .iter()
            .flat_map(|r| r.jobs.iter().map(JobRecord::slowdown))
            .collect(),
    }
}

/// Tasks scheduled by a pass: every run completes each of its job's
/// tasks exactly once, so this is the engine's own completion count.
pub fn tasks(out: &PassOut) -> u64 {
    match out {
        PassOut::Sweeps(sweeps) => sweeps
            .iter()
            .flatten()
            .map(|c| c.stats.transitions.completions)
            .sum(),
        PassOut::Stream(results) => results
            .iter()
            .map(|r| r.stats.transitions.completions)
            .sum(),
    }
}

/// Corrupts copies of real outputs of `pass` and confirms that the checks
/// count each corruption as failed operations instead of passing it.
pub fn self_test(pass: &Pass, out: &PassOut) -> bool {
    let base = check(pass, out).failed;
    let mut bad = out.clone();
    let planted = match &mut bad {
        PassOut::Sweeps(sweeps) => {
            let Some(cols) = sweeps.first_mut().filter(|c| c.len() >= 2) else {
                return false;
            };
            // A ratio below the lower bound, and a NaN.
            cols[0].ratios[0] = 0.5;
            cols[1].ratios[0] = f64::NAN;
            2
        }
        PassOut::Stream(results) => {
            let Some(r) = results.first_mut().filter(|r| r.jobs.len() >= 3) else {
                return false;
            };
            // Job 0 retires twice while the job it displaces never
            // retires, and job 2 finishes faster than its lower bound.
            r.jobs[1] = r.jobs[0].clone();
            r.jobs[2].lower_bound = 2 * r.jobs[2].response() + 2;
            3
        }
    };
    let caught = check(pass, &bad).failed == base + planted;
    caught && diff(&fingerprint(out), &fingerprint(&bad)) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry;
    use crate::workload::Workload;

    fn warm(w: Workload) -> (Pass, PassOut) {
        let pass = w.warmup();
        let dir = std::env::temp_dir().join("fhs-perfbench-test");
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let out = entry::run(&pass, 2, &dir, &mut || {});
        (pass, out)
    }

    #[test]
    fn clean_outputs_pass_and_corruptions_are_counted() {
        for w in [Workload::StreamIr, Workload::LargeFigures] {
            let (pass, out) = warm(w);
            let t = check(&pass, &out);
            assert_eq!(t.failed, 0, "{}", w.name());
            assert_eq!(t.attempted, pass.jobs());
            assert!(self_test(&pass, &out), "{}", w.name());
            assert_eq!(diff(&fingerprint(&out), &fingerprint(&out)), 0);
        }
    }

    #[test]
    fn a_missing_column_fails_all_its_runs() {
        let (pass, mut out) = warm(Workload::LargeFigures);
        let PassOut::Sweeps(sweeps) = &mut out else {
            unreachable!()
        };
        sweeps[0].pop();
        assert_eq!(check(&pass, &out).failed, 1);
    }
}
