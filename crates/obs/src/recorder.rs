//! The [`Recorder`]: all observability state for one engine run, owned
//! by the simulator's `Workspace` so the warm epoch loop stays
//! allocation-free.
//!
//! The engine calls the `record_*`/`timeline_set`/event methods from
//! inside its metered loop; every one of them is an early-return no-op
//! when the corresponding [`ObsConfig`] channel is off, so an
//! unconfigured recorder costs a branch per call site. All storage is
//! sized in [`Recorder::begin_run`] (which the engine invokes *before*
//! sampling its allocation probe) and retained across runs.
//!
//! Recording is observe-only by construction: the recorder exposes no
//! state the engine reads back, so an instrumented run is bit-identical
//! to an uninstrumented one (pinned by proptests in `fhs-core`).

use crate::events::{Event, EventBuf, EventKind, NONE};
use crate::hist::{HistSnapshot, LogHist};
use crate::timeline::{UtilTimeline, UtilizationReport};

/// Which observability channels to record. `Default` is everything off
/// (the recorder no-ops).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-type utilization timelines.
    pub utilization: bool,
    /// Record wall-clock latency histograms (assign latency, epoch
    /// duration) and the ready-queue depth histogram.
    pub latency: bool,
    /// Record the structured event trace.
    pub events: bool,
    /// Event capacity (first-N bound); only meaningful with `events`.
    pub event_cap: usize,
}

impl ObsConfig {
    /// Default event capacity when tracing is requested without an
    /// explicit bound: enough for a Large instance's full trace while
    /// keeping a Huge run's prefix to a few MB.
    pub const DEFAULT_EVENT_CAP: usize = 1 << 16;

    /// `true` when any channel is on.
    pub fn any(&self) -> bool {
        self.utilization || self.latency || self.events
    }

    /// Everything on (used by tests and `bench_gates`' observability gate).
    pub fn all() -> Self {
        ObsConfig {
            utilization: true,
            latency: true,
            events: true,
            event_cap: Self::DEFAULT_EVENT_CAP,
        }
    }
}

/// Per-run observability recorder. Lives in the simulator `Workspace`.
#[derive(Debug, Default)]
pub struct Recorder {
    cfg: ObsConfig,
    timeline: UtilTimeline,
    assign_ns: LogHist,
    epoch_ns: LogHist,
    queue_depth: LogHist,
    events: EventBuf,
    /// Processors per type, captured at `begin_run` (for the report and
    /// processor-lane layout).
    procs: Vec<u32>,
    /// Lane base per type: processor `(alpha, p)` renders on lane
    /// `1 + k + proc_base[alpha] + p`.
    proc_base: Vec<u32>,
    /// The caller's epoch counter at `begin_run`: events carry epochs
    /// relative to it, so a run's trace does not depend on how many runs
    /// its workspace hosted before.
    epoch_base: u64,
}

impl Recorder {
    /// A recorder with everything off.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The active configuration.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// `true` when the event channel is live (callers can skip building
    /// event payloads otherwise).
    #[inline]
    pub fn events_on(&self) -> bool {
        self.cfg.events
    }

    /// `true` when wall-clock latency recording is live (callers can
    /// skip `Instant::now()` otherwise).
    #[inline]
    pub fn latency_on(&self) -> bool {
        self.cfg.latency
    }

    /// `true` when utilization timelines are live.
    #[inline]
    pub fn utilization_on(&self) -> bool {
        self.cfg.utilization
    }

    /// Re-arms the recorder for a run over a machine with
    /// `procs[alpha]` processors of each type, whose epoch counter reads
    /// `epoch_base` now. All storage is sized here; the engine must call
    /// this before sampling its allocation probe. With a default
    /// (`any() == false`) config this clears nothing and the recorder
    /// stays inert.
    pub fn begin_run(&mut self, cfg: ObsConfig, procs: &[usize], epoch_base: u64) {
        self.cfg = cfg;
        self.epoch_base = epoch_base;
        if !cfg.any() {
            return;
        }
        let k = procs.len();
        self.procs.clear();
        self.proc_base.clear();
        let mut base = 0u32;
        for &p in procs {
            self.procs.push(p as u32);
            self.proc_base.push(base);
            base += p as u32;
        }
        if cfg.utilization {
            self.timeline.begin(k);
        }
        if cfg.latency {
            self.assign_ns.reset();
            self.epoch_ns.reset();
            self.queue_depth.reset();
        }
        if cfg.events {
            self.events.begin(if cfg.event_cap == 0 {
                ObsConfig::DEFAULT_EVENT_CAP
            } else {
                cfg.event_cap
            });
            self.events.push(Event {
                kind: EventKind::RunBegin,
                t: 0,
                epoch: 0,
                task: NONE,
                rtype: NONE,
                lane: 0,
                arg: 0,
            });
        }
    }

    /// Number of types the recorder was armed for.
    pub fn num_types(&self) -> usize {
        self.procs.len()
    }

    /// Lane of type `alpha`'s ready queue.
    #[inline]
    fn queue_lane(&self, alpha: usize) -> u32 {
        1 + alpha as u32
    }

    /// Lane of processor `p` of type `alpha`.
    #[inline]
    fn proc_lane(&self, alpha: usize, p: usize) -> u32 {
        1 + self.procs.len() as u32 + self.proc_base[alpha] + p as u32
    }

    /// Records one assign-latency sample (nanoseconds).
    #[inline]
    pub fn record_assign_ns(&mut self, ns: u64) {
        if self.cfg.latency {
            self.assign_ns.record(ns);
        }
    }

    /// Records one epoch-duration sample (nanoseconds).
    #[inline]
    pub fn record_epoch_ns(&mut self, ns: u64) {
        if self.cfg.latency {
            self.epoch_ns.record(ns);
        }
    }

    /// Records one ready-queue depth sample.
    #[inline]
    pub fn record_depth(&mut self, depth: u64) {
        if self.cfg.latency {
            self.queue_depth.record(depth);
        }
    }

    /// Records that type `alpha` has `busy` busy processors from sim
    /// time `t`.
    #[inline]
    pub fn timeline_set(&mut self, alpha: usize, t: u64, busy: u32) {
        if self.cfg.utilization {
            self.timeline.set(alpha, t, busy);
        }
    }

    /// Records a policy-init instant.
    #[inline]
    pub fn policy_init(&mut self) {
        if self.cfg.events {
            self.events.push(Event {
                kind: EventKind::PolicyInit,
                t: 0,
                epoch: 0,
                task: NONE,
                rtype: NONE,
                lane: 0,
                arg: 0,
            });
        }
    }

    /// Records an epoch instant (`assigned`: tasks assigned this epoch).
    #[inline]
    pub fn epoch_event(&mut self, t: u64, epoch: u64, assigned: u64) {
        if self.cfg.events {
            self.events.push(Event {
                kind: EventKind::Epoch,
                t,
                epoch: epoch - self.epoch_base,
                task: NONE,
                rtype: NONE,
                lane: 0,
                arg: assigned,
            });
        }
    }

    /// Records a task-release instant on the type's queue lane.
    #[inline]
    pub fn release(&mut self, t: u64, epoch: u64, task: u32, alpha: usize) {
        if self.cfg.events {
            self.events.push(Event {
                kind: EventKind::Release,
                t,
                epoch: epoch - self.epoch_base,
                task,
                rtype: alpha as u32,
                lane: self.queue_lane(alpha),
                arg: 0,
            });
        }
    }

    /// Records a task start. With `proc = Some(p)` (non-preemptive) this
    /// begins a span on the processor lane; otherwise it is an instant
    /// on the queue lane. `arg` carries the remaining work.
    #[inline]
    pub fn start(
        &mut self,
        t: u64,
        epoch: u64,
        task: u32,
        alpha: usize,
        proc: Option<usize>,
        rem: u64,
    ) {
        if self.cfg.events {
            let lane = match proc {
                Some(p) => self.proc_lane(alpha, p),
                None => self.queue_lane(alpha),
            };
            self.events.push(Event {
                kind: EventKind::Start,
                t,
                epoch: epoch - self.epoch_base,
                task,
                rtype: alpha as u32,
                lane,
                arg: rem,
            });
        }
    }

    /// Records a task completion. With `proc = Some(p)` this ends the
    /// processor-lane span opened by `start`.
    #[inline]
    pub fn complete(&mut self, t: u64, epoch: u64, task: u32, alpha: usize, proc: Option<usize>) {
        if self.cfg.events {
            let lane = match proc {
                Some(p) => self.proc_lane(alpha, p),
                None => self.queue_lane(alpha),
            };
            self.events.push(Event {
                kind: EventKind::Complete,
                t,
                epoch: epoch - self.epoch_base,
                task,
                rtype: alpha as u32,
                lane,
                arg: 0,
            });
        }
    }

    /// Records the run-end instant (`arg` = makespan).
    #[inline]
    pub fn run_end(&mut self, t: u64, epoch: u64) {
        if self.cfg.events {
            self.events.push(Event {
                kind: EventKind::RunEnd,
                t,
                epoch: epoch - self.epoch_base,
                task: NONE,
                rtype: NONE,
                lane: 0,
                arg: t,
            });
        }
    }

    /// Extracts the run's observability payload and disarms the
    /// recorder. Returns `None` when nothing was configured. Called by
    /// the engine *after* its allocation probe sample, so the clones
    /// here are unmetered.
    pub fn take_run(&mut self, makespan: u64) -> Option<Box<RunObs>> {
        if !self.cfg.any() {
            return None;
        }
        let cfg = self.cfg;
        self.cfg = ObsConfig::default();
        Some(Box::new(RunObs {
            util: cfg
                .utilization
                .then(|| self.timeline.report(&self.procs, makespan)),
            assign_ns: if cfg.latency {
                self.assign_ns.snapshot()
            } else {
                HistSnapshot::default()
            },
            epoch_ns: if cfg.latency {
                self.epoch_ns.snapshot()
            } else {
                HistSnapshot::default()
            },
            queue_depth: if cfg.latency {
                self.queue_depth.snapshot()
            } else {
                HistSnapshot::default()
            },
            events: if cfg.events {
                self.events.events().to_vec()
            } else {
                Vec::new()
            },
            events_dropped: if cfg.events { self.events.dropped() } else { 0 },
            k: self.procs.len() as u32,
            procs: self.procs.clone(),
        }))
    }
}

/// One run's extracted observability payload.
#[derive(Clone, Debug)]
pub struct RunObs {
    /// Per-type utilization report (when configured).
    pub util: Option<UtilizationReport>,
    /// Assign-latency histogram (ns), empty when latency was off.
    pub assign_ns: HistSnapshot,
    /// Epoch wall-duration histogram (ns), empty when latency was off.
    pub epoch_ns: HistSnapshot,
    /// Ready-queue depth histogram (per-type samples each epoch), empty
    /// when latency was off.
    pub queue_depth: HistSnapshot,
    /// Recorded events (first-N of the run), empty when tracing was off.
    pub events: Vec<Event>,
    /// Events dropped past the cap.
    pub events_dropped: u64,
    /// Number of resource types.
    pub k: u32,
    /// Processors per type.
    pub procs: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_recorder_is_inert() {
        let mut r = Recorder::new();
        r.begin_run(ObsConfig::default(), &[2, 2], 0);
        r.record_assign_ns(5);
        r.timeline_set(0, 0, 1);
        r.release(0, 1, 3, 0);
        assert!(r.take_run(10).is_none());
    }

    #[test]
    fn full_recording_round_trip() {
        let mut r = Recorder::new();
        r.begin_run(ObsConfig::all(), &[2, 1], 0);
        r.policy_init();
        r.record_depth(3);
        r.record_assign_ns(100);
        r.timeline_set(0, 0, 2);
        r.release(0, 1, 5, 1);
        r.start(0, 1, 5, 1, Some(0), 7);
        r.complete(7, 2, 5, 1, Some(0));
        r.timeline_set(0, 7, 0);
        r.run_end(7, 2);
        let obs = r.take_run(7).expect("payload");
        let util = obs.util.as_ref().expect("util report");
        assert_eq!(util.per_type.len(), 2);
        assert_eq!(util.per_type[0].busy, 14);
        assert_eq!(obs.assign_ns.count, 1);
        assert_eq!(obs.queue_depth.count, 1);
        // RunBegin + PolicyInit + Release + Start + Complete + RunEnd
        assert_eq!(obs.events.len(), 6);
        assert_eq!(obs.events[0].kind, EventKind::RunBegin);
        assert_eq!(obs.events[0].arg, 0);
        // Start landed on type-1 processor lane: 1 + k(2) + base(2) + 0.
        assert_eq!(obs.events[3].lane, 5);
        // take_run disarms.
        assert!(r.take_run(7).is_none());
    }

    #[test]
    fn event_cap_zero_uses_default() {
        let mut r = Recorder::new();
        let cfg = ObsConfig {
            events: true,
            ..ObsConfig::default()
        };
        r.begin_run(cfg, &[1], 0);
        for i in 0..10 {
            r.epoch_event(i, i, 0);
        }
        let obs = r.take_run(10).unwrap();
        assert_eq!(obs.events.len(), 11); // RunBegin + 10 epochs, well under cap
        assert_eq!(obs.events_dropped, 0);
    }

    #[test]
    fn tight_event_cap_counts_drops() {
        let mut r = Recorder::new();
        let cfg = ObsConfig {
            events: true,
            event_cap: 3,
            ..ObsConfig::default()
        };
        r.begin_run(cfg, &[1], 0);
        for i in 0..10 {
            r.epoch_event(i, i, 0);
        }
        let obs = r.take_run(10).unwrap();
        assert_eq!(obs.events.len(), 3);
        assert_eq!(obs.events_dropped, 8); // RunBegin took one slot
    }
}
