//! Core-occupancy timeline: the deterministic list scheduler at the heart of
//! the virtual cluster.
//!
//! Every core has a time at which it becomes free. Scheduling a task that
//! needs `k` cores grabs the `k` earliest-free cores, starts when the last of
//! them is free (and not before the requested earliest start), and occupies
//! them for the task duration. This is exactly the greedy policy a pilot
//! agent applies to its core slots, and it reproduces the batching behaviour
//! of Execution Mode II (more tasks than cores → waves of execution).
//!
//! ## Representation
//!
//! The seed kept one heap entry per core and rebuilt the whole heap on every
//! barrier — O(n) per dispatch and O(n log n) per barrier, which is what
//! made 10⁵-core simulations scheduler-bound. Cores that free at the same
//! instant are interchangeable under the greedy policy, so the timeline now
//! stores *groups*: an [`EventQueue`] of `(free_at, count)` entries whose
//! counts always sum to `n_cores`. A task scheduled on `k` cores pops
//! whole groups until `k` cores are gathered (pushing back the unused
//! remainder of the last group) and pushes one `(end, k)` group — O(g log g)
//! in the number of groups (bounded by in-flight tasks, not cores). When
//! the earliest group is exactly `k` wide — the steady state of equal-width
//! task waves — the pop and push fuse into a single root replacement
//! ([`EventQueue::pop_push`]), one sift instead of two. A barrier just
//! raises a scalar floor (O(1)), and `all_idle_at` reads a running maximum
//! (O(1)).

use crate::events::EventQueue;
use crate::time::SimTime;

/// Occupancy state of a fixed pool of cores.
#[derive(Debug, Clone)]
pub struct CoreTimeline {
    /// Min-heap of `(free_at, core_count)` groups; counts sum to `n_cores`.
    /// FIFO tie-breaking makes equal-time pops deterministic.
    groups: EventQueue<usize>,
    /// Barrier floor: no task may start before this time.
    floor: SimTime,
    /// Running maximum of every scheduled end time and barrier floor —
    /// `all_idle_at` in O(1). Monotone: re-scheduling a popped group always
    /// pushes an end at or after its free time.
    max_free: SimTime,
    n_cores: usize,
    /// Sum of busy core-seconds scheduled so far (for utilization metrics).
    busy_core_seconds: f64,
    recorder: obs::Recorder,
}

/// A scheduled slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub start: SimTime,
    pub end: SimTime,
}

impl CoreTimeline {
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "timeline needs at least one core");
        let mut groups = EventQueue::with_capacity(16);
        groups.push(SimTime::ZERO, n_cores);
        CoreTimeline {
            groups,
            floor: SimTime::ZERO,
            max_free: SimTime::ZERO,
            n_cores,
            busy_core_seconds: 0.0,
            recorder: obs::Recorder::default(),
        }
    }

    /// Attach an observability recorder; scheduling decisions are counted
    /// against it (`timeline.tasks_scheduled`, `timeline.barriers`).
    pub fn set_recorder(&mut self, recorder: obs::Recorder) {
        self.recorder = recorder;
    }

    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Schedule a task needing `cores` cores for `duration` seconds, starting
    /// no earlier than `earliest`. Returns the allocated slot.
    ///
    /// Panics if `cores` exceeds the pool (callers must split such workloads;
    /// the pilot layer turns this into a proper error).
    pub fn schedule(&mut self, cores: usize, duration: f64, earliest: SimTime) -> Slot {
        assert!(cores > 0 && cores <= self.n_cores, "task needs {cores} of {} cores", self.n_cores);
        assert!(duration >= 0.0, "negative duration");
        let mut start = earliest.max(self.floor);
        // Fast path: the earliest-free group exactly covers the request —
        // the steady state of equal-width task waves, where every dispatch
        // recycles the group its predecessor pushed. One fused pop+push,
        // one sift, no slot churn.
        if let Some((free_at, &count)) = self.groups.peek() {
            if count == cores {
                let start = start.max(free_at);
                let end = start + duration;
                self.groups.pop_push(end, cores);
                self.max_free = self.max_free.max(end);
                self.busy_core_seconds += duration * cores as f64;
                self.recorder.count("timeline.tasks_scheduled", 1);
                return Slot { start, end };
            }
        }
        // Pop earliest-free groups until `cores` cores are gathered; groups
        // pop in free-time order, so the last pop dominates the start time.
        let mut remaining = cores;
        while remaining > 0 {
            let (free_at, count) = self.groups.pop().expect("group counts sum to n_cores");
            start = start.max(free_at);
            if count > remaining {
                self.groups.push(free_at, count - remaining);
                remaining = 0;
            } else {
                remaining -= count;
            }
        }
        let end = start + duration;
        self.groups.push(end, cores);
        self.max_free = self.max_free.max(end);
        self.busy_core_seconds += duration * cores as f64;
        self.recorder.count("timeline.tasks_scheduled", 1);
        Slot { start, end }
    }

    /// The time at which all cores are idle (= completion of the last task).
    pub fn all_idle_at(&self) -> SimTime {
        self.max_free
    }

    /// Earliest time any core is free.
    pub fn next_free_at(&self) -> SimTime {
        self.groups.peek_time().map_or(self.floor, |t| t.max(self.floor))
    }

    /// Impose a global barrier: no core may start new work before `t`
    /// (used between the MD and exchange phases of the synchronous pattern).
    /// O(1): the floor is folded into start times at the next `schedule`.
    pub fn barrier(&mut self, t: SimTime) {
        self.recorder.count("timeline.barriers", 1);
        self.floor = self.floor.max(t);
        self.max_free = self.max_free.max(t);
    }

    /// Total busy core-seconds scheduled so far.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_core_seconds
    }

    /// Utilization over `[0, horizon]`: busy core-seconds / (cores × horizon).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        let denom = self.n_cores as f64 * horizon.as_secs();
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy_core_seconds / denom).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequentializes_when_pool_is_full() {
        let mut tl = CoreTimeline::new(2);
        let a = tl.schedule(1, 10.0, SimTime::ZERO);
        let b = tl.schedule(1, 10.0, SimTime::ZERO);
        let c = tl.schedule(1, 5.0, SimTime::ZERO);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
        // Third task waits for the first free core.
        assert_eq!(c.start.as_secs(), 10.0);
        assert_eq!(c.end.as_secs(), 15.0);
    }

    #[test]
    fn multicore_task_waits_for_enough_cores() {
        let mut tl = CoreTimeline::new(4);
        tl.schedule(3, 7.0, SimTime::ZERO); // cores 0-2 busy until 7
        let wide = tl.schedule(2, 1.0, SimTime::ZERO); // needs 2: one free now, one at 7
        assert_eq!(wide.start.as_secs(), 7.0);
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut tl = CoreTimeline::new(1);
        let s = tl.schedule(1, 1.0, SimTime::seconds(100.0));
        assert_eq!(s.start.as_secs(), 100.0);
    }

    #[test]
    fn barrier_delays_subsequent_work() {
        let mut tl = CoreTimeline::new(4);
        tl.schedule(4, 3.0, SimTime::ZERO);
        tl.barrier(SimTime::seconds(10.0));
        let s = tl.schedule(1, 1.0, SimTime::ZERO);
        assert_eq!(s.start.as_secs(), 10.0);
    }

    #[test]
    fn barrier_raises_idle_time_of_idle_pool() {
        let mut tl = CoreTimeline::new(4);
        tl.barrier(SimTime::seconds(5.0));
        assert_eq!(tl.all_idle_at().as_secs(), 5.0);
        assert_eq!(tl.next_free_at().as_secs(), 5.0);
        // A later barrier must not lower it.
        tl.barrier(SimTime::seconds(2.0));
        assert_eq!(tl.all_idle_at().as_secs(), 5.0);
    }

    #[test]
    fn partial_group_reuse_keeps_remainder_free() {
        // A 3-core task splits the idle 4-core group; the leftover core
        // still accepts work at t=0.
        let mut tl = CoreTimeline::new(4);
        tl.schedule(3, 7.0, SimTime::ZERO);
        let s = tl.schedule(1, 1.0, SimTime::ZERO);
        assert_eq!(s.start, SimTime::ZERO);
    }

    #[test]
    fn mode_ii_batching_shape() {
        // 8 equal tasks on 2 cores: 4 waves; makespan = 4 * duration.
        let mut tl = CoreTimeline::new(2);
        for _ in 0..8 {
            tl.schedule(1, 5.0, SimTime::ZERO);
        }
        assert_eq!(tl.all_idle_at().as_secs(), 20.0);
    }

    #[test]
    fn utilization_accounting() {
        let mut tl = CoreTimeline::new(2);
        tl.schedule(1, 10.0, SimTime::ZERO);
        tl.schedule(1, 10.0, SimTime::ZERO);
        assert_eq!(tl.busy_core_seconds(), 20.0);
        assert!((tl.utilization(SimTime::seconds(10.0)) - 1.0).abs() < 1e-12);
        assert!((tl.utilization(SimTime::seconds(20.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_counts_schedules_and_barriers() {
        let rec = obs::Recorder::enabled();
        let mut tl = CoreTimeline::new(2);
        tl.set_recorder(rec.clone());
        tl.schedule(1, 1.0, SimTime::ZERO);
        tl.schedule(2, 1.0, SimTime::ZERO);
        tl.barrier(SimTime::seconds(5.0));
        let counters = rec.counters();
        assert_eq!(counters.get("timeline.tasks_scheduled"), Some(&2));
        assert_eq!(counters.get("timeline.barriers"), Some(&1));
    }

    #[test]
    #[should_panic]
    fn oversized_task_panics() {
        let mut tl = CoreTimeline::new(2);
        tl.schedule(3, 1.0, SimTime::ZERO);
    }

    #[test]
    fn makespan_at_least_work_over_cores() {
        rng::check(256, |r| {
            let n_cores = r.range(1usize..16);
            let len = r.range(1..40usize);
            let durations: Vec<f64> = (0..len).map(|_| r.range(0.1..50.0)).collect();
            let mut tl = CoreTimeline::new(n_cores);
            let total: f64 = durations.iter().sum();
            let longest = durations.iter().copied().fold(0.0f64, f64::max);
            for d in &durations {
                tl.schedule(1, *d, SimTime::ZERO);
            }
            let makespan = tl.all_idle_at().as_secs();
            // Classic bounds: max(work/cores, longest) <= makespan <= work.
            assert!(makespan >= total / n_cores as f64 - 1e-9);
            assert!(makespan >= longest - 1e-9);
            assert!(makespan <= total + 1e-9);
        });
    }

    /// The group representation against a per-core reference scheduler
    /// (the seed's representation): identical slots for random mixed
    /// workloads with barriers.
    #[test]
    fn group_heap_matches_per_core_reference() {
        rng::check(256, |r| {
            let n_cores = r.range(1usize..12);
            let len = r.range(1..60usize);
            let ops: Vec<(usize, f64, f64, bool)> = (0..len)
                .map(|_| {
                    (r.range(1usize..6), r.range(0.0..20.0), r.range(0.0..30.0), r.below(2) == 1)
                })
                .collect();
            let mut tl = CoreTimeline::new(n_cores);
            // Reference: explicit per-core free times, greedy k-earliest.
            let mut free = vec![0.0f64; n_cores];
            for &(cores_raw, duration, earliest, do_barrier) in &ops {
                let cores = cores_raw.min(n_cores);
                if do_barrier {
                    let t = tl.all_idle_at();
                    tl.barrier(t + 1.0);
                    let rt = free.iter().copied().fold(0.0f64, f64::max) + 1.0;
                    for f in &mut free {
                        *f = f.max(rt);
                    }
                }
                let slot = tl.schedule(cores, duration, SimTime::seconds(earliest));
                free.sort_by(f64::total_cmp);
                let start = free[cores - 1].max(earliest);
                let end = start + duration;
                for f in free.iter_mut().take(cores) {
                    *f = end;
                }
                assert!(
                    (slot.start.as_secs() - start).abs() < 1e-9,
                    "start {} vs reference {start}",
                    slot.start.as_secs()
                );
                assert!((slot.end.as_secs() - end).abs() < 1e-9);
            }
            let ref_makespan = free.iter().copied().fold(0.0f64, f64::max);
            assert!((tl.all_idle_at().as_secs() - ref_makespan).abs() < 1e-9);
        });
    }
}
