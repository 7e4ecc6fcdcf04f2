//! Per-replica interval statistics and straggler detection.
//!
//! The asynchronous pattern exists because of straggler imbalance: one slow
//! replica stalls every synchronous barrier (Bussi, arXiv:0812.1633). This
//! module turns the recorded `MdSegment` stream into the numbers that make
//! that imbalance visible: each replica's mean segment, per-phase Mode II
//! batch statistics (how many waves the MD phase serialized into), the run's
//! span, and straggler flags under a configurable z-score + ratio policy.

use crate::event::Event;
use std::collections::BTreeMap;

/// When is a replica a straggler? Both tests must pass: its mean segment
/// duration is `z_threshold` standard deviations above the across-replica
/// mean, *and* at least `ratio_threshold` times the across-replica median.
/// The ratio test keeps tightly-packed distributions (tiny σ) from flagging
/// ordinary noise; the z test keeps wide ones honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerPolicy {
    pub z_threshold: f64,
    pub ratio_threshold: f64,
}

impl Default for StragglerPolicy {
    fn default() -> Self {
        StragglerPolicy { z_threshold: 2.0, ratio_threshold: 1.5 }
    }
}

/// MD activity of one replica (its lane) over the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneStats {
    pub lane: usize,
    /// Completed (ok) segments.
    pub segments: usize,
    /// Seconds spent inside ok MD segments.
    pub busy: f64,
    /// Mean duration of ok segments (0 when none).
    pub mean_segment: f64,
    /// Mean-segment z-score against the other lanes.
    pub z_score: f64,
    /// Mean segment over the across-lane median mean-segment.
    pub ratio_to_median: f64,
    /// Flagged under the [`StragglerPolicy`].
    pub straggler: bool,
}

/// One MD phase's batching statistics (per cycle × dimension).
///
/// `stretch` is the phase window over its longest single segment — in
/// Execution Mode I every replica runs concurrently so stretch ≈ 1; in Mode
/// II with a core:replica ratio of 1/k the phase serializes into ~k waves
/// and stretch ≈ k. `imbalance` is the wait the batching added beyond the
/// slowest segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBatchStats {
    pub cycle: u64,
    pub dim: usize,
    /// MD phase window (submission to barrier), seconds.
    pub window: f64,
    /// Longest single segment in the phase.
    pub max_segment: f64,
    /// window / max_segment (1.0 when the phase is empty).
    pub stretch: f64,
    /// window − max_segment.
    pub imbalance: f64,
}

/// Everything [`timeline_stats`] derives from the event stream.
#[derive(Debug, Clone, Default)]
pub struct TimelineStats {
    /// Keyed by replica id, ascending.
    pub replicas: Vec<LaneStats>,
    /// One entry per (cycle, dim) MD phase, in (cycle, dim) order.
    pub phases: Vec<PhaseBatchStats>,
    /// First event start to last event end over all interval events.
    pub span: f64,
    /// Replicas flagged as stragglers.
    pub straggler_count: usize,
    pub mean_stretch: f64,
    pub max_stretch: f64,
}

impl TimelineStats {
    /// Replica ids flagged as stragglers.
    pub fn stragglers(&self) -> Vec<usize> {
        self.replicas.iter().filter(|r| r.straggler).map(|r| r.lane).collect()
    }
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn finish_lanes(per_lane: BTreeMap<usize, LaneStats>, policy: &StragglerPolicy) -> Vec<LaneStats> {
    let mut lanes: Vec<LaneStats> = per_lane.into_values().collect();
    for lane in &mut lanes {
        lane.mean_segment = if lane.segments > 0 { lane.busy / lane.segments as f64 } else { 0.0 };
    }
    // Straggler tests over the lanes that actually ran something.
    let means: Vec<f64> = lanes.iter().filter(|l| l.segments > 0).map(|l| l.mean_segment).collect();
    if means.len() >= 2 {
        let n = means.len() as f64;
        let mu = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|m| (m - mu) * (m - mu)).sum::<f64>() / n;
        let sigma = var.sqrt();
        let mut sorted = means.clone();
        sorted.sort_by(f64::total_cmp);
        let med = median(&sorted);
        for lane in &mut lanes {
            if lane.segments == 0 {
                continue;
            }
            lane.z_score = if sigma > 0.0 { (lane.mean_segment - mu) / sigma } else { 0.0 };
            lane.ratio_to_median = if med > 0.0 { lane.mean_segment / med } else { 0.0 };
            lane.straggler =
                lane.z_score > policy.z_threshold && lane.ratio_to_median > policy.ratio_threshold;
        }
    }
    lanes
}

/// Derive per-replica and per-phase statistics from the stream.
pub fn timeline_stats(events: &[Event], policy: StragglerPolicy) -> TimelineStats {
    let mut replicas: BTreeMap<usize, LaneStats> = BTreeMap::new();
    let mut phases: BTreeMap<(u64, usize), PhaseBatchStats> = BTreeMap::new();
    let mut first_start = f64::INFINITY;
    let mut last_end = f64::NEG_INFINITY;

    for event in events {
        if event.duration() > 0.0 || matches!(event, Event::MdSegment { .. }) {
            if let Some((start, end)) = interval_of(event) {
                first_start = first_start.min(start);
                last_end = last_end.max(end);
            }
        }
        match event {
            Event::MdSegment { replica, cycle, dim, start, end, ok, .. } => {
                let dur = end - start;
                let lane = replicas
                    .entry(*replica)
                    .or_insert_with(|| LaneStats { lane: *replica, ..Default::default() });
                if *ok {
                    lane.segments += 1;
                    lane.busy += dur;
                }
                let phase = phases.entry((*cycle, *dim)).or_insert_with(|| PhaseBatchStats {
                    cycle: *cycle,
                    dim: *dim,
                    ..Default::default()
                });
                phase.max_segment = phase.max_segment.max(dur);
            }
            Event::MdPhase { cycle, dim, start, end } => {
                let phase = phases.entry((*cycle, *dim)).or_insert_with(|| PhaseBatchStats {
                    cycle: *cycle,
                    dim: *dim,
                    ..Default::default()
                });
                phase.window += end - start;
            }
            _ => {}
        }
    }

    let span = if last_end > first_start { last_end - first_start } else { 0.0 };
    let mut phase_list: Vec<PhaseBatchStats> = phases.into_values().collect();
    for p in &mut phase_list {
        p.stretch =
            if p.max_segment > 0.0 && p.window > 0.0 { p.window / p.max_segment } else { 1.0 };
        p.imbalance = (p.window - p.max_segment).max(0.0);
    }
    let stretches: Vec<f64> = phase_list.iter().map(|p| p.stretch).collect();
    let mean_stretch = if stretches.is_empty() {
        1.0
    } else {
        stretches.iter().sum::<f64>() / stretches.len() as f64
    };
    let max_stretch = stretches.iter().copied().fold(1.0f64, f64::max);

    let replicas = finish_lanes(replicas, &policy);
    let straggler_count = replicas.iter().filter(|r| r.straggler).count();
    TimelineStats { replicas, phases: phase_list, span, straggler_count, mean_stretch, max_stretch }
}

/// `[start, end]` of an interval event; `None` for point events.
fn interval_of(event: &Event) -> Option<(f64, f64)> {
    match event {
        Event::MdSegment { start, end, .. }
        | Event::MdPhase { start, end, .. }
        | Event::ExchangeWindow { start, end, .. }
        | Event::DataStage { start, end, .. }
        | Event::Overhead { start, end, .. } => Some((*start, *end)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(replica: usize, cycle: u64, start: f64, end: f64, ok: bool) -> Event {
        Event::MdSegment {
            replica,
            slot: replica,
            cycle,
            dim: 0,
            attempt: 0,
            cores: 1,
            start,
            end,
            ok,
        }
    }

    #[test]
    fn the_span_covers_every_lane_and_phase() {
        let events = vec![
            seg(0, 0, 0.0, 10.0, true),
            seg(1, 0, 0.0, 5.0, true),
            Event::MdPhase { cycle: 0, dim: 0, start: 0.0, end: 10.0 },
        ];
        let tl = timeline_stats(&events, StragglerPolicy::default());
        assert_eq!(tl.span, 10.0);
        assert_eq!(tl.replicas.len(), 2);
        assert_eq!(tl.replicas[1].mean_segment, 5.0);
    }

    #[test]
    fn straggler_needs_both_z_and_ratio() {
        // 7 fast replicas at ~1.0s, one at 3.0s: z ≈ 2.5, ratio 3.0.
        let mut events: Vec<Event> = (0..7).map(|r| seg(r, 0, 0.0, 1.0, true)).collect();
        events.push(seg(7, 0, 0.0, 3.0, true));
        let tl = timeline_stats(&events, StragglerPolicy::default());
        assert_eq!(tl.stragglers(), vec![7]);
        assert_eq!(tl.straggler_count, 1);
        // An impossible ratio threshold suppresses the flag.
        let strict = StragglerPolicy { z_threshold: 2.0, ratio_threshold: 10.0 };
        assert_eq!(timeline_stats(&events, strict).straggler_count, 0);
        // Identical lanes never straggle (σ = 0).
        let even: Vec<Event> = (0..4).map(|r| seg(r, 0, 0.0, 2.0, true)).collect();
        assert_eq!(timeline_stats(&even, StragglerPolicy::default()).straggler_count, 0);
    }

    #[test]
    fn mode_two_waves_show_up_as_stretch() {
        // Two waves of 2 segments on 2 cores: phase window 2× a segment.
        let events = vec![
            seg(0, 0, 0.0, 10.0, true),
            seg(1, 0, 0.0, 10.0, true),
            seg(2, 0, 10.0, 20.0, true),
            seg(3, 0, 10.0, 20.0, true),
            Event::MdPhase { cycle: 0, dim: 0, start: 0.0, end: 20.0 },
        ];
        let tl = timeline_stats(&events, StragglerPolicy::default());
        assert_eq!(tl.phases.len(), 1);
        let p = &tl.phases[0];
        assert!((p.stretch - 2.0).abs() < 1e-12, "stretch {}", p.stretch);
        assert!((p.imbalance - 10.0).abs() < 1e-12);
        assert!((tl.mean_stretch - 2.0).abs() < 1e-12);
    }

    #[test]
    fn failed_segments_counted_separately() {
        let events = vec![seg(0, 0, 0.0, 4.0, false), seg(0, 0, 4.0, 8.0, true)];
        let tl = timeline_stats(&events, StragglerPolicy::default());
        assert_eq!(tl.replicas[0].segments, 1);
        assert!((tl.replicas[0].busy - 4.0).abs() < 1e-12);
        assert!((tl.replicas[0].mean_segment - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_yields_empty_stats() {
        let tl = timeline_stats(&[], StragglerPolicy::default());
        assert!(tl.replicas.is_empty());
        assert_eq!(tl.span, 0.0);
        assert_eq!(tl.mean_stretch, 1.0);
        assert_eq!(tl.straggler_count, 0);
    }

    #[test]
    fn a_lane_follows_its_replica_across_swaps() {
        // Replica 1 runs in slot 0 during cycle 1 (post-swap): its lane
        // counts both of its segments, and replica 0's only its own.
        let mut events = vec![seg(0, 0, 0.0, 1.0, true), seg(1, 0, 0.0, 1.0, true)];
        events.push(Event::MdSegment {
            replica: 1,
            slot: 0,
            cycle: 1,
            dim: 0,
            attempt: 0,
            cores: 1,
            start: 1.0,
            end: 2.0,
            ok: true,
        });
        let tl = timeline_stats(&events, StragglerPolicy::default());
        let rep1 = tl.replicas.iter().find(|l| l.lane == 1).unwrap();
        assert_eq!(rep1.segments, 2);
        let rep0 = tl.replicas.iter().find(|l| l.lane == 0).unwrap();
        assert_eq!(rep0.segments, 1);
    }
}
