//! The shared event sink and metrics registry.

use crate::chrome;
use crate::event::Event;
use crate::live::{EmitStats, LiveConfig, LiveState, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::PoisonError;

// Under `--cfg loom` the sync primitives come from loom so the model
// checker can explore interleavings (tests/loom_recorder.rs).
#[cfg(loom)]
use loom::sync::{Arc, Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Arc, Mutex, MutexGuard};

struct Inner {
    // When false the recorder only feeds the live fold — the unbounded
    // event buffer stays empty (long campaigns with telemetry but no
    // `--trace` must not accumulate the whole run in memory).
    buffer_events: bool,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges_f64: Mutex<BTreeMap<String, f64>>,
    live: Mutex<Option<LiveState>>,
}

impl Inner {
    fn new(buffer_events: bool) -> Self {
        Inner {
            buffer_events,
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges_f64: Mutex::new(BTreeMap::new()),
            live: Mutex::new(None),
        }
    }
}

/// A cloneable handle to one recording session.
///
/// [`Recorder::disabled`] (also the `Default`) holds nothing and every
/// method on it is a no-op — instrumented code calls it unconditionally.
/// [`Recorder::enabled`] allocates the shared sink; clones record into the
/// same sink, so a driver, its executor, and the timeline can all hold one.
///
/// Thread-safe: the local (real-thread) executor counts completions from
/// worker threads.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A no-op recorder: nothing is stored, nothing is allocated.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder; clone it into every component that should feed the
    /// same event stream.
    pub fn enabled() -> Self {
        Recorder { inner: Some(Arc::new(Inner::new(true))) }
    }

    /// A recorder that feeds only the live telemetry fold: events are
    /// consumed by the streaming fold and then dropped, so memory stays
    /// bounded over arbitrarily long campaigns. Counters and gauges behave
    /// as in [`Recorder::enabled`].
    pub fn live_only() -> Self {
        Recorder { inner: Some(Arc::new(Inner::new(false))) }
    }

    /// Whether events are being captured. Use to skip building events whose
    /// construction itself costs something (allocation, counter reads).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Install the live telemetry fold. Every subsequently recorded event is
    /// folded into the rolling window; [`Recorder::live_emit`] closes a
    /// window and returns the snapshot. Replaces any previous fold.
    pub fn enable_live(&self, cfg: LiveConfig) {
        if let Some(inner) = &self.inner {
            *lock(&inner.live) = Some(LiveState::new(cfg));
        }
    }

    /// Whether a live fold is installed.
    pub fn has_live(&self) -> bool {
        match &self.inner {
            Some(inner) => lock(&inner.live).is_some(),
            None => false,
        }
    }

    /// Close the current telemetry window and return its snapshot. The
    /// pilot's unit counters are read from this recorder's own counter map
    /// (executors count `pilot.units_submitted` / `pilot.units_completed`
    /// into the same sink). Returns `None` when no fold is installed.
    pub fn live_emit(&self, stats: &EmitStats) -> Option<TelemetrySnapshot> {
        let inner = self.inner.as_ref()?;
        let (submitted, completed) = {
            let counters = lock(&inner.counters);
            (
                counters.get("pilot.units_submitted").copied().unwrap_or(0),
                counters.get("pilot.units_completed").copied().unwrap_or(0),
            )
        };
        lock(&inner.live).as_mut().map(|st| st.emit(stats, submitted, completed))
    }

    /// The last emitted snapshot sequence number (0 before the first emit;
    /// resumes from the checkpoint cursor). `None` when no fold is active.
    pub fn live_seq(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        lock(&inner.live).as_ref().map(|st| st.seq())
    }

    /// Append one event.
    pub fn record(&self, event: Event) {
        if let Some(inner) = &self.inner {
            if let Some(st) = lock(&inner.live).as_mut() {
                st.fold(&event);
            }
            if inner.buffer_events {
                lock(&inner.events).push(event);
            }
        }
    }

    /// Append a batch of events (drivers collect per-cycle, then flush).
    pub fn extend<I: IntoIterator<Item = Event>>(&self, events: I) {
        if let Some(inner) = &self.inner {
            let mut live = lock(&inner.live);
            if inner.buffer_events {
                let mut buf = lock(&inner.events);
                for event in events {
                    if let Some(st) = live.as_mut() {
                        st.fold(&event);
                    }
                    buf.push(event);
                }
            } else if let Some(st) = live.as_mut() {
                for event in events {
                    st.fold(&event);
                }
            }
        }
    }

    /// Add `delta` to the named counter (created at 0 on first use).
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            *lock(&inner.counters).entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Overwrite the named counter with an absolute value (for totals read
    /// from an external source, e.g. process-wide atomics).
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.counters).insert(name.to_string(), value);
        }
    }

    /// Overwrite a named floating-point gauge (ratios, seconds). Non-finite
    /// values are stored as recorded; export sanitizes them to 0.
    pub fn set_gauge_f64(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.gauges_f64).insert(name.to_string(), value);
        }
    }

    /// Snapshot of the event stream in recording order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => lock(&inner.events).clone(),
            None => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(inner) => lock(&inner.events).len(),
            None => 0,
        }
    }

    /// Snapshot of all counters (sorted by name).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => lock(&inner.counters).clone(),
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of all floating-point gauges (sorted by name).
    pub fn gauges_f64(&self) -> BTreeMap<String, f64> {
        match &self.inner {
            Some(inner) => lock(&inner.gauges_f64).clone(),
            None => BTreeMap::new(),
        }
    }

    /// Export the event stream in Chrome Trace Event Format.
    pub fn chrome_trace_json(&self) -> String {
        chrome::chrome_trace_json(&self.events())
    }

    /// Export counters and f64 gauges as one flat JSON object, keys sorted
    /// across both kinds. Counters shadow a same-named gauge; f64 values go
    /// through [`crate::json::num`], so non-finite gauges export as 0.
    pub fn metrics_json(&self) -> String {
        let counters = self.counters();
        let gauges = self.gauges_f64();
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for (name, value) in &gauges {
            entries.insert(name.clone(), crate::json::num_exact(*value));
        }
        for (name, value) in &counters {
            entries.insert(name.clone(), value.to_string());
        }
        let mut out = String::from("{\n");
        for (i, (name, value)) in entries.iter().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            out.push_str(&format!("  \"{}\": {}{}\n", crate::json::escape(name), value, comma));
        }
        out.push('}');
        out
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Recorder")
                .field("events", &lock(&inner.events).len())
                .field("counters", &lock(&inner.counters).len())
                .finish(),
            None => f.write_str("Recorder(disabled)"),
        }
    }
}

/// A payload panic on a worker thread must not wedge tracing for everyone.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(cycle: u64, start: f64, end: f64) -> Event {
        Event::MdSegment {
            replica: 0,
            slot: 0,
            cycle,
            dim: 0,
            attempt: 0,
            cores: 1,
            start,
            end,
            ok: true,
        }
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(md(0, 0.0, 1.0));
        rec.count("x", 3);
        assert_eq!(rec.event_count(), 0);
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
        assert_eq!(rec.metrics_json(), "{\n}");
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.record(md(0, 0.0, 1.0));
        clone.count("tasks", 2);
        rec.count("tasks", 1);
        assert_eq!(rec.event_count(), 1);
        assert_eq!(rec.counters().get("tasks"), Some(&3));
    }

    #[test]
    fn set_gauge_overwrites() {
        let rec = Recorder::enabled();
        rec.count("g", 5);
        rec.set_gauge("g", 2);
        assert_eq!(rec.counters().get("g"), Some(&2));
    }

    #[test]
    fn metrics_json_is_sorted_and_parsable_shape() {
        let rec = Recorder::enabled();
        rec.count("b.second", 2);
        rec.count("a.first", 1);
        let json = rec.metrics_json();
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "keys sorted: {json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn f64_gauges_merge_into_metrics_json() {
        let rec = Recorder::enabled();
        rec.count("exchange.attempts", 10);
        rec.set_gauge_f64("exchange.ratio.T", 0.25);
        rec.set_gauge_f64("bad.value", f64::NAN);
        let json = rec.metrics_json();
        assert!(json.contains("\"exchange.ratio.T\": 0.25"), "{json}");
        assert!(json.contains("\"exchange.attempts\": 10"), "{json}");
        assert!(json.contains("\"bad.value\": 0"), "non-finite sanitized: {json}");
        assert!(!json.contains("NaN"));
        // Sorted merge across both maps.
        let a = json.find("bad.value").unwrap();
        let b = json.find("exchange.attempts").unwrap();
        let c = json.find("exchange.ratio.T").unwrap();
        assert!(a < b && b < c, "{json}");
    }

    #[test]
    fn live_only_folds_without_buffering() {
        let rec = Recorder::live_only();
        assert!(!rec.has_live());
        rec.enable_live(crate::live::LiveConfig {
            campaign: "c".into(),
            dim_kinds: vec!['T'],
            ..Default::default()
        });
        assert!(rec.has_live());
        rec.count("pilot.units_submitted", 4);
        rec.count("pilot.units_completed", 3);
        rec.record(md(0, 0.0, 1.0));
        rec.extend(vec![md(0, 0.0, 2.0), md(1, 2.0, 3.0)]);
        assert_eq!(rec.event_count(), 0, "live-only recorder buffers nothing");
        let stats = crate::live::EmitStats {
            completed: 1,
            total: 4,
            time: 3.0,
            failed_tasks: 0,
            relaunched_tasks: 0,
            done: false,
        };
        let snap = rec.live_emit(&stats).expect("fold installed");
        assert_eq!(snap.md_segments, 3);
        assert_eq!(snap.units_submitted, 4);
        assert_eq!(snap.units_completed, 3);
        assert_eq!(rec.live_seq(), Some(1));
        // An enabled() recorder both folds and buffers.
        let rec = Recorder::enabled();
        rec.enable_live(crate::live::LiveConfig::default());
        rec.record(md(0, 0.0, 1.0));
        assert_eq!(rec.event_count(), 1);
        assert_eq!(rec.live_emit(&stats).unwrap().md_segments, 1);
        // And a plain enabled() recorder without a fold emits nothing.
        assert!(Recorder::enabled().live_emit(&stats).is_none());
        assert_eq!(Recorder::disabled().live_seq(), None);
    }

    #[test]
    fn debug_impl_does_not_dump_events() {
        let rec = Recorder::enabled();
        rec.record(md(0, 0.0, 1.0));
        let dbg = format!("{rec:?}");
        assert!(dbg.contains("events"), "{dbg}");
        assert!(format!("{:?}", Recorder::disabled()).contains("disabled"));
    }
}
