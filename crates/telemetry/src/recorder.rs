//! Recorders: where events go.
//!
//! Instrumented code is generic over [`Recorder`] so the disabled case
//! ([`NullRecorder`]) monomorphizes to nothing — the `enabled()` check is
//! a compile-time constant `false` and every `record` call inlines to a
//! no-op. The hotpath benches verify the overhead stays ≤1%.

use crate::event::Event;

/// A sink for telemetry events.
///
/// The convenience methods (`instant`/`begin`/`end`/`counter`) all gate
/// on [`Recorder::enabled`] first, so argument construction is skipped
/// entirely when recording is off.
pub trait Recorder {
    /// Whether this recorder keeps events at all. Instrumentation may
    /// skip expensive argument computation when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, ev: Event);

    /// Records a point event.
    #[inline]
    fn instant(&mut self, ts: u64, actor: u32, name: &'static str) {
        if self.enabled() {
            self.record(Event::instant(ts, actor, name));
        }
    }

    /// Opens a span.
    #[inline]
    fn begin(&mut self, ts: u64, actor: u32, name: &'static str) {
        if self.enabled() {
            self.record(Event::begin(ts, actor, name));
        }
    }

    /// Closes a span.
    #[inline]
    fn end(&mut self, ts: u64, actor: u32, name: &'static str) {
        if self.enabled() {
            self.record(Event::end(ts, actor, name));
        }
    }

    /// Records a counter sample.
    #[inline]
    fn counter(&mut self, ts: u64, actor: u32, name: &'static str, value: u64) {
        if self.enabled() {
            self.record(Event::counter(ts, actor, name, value));
        }
    }
}

/// The disabled recorder: every call compiles away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ev: Event) {}
}

/// A bounded in-memory recorder: allocation-free after warmup. Once the
/// ring fills, the oldest events are overwritten (and counted in
/// [`RingRecorder::dropped`]), so long runs keep the *latest* window —
/// the part of a trace that explains how a run ended.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<Event>,
    cap: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a ring holding at most `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    /// A ring sized for a typical figure-binary run (64 Ki events).
    #[must_use]
    pub fn default_sized() -> Self {
        Self::new(64 * 1024)
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded (or everything was cleared).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events overwritten because the ring was full — the queryable
    /// overflow counter surfaced by run status endpoints and metrics
    /// snapshots (`telemetry.ring_dropped_events`). Alias of
    /// [`RingRecorder::dropped`] under the name the control plane uses.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Returns the retained events in recording order (oldest first).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        if self.buf.len() < self.cap || self.next == 0 {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }

    /// Forgets everything recorded so far (capacity is retained).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

impl Recorder for RingRecorder {
    #[inline]
    fn record(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

/// Renders one event as a single JSON line.
#[must_use]
pub fn event_json_line(ev: &Event) -> String {
    use std::fmt::Write;

    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"ts\":{},\"actor\":{},\"ph\":\"{}\",\"name\":",
        ev.ts,
        ev.actor,
        ev.phase.chrome_ph(),
    );
    serde_json::write_escaped(&mut line, ev.name);
    write_args(&mut line, ev);
    line.push('}');
    line
}

/// Appends the event's arguments as `,"args":{...}` (nothing when it
/// has none); shared by the event line and the Chrome exporter.
pub(crate) fn write_args(line: &mut String, ev: &Event) {
    use std::fmt::Write;

    let mut args = ev.args.iter().flatten().peekable();
    if args.peek().is_some() {
        line.push_str(",\"args\":{");
        for (i, (k, v)) in args.enumerate() {
            if i > 0 {
                line.push(',');
            }
            serde_json::write_escaped(line, k);
            let _ = write!(line, ":{v}");
        }
        line.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.instant(1, 0, "x");
        r.begin(2, 0, "s");
        r.end(3, 0, "s");
        r.counter(4, 0, "c", 9);
    }

    #[test]
    fn ring_keeps_latest_window() {
        let mut r = RingRecorder::new(4);
        for ts in 0..10u64 {
            r.instant(ts, 0, "e");
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let ts: Vec<u64> = r.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_below_capacity_is_in_order() {
        let mut r = RingRecorder::new(8);
        for ts in [3u64, 1, 4] {
            r.instant(ts, 0, "e");
        }
        assert_eq!(r.dropped(), 0);
        let ts: Vec<u64> = r.events().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![3, 1, 4], "recording order, not sorted");
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn jsonl_lines_are_json() {
        let lines = [
            event_json_line(&Event::begin(5, 2, "span").with_arg("k", 7)),
            event_json_line(&Event::instant(6, 2, "i")),
        ];
        assert_eq!(lines[0], r#"{"ts":5,"actor":2,"ph":"B","name":"span","args":{"k":7}}"#);
        for line in &lines {
            serde_json::value_from_str(line).expect("each line parses as JSON");
        }
    }
}
