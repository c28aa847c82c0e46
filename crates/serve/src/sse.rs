//! Server-sent-event encoding for the live run stream.
//!
//! Each [`StreamItem`] becomes one SSE frame:
//!
//! - a telemetry [`Event`](xui_telemetry::Event) renders as
//!   `event: telemetry` with the exact single-line JSON of
//!   [`xui_telemetry::event_json_line`], so every consumer of that
//!   line format agrees on the representation;
//! - a [`StreamItem::Snapshot`] renders as `event: <kind>` (`metrics`,
//!   `state`, `artifact`) with its pre-serialized compact JSON payload;
//! - the stream ends with one `event: end` frame carrying the
//!   subscriber's final delivery/loss accounting, so a client always
//!   learns exactly how many items it lost.
//!
//! Snapshot payloads are compact (single-line) JSON by construction;
//! [`encode_item`] still splits on newlines into multiple `data:` lines
//! as the SSE spec requires, so a multi-line payload would survive.

use std::fmt::Write as _;

use xui_telemetry::{event_json_line, StreamItem};

/// The response head that opens an SSE stream (no `Content-Length`; the
/// connection closes when the stream ends).
pub const STREAM_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";

/// Encodes one SSE frame with the given event name and data payload.
#[must_use]
pub fn encode_frame(event: &str, data: &str) -> String {
    let mut out = String::with_capacity(event.len() + data.len() + 16);
    let _ = writeln!(out, "event: {event}");
    for line in data.split('\n') {
        let _ = writeln!(out, "data: {line}");
    }
    out.push('\n');
    out
}

/// Encodes one broadcast item as an SSE frame.
#[must_use]
pub fn encode_item(item: &StreamItem) -> String {
    match item {
        StreamItem::Event(ev) => encode_frame("telemetry", &event_json_line(ev)),
        StreamItem::Snapshot { kind, json } => encode_frame(kind, json),
    }
}

/// Encodes the terminal `end` frame with the subscriber's accounting.
#[must_use]
pub fn encode_end(delivered: u64, dropped: u64) -> String {
    encode_frame(
        "end",
        &format!("{{\"delivered_events\":{delivered},\"dropped_events\":{dropped}}}"),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use xui_telemetry::Event;

    use super::*;

    #[test]
    fn telemetry_frames_reuse_the_jsonl_line() {
        let ev = Event::instant(7, 1, "artifact_emitted").with_arg("index", 0);
        let frame = encode_item(&StreamItem::Event(ev));
        assert_eq!(
            frame,
            format!("event: telemetry\ndata: {}\n\n", event_json_line(&ev))
        );
    }

    #[test]
    fn snapshot_frames_carry_kind_and_payload() {
        let item = StreamItem::Snapshot {
            kind: Arc::from("metrics"),
            json: Arc::from("{\"counters\":{}}"),
        };
        assert_eq!(encode_item(&item), "event: metrics\ndata: {\"counters\":{}}\n\n");
    }

    #[test]
    fn multi_line_data_becomes_multiple_data_lines() {
        let frame = encode_frame("state", "{\n}");
        assert_eq!(frame, "event: state\ndata: {\ndata: }\n\n");
    }

    #[test]
    fn end_frame_reports_the_loss_accounting() {
        assert_eq!(
            encode_end(12, 3),
            "event: end\ndata: {\"delivered_events\":12,\"dropped_events\":3}\n\n"
        );
    }
}
