//! Chrome trace-event / Perfetto JSON export.
//!
//! The output loads directly in `ui.perfetto.dev` or `chrome://tracing`.
//! Timestamps are emitted verbatim in the simulation's virtual unit
//! (cycles or DES ticks); at the paper's 2 GHz operating point 2000
//! units = 1 µs. Everything about the output is deterministic: events
//! are sorted by `(ts, recording order)` with a stable sort, names come
//! from the static taxonomy, and no wall-clock value is ever consulted —
//! so the same run produces byte-identical traces for any worker count.

use crate::event::{Event, Phase};
use crate::json;
use crate::recorder::json_string;

/// A group of events that shares one Chrome `pid`. Figure binaries map
/// the sweep-point index to the `pid`, so a multi-point trace opens in
/// Perfetto as one process track per sweep point.
#[derive(Debug, Clone, Default)]
pub struct TraceGroup {
    /// Chrome `pid` for every event in the group (sweep-point index).
    pub pid: u32,
    /// Human-readable label for the process track.
    pub label: String,
    /// The group's events (any order; export sorts stably by `ts`).
    pub events: Vec<Event>,
}

/// Builds the Chrome trace JSON document for one unnamed group.
#[must_use]
pub fn trace_json(events: &[Event]) -> String {
    trace_json_grouped(&[TraceGroup {
        pid: 0,
        label: String::new(),
        events: events.to_vec(),
    }])
}

/// Builds the Chrome trace JSON document for several groups (one `pid`
/// each). Span balance is enforced per `(pid, tid, name)`: an `End`
/// without an open `Begin` is demoted to an instant, and spans still
/// open when the group ends are closed at the group's final timestamp,
/// so the output always carries matched `B`/`E` pairs.
#[must_use]
pub fn trace_json_grouped(groups: &[TraceGroup]) -> String {
    let mut out = String::with_capacity(4096 + groups.iter().map(|g| g.events.len()).sum::<usize>() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |line: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&line);
        *first = false;
    };

    for group in groups {
        if !group.label.is_empty() {
            emit(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                    group.pid,
                    json_string(&group.label)
                ),
                &mut first,
            );
        }
        let mut sorted: Vec<(usize, &Event)> = group.events.iter().enumerate().collect();
        sorted.sort_by_key(|&(i, e)| (e.ts, i));

        // Open-span tracking for balance: (tid, name) -> depth.
        let mut open: Vec<(u32, &'static str, u64)> = Vec::new(); // (tid, name, count)
        let mut last_ts = 0u64;
        for &(_, ev) in &sorted {
            last_ts = last_ts.max(ev.ts);
            match ev.phase {
                Phase::Begin => {
                    if let Some(slot) = open
                        .iter_mut()
                        .find(|(t, n, _)| *t == ev.actor && *n == ev.name)
                    {
                        slot.2 += 1;
                    } else {
                        open.push((ev.actor, ev.name, 1));
                    }
                    emit(event_line(group.pid, ev, None), &mut first);
                }
                Phase::End => {
                    let balanced = open
                        .iter_mut()
                        .find(|(t, n, c)| *t == ev.actor && *n == ev.name && *c > 0)
                        .map(|slot| {
                            slot.2 -= 1;
                        })
                        .is_some();
                    if balanced {
                        emit(event_line(group.pid, ev, None), &mut first);
                    } else {
                        // Orphan End: demote to an instant so B/E stay paired.
                        emit(event_line(group.pid, ev, Some(Phase::Instant)), &mut first);
                    }
                }
                Phase::Instant | Phase::Counter => {
                    emit(event_line(group.pid, ev, None), &mut first);
                }
            }
        }
        // Close anything left open at the group's final timestamp.
        for (tid, name, count) in open {
            for _ in 0..count {
                let close = Event::end(last_ts, tid, name);
                emit(event_line(group.pid, &close, None), &mut first);
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders one trace event as a JSON object line. `phase_override`
/// rewrites the exported phase (used to demote orphan `E` events).
fn event_line(pid: u32, ev: &Event, phase_override: Option<Phase>) -> String {
    use std::fmt::Write;

    let phase = phase_override.unwrap_or(ev.phase);
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{{\"name\":{},\"cat\":\"xui\",\"ph\":\"{}\",\"ts\":{},\"pid\":{pid},\"tid\":{}",
        json_string(ev.name),
        phase.chrome_ph(),
        ev.ts,
        ev.actor,
    );
    if matches!(phase, Phase::Instant) {
        line.push_str(",\"s\":\"t\"");
    }
    let mut args = ev.args.iter().flatten().peekable();
    if args.peek().is_some() {
        line.push_str(",\"args\":{");
        for (i, (k, v)) in args.enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{}:{v}", json_string(k));
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// What [`validate`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total trace events (including metadata records).
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub span_pairs: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
}

/// Validates a Chrome trace JSON document: it parses, `traceEvents` is
/// present, required keys exist, timestamps are monotonically
/// non-decreasing within each `pid`, and every `B` has a matching `E`
/// (per `(pid, tid, name)`).
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate(doc: &str) -> Result<TraceCheck, String> {
    let root = json::parse(doc)?;
    let events = json::get(&root, "traceEvents")
        .ok_or("missing traceEvents key".to_string())?;
    let serde::Value::Array(events) = events else {
        return Err("traceEvents is not an array".to_string());
    };

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: Vec<(u64, u64)> = Vec::new(); // (pid, last ts)
    let mut open: Vec<(u64, u64, String, usize)> = Vec::new(); // (pid, tid, name, depth)
    let mut tracks: Vec<(u64, u64)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = json::get(ev, "ph")
            .and_then(json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let pid = json::get(ev, "pid")
            .and_then(json::as_u64)
            .ok_or(format!("event {i}: missing pid"))?;
        let tid = json::get(ev, "tid")
            .and_then(json::as_u64)
            .ok_or(format!("event {i}: missing tid"))?;
        let name = json::get(ev, "name")
            .and_then(json::as_str)
            .ok_or(format!("event {i}: missing name"))?;
        if ph == "M" {
            continue; // metadata records carry no ts
        }
        let ts = json::get(ev, "ts")
            .and_then(json::as_u64)
            .ok_or(format!("event {i}: missing ts"))?;
        if !tracks.contains(&(pid, tid)) {
            tracks.push((pid, tid));
        }
        match last_ts.iter_mut().find(|(p, _)| *p == pid) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards (pid {pid} was at {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((pid, ts)),
        }
        match ph {
            "B" => {
                match open
                    .iter_mut()
                    .find(|(p, t, n, _)| *p == pid && *t == tid && n == name)
                {
                    Some(slot) => slot.3 += 1,
                    None => open.push((pid, tid, name.to_string(), 1)),
                }
            }
            "E" => {
                let slot = open
                    .iter_mut()
                    .find(|(p, t, n, d)| *p == pid && *t == tid && n == name && *d > 0)
                    .ok_or(format!(
                        "event {i}: E \"{name}\" (pid {pid} tid {tid}) without open B"
                    ))?;
                slot.3 -= 1;
                check.span_pairs += 1;
            }
            "i" => check.instants += 1,
            "C" => check.counters += 1,
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    if let Some((pid, tid, name, d)) = open.iter().find(|(_, _, _, d)| *d > 0) {
        return Err(format!(
            "unclosed span \"{name}\" (pid {pid} tid {tid}, depth {d})"
        ));
    }
    check.tracks = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_and_balanced() {
        let events = vec![
            Event::begin(10, 0, "handler"),
            Event::instant(12, 0, "posted").with_arg("vec", 5),
            Event::counter(14, 0, "depth", 3),
            Event::end(20, 0, "handler"),
        ];
        let doc = trace_json(&events);
        let check = validate(&doc).expect("valid trace");
        assert_eq!(check.span_pairs, 1);
        assert_eq!(check.instants, 1);
        assert_eq!(check.counters, 1);
    }

    #[test]
    fn unmatched_begin_is_auto_closed() {
        let events = vec![Event::begin(5, 1, "open"), Event::instant(9, 1, "x")];
        let doc = trace_json(&events);
        let check = validate(&doc).expect("auto-closed trace is valid");
        assert_eq!(check.span_pairs, 1);
    }

    #[test]
    fn orphan_end_is_demoted_to_instant() {
        let events = vec![Event::end(5, 1, "never-opened")];
        let doc = trace_json(&events);
        let check = validate(&doc).expect("demoted trace is valid");
        assert_eq!(check.span_pairs, 0);
        assert_eq!(check.instants, 1);
    }

    #[test]
    fn events_are_sorted_by_ts_stably() {
        let events = vec![
            Event::instant(30, 0, "c"),
            Event::instant(10, 0, "a"),
            Event::instant(10, 0, "b"),
        ];
        let doc = trace_json(&events);
        let a = doc.find("\"a\"").unwrap();
        let b = doc.find("\"b\"").unwrap();
        let c = doc.find("\"c\"").unwrap();
        assert!(a < b && b < c, "ties keep recording order, later ts sorts last");
    }

    #[test]
    fn grouped_export_keeps_pids_independent() {
        let groups = vec![
            TraceGroup {
                pid: 0,
                label: "point-0".into(),
                events: vec![Event::begin(1, 0, "s"), Event::end(4, 0, "s")],
            },
            TraceGroup {
                pid: 1,
                label: "point-1".into(),
                // Earlier ts than group 0's last event: monotonicity is
                // per-pid, so this must still validate.
                events: vec![Event::instant(2, 0, "x")],
            },
        ];
        let doc = trace_json_grouped(&groups);
        let check = validate(&doc).expect("grouped trace valid");
        assert_eq!(check.span_pairs, 1);
        assert!(doc.contains("process_name"));
    }

    #[test]
    fn validator_rejects_broken_docs() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents":7}"#).is_err());
        // ts going backwards within one pid.
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":10,"pid":0,"tid":0},
            {"name":"b","ph":"i","ts":5,"pid":0,"tid":0}
        ]}"#;
        assert!(validate(doc).unwrap_err().contains("backwards"));
        // E without B.
        let doc = r#"{"traceEvents":[{"name":"s","ph":"E","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate(doc).unwrap_err().contains("without open B"));
        // B without E.
        let doc = r#"{"traceEvents":[{"name":"s","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate(doc).unwrap_err().contains("unclosed"));
    }

    #[test]
    fn export_is_deterministic() {
        let events: Vec<Event> = (0..100)
            .map(|i| Event::instant(i * 3 % 17, (i % 4) as u32, "e"))
            .collect();
        assert_eq!(trace_json(&events), trace_json(&events));
    }
}
