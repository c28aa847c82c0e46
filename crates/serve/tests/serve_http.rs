//! End-to-end exercise of the `xui serve` control plane over real
//! sockets: registry browsing, run submission, concurrent SSE
//! streaming with a deliberately slow subscriber, and the tee
//! invariant — artifacts fetched over HTTP are byte-identical to the
//! offline runner's output no matter how many clients watched, with
//! loss visible only in the explicit `dropped_events` accounting.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use xui_scenario::{registry, runner, RunOptions};
use xui_serve::{consume_stream, http_request, ServeConfig, Server};

const SCENARIO: &str = "fig2_timeline";

fn start() -> Server {
    Server::start(&ServeConfig::default()).expect("server starts on an ephemeral port")
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None).expect("request completes")
}

fn field_u64(json: &str, name: &str) -> u64 {
    let v = serde_json::value_from_str(json).expect("valid JSON");
    serde::field(&v, "response", name).expect("field present")
}

fn field_str(json: &str, name: &str) -> String {
    let v = serde_json::value_from_str(json).expect("valid JSON");
    serde::field(&v, "response", name).expect("field present")
}

fn artifact_ids(status_json: &str) -> Vec<String> {
    let v = serde_json::value_from_str(status_json).expect("valid JSON");
    serde::field(&v, "status", "artifacts").expect("status carries `artifacts` ids")
}

fn wait_done(addr: SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(addr, &format!("/api/runs/{id}"));
        assert_eq!(status, 200, "{body}");
        match field_str(&body, "state").as_str() {
            "done" => return body,
            "failed" => panic!("run failed: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "run did not finish in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `DELETE /api/runs/<id>` cancels exactly the still-queued runs:
/// unknown ids are 404, malformed ids 400, running and terminal runs
/// 409, and a queued run becomes `failed` with a cancellation error
/// without disturbing the run occupying the worker.
#[test]
fn delete_cancels_queued_runs_only() {
    let server = Server::start(&ServeConfig { run_workers: 1, ..ServeConfig::default() })
        .expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    let submit = |hold: u64| {
        let (status, body) = http_request(
            addr,
            "POST",
            "/api/runs",
            Some(&format!("{{\"scenario\":{SCENARIO:?},\"hold_ms\":{hold}}}")),
        )
        .expect("request completes");
        assert_eq!(status, 202, "{body}");
        field_u64(&body, "id")
    };
    let delete = |id: &str| {
        http_request(addr, "DELETE", &format!("/api/runs/{id}"), None).expect("request completes")
    };

    // One worker: the held run occupies it, the second stays queued.
    let running = submit(2_000);
    let queued = submit(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while field_str(&get(addr, &format!("/api/runs/{running}")).1, "state") != "running" {
        assert!(Instant::now() < deadline, "held run never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, _) = delete("999");
    assert_eq!(status, 404, "unknown run ids are not found");
    let (status, _) = delete("not-a-number");
    assert_eq!(status, 400, "malformed run ids are bad requests");

    let (status, body) = delete(&queued.to_string());
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_str(&body, "state"), "failed");
    assert!(field_str(&body, "error").contains("cancelled"), "{body}");

    // A second delete finds it terminal; the running run is busy.
    let (status, body) = delete(&queued.to_string());
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("failed"), "{body}");
    let (status, body) = delete(&running.to_string());
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("running"), "{body}");

    // The occupied worker finishes its run untouched.
    let done = wait_done(addr, running);
    assert_eq!(field_str(&done, "state"), "done");
    server.shutdown();
}

#[test]
fn registry_browsing_and_error_statuses() {
    let server = start();
    let addr = server.local_addr();

    let (status, body) = get(addr, "/api/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    let (status, body) = get(addr, "/api/scenarios");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(SCENARIO), "registry listing misses {SCENARIO}: {body}");

    let (status, body) = get(addr, &format!("/api/scenarios/{SCENARIO}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_str(&body, "name"), SCENARIO);

    let (status, _) = get(addr, "/api/scenarios/no_such_preset");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/api/nope");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/api/runs/not-a-number");
    assert_eq!(status, 400, "malformed run id is a bad request");
    let (status, _) =
        http_request(addr, "DELETE", "/api/healthz", None).expect("request completes");
    assert_eq!(status, 405);
    let (status, body) =
        http_request(addr, "POST", "/api/runs", Some("{\"scenario\":123}")).expect("completes");
    assert_eq!(status, 400, "{body}");
    let (status, body) = http_request(addr, "POST", "/api/runs", Some("not json")).expect("ok");
    assert_eq!(status, 400, "{body}");

    server.shutdown();
}

#[test]
fn nine_subscribers_one_slow_artifacts_stay_byte_identical() {
    let server = start();
    let addr = server.local_addr();

    // Hold the run at its start so every subscriber attaches first.
    let (status, body) = http_request(
        addr,
        "POST",
        "/api/runs",
        Some(&format!("{{\"scenario\":{:?},\"hold_ms\":1500}}", SCENARIO)),
    )
    .expect("submit completes");
    assert_eq!(status, 202, "{body}");
    let id = field_u64(&body, "id");
    let events_path = field_str(&body, "events");

    // Nine concurrent live streams; the last one gets a one-slot queue
    // and a 200 ms consumer pause per write round — guaranteed to fall
    // behind the post-hold burst of events and snapshots.
    let subs: Vec<std::thread::JoinHandle<xui_serve::SubscriberReport>> = (0..9)
        .map(|i| {
            let path = events_path.clone();
            let (cap, drain_ms) = if i == 8 { (1, 200) } else { (4096, 0) };
            std::thread::spawn(move || {
                consume_stream(addr, &path, cap, drain_ms).expect("stream completes")
            })
        })
        .collect();

    let status_body = wait_done(addr, id);
    let reports: Vec<xui_serve::SubscriberReport> =
        subs.into_iter().map(|h| h.join().expect("subscriber thread")).collect();

    // Loss shows up only in the slow subscriber's explicit counter.
    let slow = &reports[8];
    assert!(slow.dropped_events > 0, "slow subscriber never fell behind: {slow:?}");
    for fast in &reports[..8] {
        assert_eq!(fast.dropped_events, 0, "fast subscriber dropped: {fast:?}");
        assert!(fast.frames > 0, "fast subscriber saw nothing: {fast:?}");
    }

    // The run itself was untouched: the ring kept everything and the
    // artifacts served over HTTP are byte-identical to an offline run.
    assert_eq!(field_u64(&status_body, "ring_dropped_events"), 0);
    let ids = artifact_ids(&status_body);
    assert!(!ids.is_empty(), "run produced no artifacts: {status_body}");
    let offline =
        runner::run(&registry::find(SCENARIO).expect("preset"), &RunOptions::default())
            .expect("offline run");
    assert_eq!(ids.len(), offline.artifacts.len());
    for aid in &ids {
        let (status, body) = get(addr, &format!("/api/runs/{id}/artifacts/{aid}"));
        assert_eq!(status, 200, "{body}");
        let golden = offline.artifact(aid).expect("offline artifact");
        assert_eq!(body, golden, "streamed artifact `{aid}` differs from offline bytes");
    }

    // A subscriber arriving after the terminal state replays the ring.
    let late = consume_stream(addr, &events_path, 4096, 0).expect("replay completes");
    assert!(late.frames > 0, "late subscriber got an empty replay: {late:?}");
    assert_eq!(late.dropped_events, 0, "ring replay reported loss: {late:?}");

    let (status, _) = get(addr, &format!("/api/runs/{id}/artifacts/no_such_artifact"));
    assert_eq!(status, 404);

    server.shutdown();
}

/// Opens a connection and sends one request on it, without reading.
fn send_request(addr: SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: xui\r\nContent-Length: 0\r\n\r\n")
        .expect("request sent");
    stream
}

/// One handler worker parked on a live SSE stream and the one backlog
/// slot taken: the accept loop answers the next connection `503`
/// itself, and a shutdown in that state still ends the stream with its
/// `end` frame and returns.
#[test]
fn full_handler_backlog_sheds_with_503_and_drains() {
    let server = Server::start(&ServeConfig {
        handler_workers: 1,
        handler_backlog: 1,
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    let (status, body) = http_request(
        addr,
        "POST",
        "/api/runs",
        Some(&format!("{{\"scenario\":{SCENARIO:?},\"hold_ms\":2000}}")),
    )
    .expect("submit completes");
    assert_eq!(status, 202, "{body}");

    // The stream head arrives once the only worker owns the stream.
    let mut stream = send_request(addr, &field_str(&body, "events"));
    let mut head = [0u8; 15];
    stream.read_exact(&mut head).expect("stream head");
    assert_eq!(&head, b"HTTP/1.1 200 OK");

    // The accept loop takes connections in order: this one fills the
    // backlog, so the next is shed before it even sends a request.
    let mut waiting = send_request(addr, "/api/healthz");
    let mut shed = TcpStream::connect(addr).expect("connects");
    shed.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let mut raw = String::new();
    shed.read_to_string(&mut raw).expect("shed response");
    assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
    assert!(raw.contains("server overloaded, try again"), "{raw}");

    server.shutdown();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("stream ends");
    assert!(rest.contains("event: end"), "{rest}");
    // The backlogged connection is answered or closed, never left hanging.
    let mut raw = String::new();
    waiting.read_to_string(&mut raw).expect("backlogged connection ends");
    assert!(raw.is_empty() || raw.starts_with("HTTP/1.1 200"), "{raw}");
}

#[test]
fn shutdown_endpoint_drains_cleanly() {
    let server = start();
    let addr = server.local_addr();
    let (status, body) =
        http_request(addr, "POST", "/api/shutdown", None).expect("request completes");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"shutting_down\":true"), "{body}");
    server.join();
}

/// A body nested past the JSON parser's depth limit is a `400`, not a
/// stack overflow that takes the whole server down.
#[test]
fn deeply_nested_bodies_are_rejected_and_the_server_survives() {
    let server = start();
    let addr = server.local_addr();
    let body = "[".repeat(xui_serve::http::MAX_BODY_BYTES);
    for path in ["/api/runs", "/api/sweeps"] {
        let (status, reply) =
            http_request(addr, "POST", path, Some(&body)).expect("request completes");
        assert_eq!(status, 400, "{path}: {reply}");
        assert!(reply.contains("invalid JSON body"), "{path}: {reply}");
        assert!(reply.contains("nested deeper than 128"), "{path}: {reply}");
    }
    let (status, body) = get(addr, "/api/healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
    let (status, body) =
        http_request(addr, "POST", "/api/shutdown", None).expect("request completes");
    assert_eq!(status, 200, "{body}");
    server.join();
}

#[test]
fn sweep_api_expands_runs_and_streams_per_point_progress() {
    let server = start();
    let addr = server.local_addr();

    // Malformed bodies and bad grids are 400s, not queued garbage.
    let (status, body) =
        http_request(addr, "POST", "/api/sweeps", Some("{ nope")).expect("request completes");
    assert_eq!(status, 400, "{body}");
    let bad_grid = r#"{"sweep":{"name":"bad","scenario":"fig2_timeline","grid":{"sender_countdown":{"from":9,"to":1,"step":1}}}}"#;
    let (status, body) =
        http_request(addr, "POST", "/api/sweeps", Some(bad_grid)).expect("request completes");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("empty range"), "{body}");

    // A fast inline 4-point grid over the cycle sim.
    let spec = r#"{"sweep":{
        "name": "http_grid",
        "scenario": "fig2_timeline",
        "grid": {
            "sender_countdown": [500, 600],
            "receiver_countdown": [20000, 30000]
        }
    }}"#;
    let (status, body) =
        http_request(addr, "POST", "/api/sweeps", Some(spec)).expect("request completes");
    assert_eq!(status, 202, "{body}");
    let id = field_u64(&body, "id");
    assert_eq!(field_u64(&body, "points"), 4, "{body}");

    // Poll status until every point is terminal.
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_body = loop {
        let (status, body) = get(addr, &format!("/api/sweeps/{id}"));
        assert_eq!(status, 200, "{body}");
        if field_u64(&body, "done") == 4 {
            break body;
        }
        assert!(Instant::now() < deadline, "sweep did not finish in time: {body}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(final_body.contains("\"passed\":true"), "{final_body}");
    assert!(
        final_body.contains("fig2_timeline@sender_countdown=500,receiver_countdown=20000"),
        "{final_body}"
    );

    // The listing shows it, an unknown id is a 404.
    let (status, body) = get(addr, "/api/sweeps");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"http_grid\""), "{body}");
    let (status, _) = get(addr, &format!("/api/sweeps/{}", id + 999));
    assert_eq!(status, 404);

    // A late subscriber replays every point plus the summary frame.
    let report = consume_stream(addr, &format!("/api/sweeps/{id}/events"), 64, 0)
        .expect("stream completes");
    assert!(report.delivered_events >= 5, "{report:?}");

    server.shutdown();
}

#[test]
fn sweep_stream_watches_points_live() {
    let server = start();
    let addr = server.local_addr();
    let spec = r#"{"sweep":{
        "name": "http_live",
        "scenario": "fig2_timeline",
        "grid": { "sender_countdown": [500, 600, 700] }
    }}"#;
    let (status, body) =
        http_request(addr, "POST", "/api/sweeps", Some(spec)).expect("request completes");
    assert_eq!(status, 202, "{body}");
    let id = field_u64(&body, "id");

    // Attach immediately: the stream ends when the sweep's hub closes,
    // having delivered per-point `queued`/terminal snapshots.
    let report = consume_stream(addr, &format!("/api/sweeps/{id}/events"), 1024, 0)
        .expect("stream completes");
    assert!(
        report.delivered_events + report.dropped_events >= 3,
        "expected at least one snapshot per point: {report:?}"
    );

    let (status, body) = get(addr, &format!("/api/sweeps/{id}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(field_u64(&body, "done"), 3, "{body}");
    server.shutdown();
}
