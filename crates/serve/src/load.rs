//! The self-load benchmark behind the `serve_load` binary: start an
//! in-process [`Server`], submit a run, attach a
//! population of live SSE subscribers (one deliberately slow), and
//! drive open-loop request churn against the status endpoints — the
//! same [`ClientPopulation`] arrival model the DES experiments use,
//! with its 2 GHz tick timeline mapped onto wall-clock microseconds.
//!
//! The report records achieved request throughput, response latency
//! percentiles, and every subscriber's delivery/loss accounting; the
//! `serve_load` binary prints it and saves it as
//! `results/serve_load.json`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use xui_des::stats::{Histogram, Summary};
use xui_workloads::openloop::{ArrivalBatcher, ClientPopulation};

use crate::server::{ServeConfig, Server};

/// How to shape the load run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadConfig {
    /// Scenario preset the watched run executes.
    pub scenario: String,
    /// Concurrent SSE subscribers attached to the run (the last one is
    /// deliberately slow: queue capacity 1, paced drains).
    pub subscribers: usize,
    /// Total churn requests to issue across the churn threads.
    pub requests: u64,
    /// Modeled open-loop clients generating the churn arrivals.
    pub clients: u64,
    /// Per-client request rate (requests/second).
    pub rps_per_client: f64,
    /// Churn threads sharing the arrival stream.
    pub churn_threads: usize,
    /// RNG seed for the arrival draws.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            scenario: "fig2_timeline".to_string(),
            subscribers: 8,
            requests: 240,
            clients: 100_000,
            rps_per_client: 0.006, // 600 req/s aggregate
            churn_threads: 4,
            seed: 7,
        }
    }
}

/// One subscriber's outcome, as parsed from its stream's `end` frame.
#[derive(Debug, Clone, Serialize)]
pub struct SubscriberReport {
    /// Queue capacity the subscriber asked for (`?cap=`).
    pub cap: u64,
    /// Consumer pacing it asked for (`?drain_ms=`).
    pub drain_ms: u64,
    /// SSE frames received (telemetry + snapshots, excluding `end`).
    pub frames: u64,
    /// `delivered_events` from the `end` frame.
    pub delivered_events: u64,
    /// `dropped_events` from the `end` frame.
    pub dropped_events: u64,
}

/// Everything the load run measured.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// The configuration that produced this report.
    pub config: LoadConfig,
    /// Final state of the watched run (`done` expected).
    pub run_state: String,
    /// Artifacts the watched run produced.
    pub run_artifacts: u64,
    /// Churn requests issued.
    pub requests_sent: u64,
    /// Churn requests answered `2xx`.
    pub requests_ok: u64,
    /// Wall-clock of the churn phase, milliseconds.
    pub wall_ms: f64,
    /// Achieved churn throughput, requests/second.
    pub achieved_rps: f64,
    /// Offered (configured) aggregate load, requests/second.
    pub offered_rps: f64,
    /// Response-latency distribution, microseconds.
    pub latency_us: Summary,
    /// p50 response latency, microseconds.
    pub p50_us: u64,
    /// p99 response latency, microseconds.
    pub p99_us: u64,
    /// Per-subscriber outcome; the last entry is the slow one.
    pub subscribers: Vec<SubscriberReport>,
}

/// A minimal one-shot HTTP client (connect, one request, read to EOF),
/// shared by the load driver, the CI smoke script, and the integration
/// tests. Returns `(status, body)`.
///
/// # Errors
///
/// Propagates transport errors; a malformed response is an
/// `InvalidData` error.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let payload = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: xui\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
}

/// Splits a raw HTTP/1.1 response into `(status, body)`.
fn parse_response(raw: &str) -> io::Result<(u16, String)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response without header/body separator"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response without a status code"))?;
    Ok((status, body.to_string()))
}

/// Reads one SSE stream to EOF and parses it into a
/// [`SubscriberReport`]: `cap` bounds the server-side subscriber
/// queue, `drain_ms` paces the server's write loop to model a slow
/// consumer.
///
/// # Errors
///
/// Propagates transport errors; a non-200 answer is `InvalidData`.
pub fn consume_stream(
    addr: SocketAddr,
    path: &str,
    cap: u64,
    drain_ms: u64,
) -> io::Result<SubscriberReport> {
    let (status, body) =
        http_request(addr, "GET", &format!("{path}?cap={cap}&drain_ms={drain_ms}"), None)?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("stream request answered {status}"),
        ));
    }
    let mut frames = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut in_end = false;
    for line in body.lines() {
        if let Some(name) = line.strip_prefix("event: ") {
            in_end = name == "end";
            if !in_end {
                frames += 1;
            }
        } else if in_end {
            if let Some(data) = line.strip_prefix("data: ") {
                if let Ok(v) = serde_json::value_from_str(data) {
                    delivered = serde::field(&v, "end frame", "delivered_events").unwrap_or(0);
                    dropped = serde::field(&v, "end frame", "dropped_events").unwrap_or(0);
                }
            }
        }
    }
    Ok(SubscriberReport { cap, drain_ms, frames, delivered_events: delivered, dropped_events: dropped })
}

/// The churn request mix: cheap reads against the three status
/// endpoints, round-robin.
fn churn_path(i: u64, run_id: u64) -> String {
    match i % 3 {
        0 => "/api/healthz".to_string(),
        1 => "/api/scenarios".to_string(),
        _ => format!("/api/runs/{run_id}"),
    }
}

/// Runs the whole benchmark against an in-process server and returns
/// the report. Artifacts are *not* saved (the watched run streams
/// in-memory); the caller records the report itself.
///
/// # Errors
///
/// Returns a message when the server cannot start or the HTTP
/// choreography fails.
///
/// # Panics
///
/// Panics if internal thread joins fail (a poisoned test run).
#[allow(clippy::too_many_lines)]
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let server = Server::start(&ServeConfig {
        // Every live stream parks one handler; churn needs headroom.
        handler_workers: cfg.subscribers + cfg.churn_threads + 4,
        handler_backlog: 256,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.local_addr();

    // Submit the watched run with a hold long enough for the
    // subscribers to attach before execution starts.
    let scenario = serde_json::to_string(&cfg.scenario).unwrap_or_default();
    let submit_body = format!("{{\"scenario\":{scenario},\"hold_ms\":800}}");
    let (status, body) = http_request(addr, "POST", "/api/runs", Some(&submit_body))
        .map_err(|e| format!("submit failed: {e}"))?;
    if status != 202 {
        return Err(format!("submit answered {status}: {body}"));
    }
    let run_id: u64 = serde_json::value_from_str(&body)
        .ok()
        .and_then(|v| serde::field(&v, "submit response", "id").ok())
        .ok_or_else(|| format!("submit response without an id: {body}"))?;

    // Subscribers: all fast except the last (cap 1, paced drains).
    let mut sub_handles = Vec::new();
    for i in 0..cfg.subscribers {
        let slow = i + 1 == cfg.subscribers;
        let (cap, drain_ms) = if slow { (1, 200) } else { (4096, 0) };
        let path = format!("/api/runs/{run_id}/events");
        sub_handles.push(
            std::thread::Builder::new()
                .name(format!("serve-load-sub-{i}"))
                .spawn(move || consume_stream(addr, &path, cap, drain_ms))
                .expect("spawn subscriber"),
        );
    }

    // Churn: open-loop arrivals from the shared population, split
    // across the churn threads; each request's latency is recorded
    // from its actual send (the achieved-vs-offered gap shows up in
    // `achieved_rps`, not hidden inside the percentiles).
    let per_thread_requests = cfg.requests / cfg.churn_threads as u64;
    let population = ClientPopulation {
        clients: cfg.clients / cfg.churn_threads as u64,
        rps_per_client: cfg.rps_per_client,
    };
    let churn_started = Instant::now();
    let mut churn_handles = Vec::new();
    for t in 0..cfg.churn_threads {
        let seed = cfg.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(t as u64 + 1));
        churn_handles.push(
            std::thread::Builder::new()
                .name(format!("serve-load-churn-{t}"))
                .spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut batcher = ArrivalBatcher::new(population, 64);
                    let mut hist = Histogram::new();
                    let mut sent = 0u64;
                    let mut ok = 0u64;
                    let start = Instant::now();
                    'outer: loop {
                        let arrivals: Vec<u64> = batcher.draw(&mut rng).to_vec();
                        for ticks in arrivals {
                            if sent >= per_thread_requests {
                                break 'outer;
                            }
                            // 2 GHz ticks → µs on the wall clock.
                            let due = Duration::from_micros(ticks / 2_000);
                            if let Some(wait) = due.checked_sub(start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            let sent_at = Instant::now();
                            let path = churn_path(sent, run_id);
                            sent += 1;
                            if let Ok((status, _)) = http_request(addr, "GET", &path, None) {
                                if (200..300).contains(&status) {
                                    ok += 1;
                                }
                            }
                            let us = u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX);
                            hist.record(us);
                        }
                    }
                    (hist, sent, ok)
                })
                .expect("spawn churn thread"),
        );
    }

    let mut latency = Histogram::new();
    let mut requests_sent = 0u64;
    let mut requests_ok = 0u64;
    for h in churn_handles {
        let (hist, sent, ok) = h.join().expect("churn thread panicked");
        latency.merge(&hist);
        requests_sent += sent;
        requests_ok += ok;
    }
    let wall_ms = churn_started.elapsed().as_secs_f64() * 1e3;

    // The streams end when the run does (the hub closes at the
    // terminal transition), so joining the subscribers is also the
    // wait-for-terminal barrier; only then is the status final.
    let mut subscribers = Vec::new();
    for h in sub_handles {
        match h.join().expect("subscriber thread panicked") {
            Ok(report) => subscribers.push(report),
            Err(e) => return Err(format!("subscriber stream failed: {e}")),
        }
    }

    let (_, status_body) = http_request(addr, "GET", &format!("/api/runs/{run_id}"), None)
        .map_err(|e| format!("final status failed: {e}"))?;
    let status_v = serde_json::value_from_str(&status_body)
        .map_err(|e| format!("final status is not JSON: {e}"))?;
    let run_state: String =
        serde::field(&status_v, "run status", "state").unwrap_or_else(|_| "unknown".to_string());
    let artifacts: Vec<String> =
        serde::field(&status_v, "run status", "artifacts").unwrap_or_default();

    // Clean shutdown through the public endpoint, like CI does.
    let _ = http_request(addr, "POST", "/api/shutdown", None);
    server.join();

    let summary = latency.summary();
    Ok(LoadReport {
        config: cfg.clone(),
        run_state,
        run_artifacts: artifacts.len() as u64,
        requests_sent,
        requests_ok,
        wall_ms,
        achieved_rps: if wall_ms > 0.0 { requests_sent as f64 / (wall_ms / 1e3) } else { 0.0 },
        offered_rps: cfg.clients as f64 * cfg.rps_per_client,
        latency_us: summary,
        p50_us: latency.percentile(50.0),
        p99_us: latency.percentile(99.0),
        subscribers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_extracts_status_and_body() {
        let (status, body) =
            parse_response("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "{}");
        assert!(parse_response("garbage").is_err());
    }

    #[test]
    fn churn_mix_cycles_the_cheap_endpoints() {
        assert_eq!(churn_path(0, 3), "/api/healthz");
        assert_eq!(churn_path(1, 3), "/api/scenarios");
        assert_eq!(churn_path(2, 3), "/api/runs/3");
        assert_eq!(churn_path(3, 3), "/api/healthz");
    }
}
