//! The control-plane group of `des_scale`: an in-process `xui serve`
//! with one run worker, driven by two closed-loop clients. Each client
//! submits a preset run (`save:false`), follows its SSE stream to the
//! `end` frame, fetches every artifact and byte-compares it with an
//! in-memory `runner::run` of the same preset made at set-up.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use xui_scenario::runner::{run, RunOptions};
use xui_scenario::{registry, Artifact};
use xui_serve::{http_request, ServeConfig, Server};

use crate::stats::{percentile, Fnv};
use crate::trace::Tracer;
use crate::{ratio, shuffle, Ctx, Metrics, View, Workload};

/// Closed-loop clients (the load generator's threads and connections).
pub const CLIENTS: usize = 2;
/// Presets of the mix and their share of each pass's runs.
const MIX: [(&str, usize); 3] = [
    ("fig6_timer_core", 24),
    ("fig9_dsa", 23),
    ("mt_million_clients", 1),
];
const TIMEOUT: Duration = Duration::from_secs(60);
/// The stream's drain interval. The server's default, 10 ms, would
/// round every run up to whole ticks and hide the work of the run.
const STREAM_DRAIN_MS: u64 = 1;

pub struct ControlPlane {
    server: Server,
    /// The pass's runs: indices into [`MIX`], in a seeded order.
    order: Vec<usize>,
    /// In-memory artifacts of each preset, in [`MIX`] order.
    reference: Vec<Vec<Artifact>>,
    /// Untraced run latencies (POST to verified artifact) and pass time.
    run_ms: Vec<f64>,
    runs: u64,
    pass_s: f64,
    /// Per-pass sums of what the clients saw.
    counts: Seen,
}

/// What one client saw of one run.
#[derive(Default, Clone, Copy)]
struct Seen {
    digest: u64,
    non2xx: u64,
    shed_503: u64,
    frames: u64,
    dropped: u64,
}

impl Workload for ControlPlane {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let config = ServeConfig {
            handler_workers: 4,
            handler_backlog: 8,
            run_workers: 1,
            run_depth: 4,
            ..ServeConfig::default()
        };
        let server = Server::start(&config).map_err(|e| format!("cannot start the server: {e}"))?;
        let (status, _) = http_request(server.local_addr(), "GET", "/api/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if status != 200 {
            return Err(format!("healthz answered {status}"));
        }
        let mut reference = Vec::new();
        for (i, (name, _)) in MIX.iter().enumerate() {
            let sc = registry::find(name).ok_or_else(|| format!("no preset {name}"))?;
            let mut opts = RunOptions::default();
            opts.bench.threads = Some(1);
            let report = tr.span("scenario.runner", i as u64, |_| run(&sc, &opts))?;
            if !report.passed || report.artifacts.is_empty() {
                return Err(format!("in-memory run of {name} failed"));
            }
            reference.push(report.artifacts);
        }
        let mut order: Vec<usize> = MIX
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, n))| vec![i; n])
            .collect();
        shuffle(&mut StdRng::seed_from_u64(seed ^ 0xC0_47A0), &mut order);
        Ok(Self {
            server,
            order,
            reference,
            run_ms: Vec::new(),
            runs: 0,
            pass_s: 0.0,
            counts: Seen::default(),
        })
    }

    fn pass(&mut self, cx: &mut Ctx) -> Fnv {
        let addr = self.server.local_addr();
        let t = Instant::now();
        let mut seen: Vec<Seen> = (0..self.order.len()).map(|_| Seen::default()).collect();
        let (order, reference) = (&self.order, &self.reference);
        let clients: Vec<(Ctx, Vec<(usize, Seen)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let mut ccx = cx.fork(1.0 / CLIENTS as f32);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (i, &preset) in order.iter().enumerate().skip(c).step_by(CLIENTS) {
                            let mut seen = Seen::default();
                            let (r, _) = ccx.call("serve.run", i as u64, |tr| {
                                one_run(tr, addr, i as u64, preset, reference, &mut seen)
                            });
                            if let Err(e) = r {
                                ccx.fail(format!("run {i} ({}): {e}", MIX[preset].0));
                            }
                            out.push((i, seen));
                        }
                        (ccx, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let secs = t.elapsed().as_secs_f64();
        for (ccx, out) in clients {
            if !ccx.traced {
                self.run_ms
                    .extend(ccx.calls.iter().map(|&(ms, _)| f64::from(ms)));
            }
            cx.join(ccx);
            for (i, s) in out {
                seen[i] = s;
            }
        }
        let mut d = Fnv::default();
        let mut counts = Seen::default();
        for s in &seen {
            d.u64(s.digest);
            counts.non2xx += s.non2xx;
            counts.shed_503 += s.shed_503;
            counts.frames += s.frames;
            counts.dropped += s.dropped;
        }
        if !cx.traced {
            self.runs += self.order.len() as u64;
            self.pass_s += secs;
        }
        self.counts = counts;
        d
    }

    fn report(&self, view: &View, out: &mut Metrics) {
        out.insert("runs_per_s", ratio(self.runs as f64, self.pass_s));
        out.insert("run_p50_ms", percentile(&self.run_ms, 50.0));
        out.insert("run_p90_ms", percentile(&self.run_ms, 90.0));
        out.insert("run_samples", self.run_ms.len() as f64);
        out.insert(
            "scenario.runner_ms",
            view.setup_span("scenario.runner").self_s * 1e3 / (view.setup_reps * MIX.len()) as f64,
        );
        for (name, metric) in [
            ("serve.post", "serve.post_ms"),
            ("serve.queued", "serve.queued_ms"),
            ("serve.running", "serve.running_ms"),
            ("serve.artifact", "serve.artifact_ms"),
        ] {
            let a = view.span(name);
            out.insert(metric, ratio(a.total_s * 1e3, a.count as f64));
        }
        let c = &self.counts;
        out.insert("serve.non2xx", c.non2xx as f64);
        out.insert("serve.shed_503", c.shed_503 as f64);
        out.insert("telemetry.sse_frames", c.frames as f64);
        out.insert("telemetry.sse_dropped", c.dropped as f64);
    }

    fn finish(self) {
        self.server.shutdown();
    }
}

/// One closed-loop run: submit, follow the stream to `end`, fetch and
/// verify every artifact.
fn one_run(
    tr: &mut Tracer,
    addr: SocketAddr,
    point: u64,
    preset: usize,
    reference: &[Vec<Artifact>],
    seen: &mut Seen,
) -> Result<(), String> {
    let name = MIX[preset].0;
    let body = format!("{{\"scenario\":\"{name}\",\"save\":false}}");
    let (status, reply) = tr
        .span("serve.post", point, |_| {
            http_request(addr, "POST", "/api/runs", Some(&body))
        })
        .map_err(|e| format!("POST: {e}"))?;
    if status != 202 {
        seen.non2xx += 1;
        seen.shed_503 += u64::from(status == 503);
        return Err(format!("POST answered {status}: {reply}"));
    }
    let id = json_field::<u64>(&reply, "submit response", "id")
        .ok_or_else(|| format!("no run id in {reply}"))?;
    let posted = Instant::now();
    let stream = follow_stream(addr, id)?;
    let running = stream.running_at.unwrap_or(posted).max(posted);
    tr.record("serve.queued", point, posted, running);
    tr.record("serve.running", point, running, stream.end_at);
    seen.frames = stream.frames;
    seen.dropped = stream.dropped;
    // The stream drops frames rather than stall the run, so the final
    // state frame may be missing; the status endpoint has the answer.
    if stream.state.as_deref() != Some("done") {
        let (status, reply) = http_request(addr, "GET", &format!("/api/runs/{id}"), None)
            .map_err(|e| format!("GET status: {e}"))?;
        if status != 200 {
            seen.non2xx += 1;
            return Err(format!("status of run {id} answered {status}"));
        }
        let state: Option<String> = json_field(&reply, "run status", "state");
        if state.as_deref() != Some("done") {
            return Err(format!("run {id} ended in state {state:?}"));
        }
    }

    let mut digest = Fnv::default();
    for artifact in &reference[preset] {
        let path = format!("/api/runs/{id}/artifacts/{}", artifact.id);
        let (status, bytes) = tr
            .span("serve.artifact", point, |_| {
                http_request(addr, "GET", &path, None)
            })
            .map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            seen.non2xx += 1;
            return Err(format!("GET {path} answered {status}"));
        }
        if bytes != artifact.json {
            return Err(format!(
                "served artifact {} differs from the in-memory run",
                artifact.id
            ));
        }
        digest.bytes(bytes.as_bytes());
    }
    seen.digest = digest.0;
    Ok(())
}

struct Stream {
    running_at: Option<Instant>,
    end_at: Instant,
    state: Option<String>,
    frames: u64,
    dropped: u64,
}

/// Reads `/api/runs/<id>/events` to EOF, stamping frames as they land.
fn follow_stream(addr: SocketAddr, id: u64) -> Result<Stream, String> {
    let io = |e: std::io::Error| format!("events stream of run {id}: {e}");
    let mut conn = TcpStream::connect(addr).map_err(io)?;
    conn.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    write!(
        conn,
        "GET /api/runs/{id}/events?drain_ms={STREAM_DRAIN_MS} HTTP/1.1\r\nHost: xui\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "events stream of run {id} answered `{}`",
            line.trim()
        ));
    }
    let mut out = Stream {
        running_at: None,
        end_at: Instant::now(),
        state: None,
        frames: 0,
        dropped: 0,
    };
    let mut event = String::new();
    let mut in_body = false;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            break;
        }
        let l = line.trim_end();
        if !in_body {
            in_body = l.is_empty();
            continue;
        }
        if let Some(name) = l.strip_prefix("event: ") {
            event = name.to_string();
            if event != "end" {
                out.frames += 1;
            }
        } else if let Some(data) = l.strip_prefix("data: ") {
            match event.as_str() {
                "state" => {
                    let state = json_field(data, "state frame", "state").unwrap_or_default();
                    if state == "running" && out.running_at.is_none() {
                        out.running_at = Some(Instant::now());
                    }
                    out.state = Some(state);
                }
                "end" => {
                    out.end_at = Instant::now();
                    out.dropped = json_field(data, "end frame", "dropped_events").unwrap_or(0);
                }
                _ => {}
            }
        }
    }
    Ok(out)
}

/// Field `key` of the JSON object `json`, read with the vendored
/// `serde_json` as `xui_serve::load` reads the same replies.
fn json_field<T: serde::Deserialize>(json: &str, what: &str, key: &str) -> Option<T> {
    let v = serde_json::value_from_str(json).ok()?;
    serde::field(&v, what, key).ok()
}
