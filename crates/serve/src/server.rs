//! The HTTP server: a `TcpListener` accept loop feeding a bounded
//! [`WorkerPool`] of connection handlers, routing onto the scenario
//! registry, the [`RunManager`], and the `results/` artifact store.
//!
//! # Endpoints
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | GET  | `/api/healthz` | liveness probe |
//! | GET  | `/api/scenarios` | registry listing (name/backend/title) |
//! | GET  | `/api/scenarios/<name>` | one preset as scenario JSON |
//! | POST | `/api/runs` | validate + enqueue a run |
//! | GET  | `/api/runs` | every run's status |
//! | GET  | `/api/runs/<id>` | one run's status + loss accounting |
//! | DELETE | `/api/runs/<id>` | cancel a still-queued run (409 otherwise) |
//! | GET  | `/api/runs/<id>/events` | live SSE stream of the run |
//! | GET  | `/api/runs/<id>/artifacts/<artifact>` | one artifact's bytes |
//! | POST | `/api/sweeps` | expand a sweep grid + enqueue every point |
//! | GET  | `/api/sweeps` | every sweep's status |
//! | GET  | `/api/sweeps/<id>` | one sweep's per-point status |
//! | GET  | `/api/sweeps/<id>/events` | live SSE stream of per-point progress |
//! | GET  | `/api/artifacts` | `results/*.json` listing |
//! | GET  | `/api/artifacts/<name>` | one `results/<name>.json`, verbatim |
//! | POST | `/api/shutdown` | drain and stop the server |
//!
//! `POST /api/runs` takes `{"scenario": <preset-name or full spec>,
//! "hold_ms": N, "save": bool}`; `hold_ms` (capped) delays execution so
//! stream clients can attach before a fast run finishes. The SSE
//! endpoint takes `?cap=N` (subscriber queue capacity — small caps make
//! a slow client lose events *visibly*, never stall the run) and
//! `?drain_ms=N` (consumer pacing, for testing slow clients).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{DeError, Deserialize, Value};
use xui_scenario::{registry, CancelError, Scenario, SubmitError, WorkerPool};

use crate::http::{self, Request, Response};
use crate::runs::{RunManager, RunShared};
use crate::sse;
use crate::sweeps::{self, SweepManager, SweepShared};

/// How the server is shaped. The defaults suit an interactive session;
/// the load benchmark and CI override the knobs they care about.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection-handler threads (each live SSE stream holds one).
    pub handler_workers: usize,
    /// Accepted-but-unhandled connections beyond the busy workers.
    pub handler_backlog: usize,
    /// Scenario-executing worker threads.
    pub run_workers: usize,
    /// Maximum queued (not yet running) run submissions.
    pub run_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            handler_workers: 16,
            handler_backlog: 64,
            run_workers: 2,
            run_depth: 16,
        }
    }
}

/// State shared by the accept loop and every handler.
struct Ctx {
    manager: Arc<RunManager>,
    sweeps: SweepManager,
    shutting_down: Arc<AtomicBool>,
    local_addr: SocketAddr,
}

/// A running server. Create with [`Server::start`]; stop with
/// [`Server::shutdown`] (or `POST /api/shutdown` followed by
/// [`Server::join`]).
pub struct Server {
    ctx: Arc<Ctx>,
    /// Connection handlers, fed by the accept loop.
    pool: Arc<WorkerPool<TcpStream>>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.ctx.local_addr).finish()
    }
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(config: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            manager: Arc::new(RunManager::new(config.run_workers, config.run_depth)),
            sweeps: SweepManager::default(),
            shutting_down: Arc::new(AtomicBool::new(false)),
            local_addr,
        });
        let handler_ctx = Arc::clone(&ctx);
        let pool = Arc::new(WorkerPool::new(
            "xui-serve-worker",
            config.handler_workers,
            config.handler_backlog,
            move |stream| handle_connection(&handler_ctx, stream),
        ));
        let (accept_ctx, accept_pool) = (Arc::clone(&ctx), Arc::clone(&pool));
        let accept = std::thread::Builder::new()
            .name("xui-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_ctx, &accept_pool))
            .expect("spawn accept loop");
        Ok(Self { ctx, pool, accept: Some(accept) })
    }

    /// The bound address (with the actual port when 0 was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.local_addr
    }

    /// Whether a shutdown has been requested (by [`Server::shutdown`]
    /// or `POST /api/shutdown`).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutting_down.load(Ordering::Relaxed)
    }

    /// Blocks until the server has been asked to stop, then tears it
    /// down: the accept loop exits, queued runs are cancelled, running
    /// scenarios finish, live streams end with their `end` frame, and
    /// every thread is joined.
    pub fn join(mut self) {
        self.teardown();
    }

    /// Requests a stop and performs the same teardown as
    /// [`Server::join`].
    pub fn shutdown(mut self) {
        request_shutdown(&self.ctx);
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Cancel queued runs and let running ones finish first: that
        // closes their hubs, which is what ends the SSE handlers still
        // occupying pool workers. Sweep monitors wait on those runs, so
        // they join right after, before the handler pool drains.
        // Connections still waiting for a handler close unanswered.
        self.ctx.manager.shutdown();
        self.ctx.sweeps.shutdown();
        drop(self.pool.shutdown());
    }
}

/// Flags the shutdown and pokes the listener so the blocking `accept`
/// returns.
fn request_shutdown(ctx: &Ctx) {
    ctx.shutting_down.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(ctx.local_addr);
}

fn accept_loop(listener: &TcpListener, ctx: &Ctx, pool: &WorkerPool<TcpStream>) {
    for stream in listener.incoming() {
        if ctx.shutting_down.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // A full backlog hands the stream back: shed load with a `503`
        // instead of queueing unboundedly.
        if let Err(mut stream) = pool.submit(stream) {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = Response::error(503, "server overloaded, try again").write_to(&mut stream);
        }
    }
}

fn handle_connection(ctx: &Ctx, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let req = match http::parse_request(&mut reader) {
        Ok(req) => req,
        Err(http::ParseError::Eof) => return, // health-probe TCP connect
        Err(e) => {
            let _ = Response::error(400, &e.to_string()).write_to(&mut writer);
            return;
        }
    };
    let segments: Vec<String> = req.segments().iter().map(|s| (*s).to_string()).collect();
    let segs: Vec<&str> = segments.iter().map(String::as_str).collect();

    // The SSE endpoints write their own streaming responses.
    if req.method == "GET" && matches!(segs.as_slice(), ["api", "runs", _, "events"]) {
        stream_run_events(ctx, &req, segs[2], &mut writer);
        return;
    }
    if req.method == "GET" && matches!(segs.as_slice(), ["api", "sweeps", _, "events"]) {
        stream_sweep_events(ctx, &req, segs[2], &mut writer);
        return;
    }

    let response = route(ctx, &req, &segs);
    let _ = response.write_to(&mut writer);
}

fn route(ctx: &Ctx, req: &Request, segs: &[&str]) -> Response {
    match (req.method.as_str(), segs) {
        ("GET", ["api", "healthz"]) => Response::ok_json("{\"ok\":true}"),
        ("GET", ["api", "scenarios"]) => list_scenarios(),
        ("GET", ["api", "scenarios", name]) => show_scenario(name),
        ("POST", ["api", "runs"]) => submit_run(ctx, req),
        ("GET", ["api", "runs"]) => {
            Response::ok_json(serde_json::to_string(&ctx.manager.list_value()).unwrap_or_default())
        }
        ("GET", ["api", "runs", id]) => run_status(ctx, id),
        ("DELETE", ["api", "runs", id]) => delete_run(ctx, id),
        ("GET", ["api", "runs", id, "artifacts", artifact]) => run_artifact(ctx, id, artifact),
        ("POST", ["api", "sweeps"]) => submit_sweep(ctx, req),
        ("GET", ["api", "sweeps"]) => {
            Response::ok_json(serde_json::to_string(&ctx.sweeps.list_value()).unwrap_or_default())
        }
        ("GET", ["api", "sweeps", id]) => sweep_status(ctx, id),
        ("GET", ["api", "artifacts"]) => list_artifacts(),
        ("GET", ["api", "artifacts", name]) => show_artifact(name),
        ("POST", ["api", "shutdown"]) => {
            request_shutdown(ctx);
            Response::ok_json("{\"ok\":true,\"shutting_down\":true}")
        }
        ("GET" | "POST", _) => Response::not_found(&req.path),
        _ => Response::error(405, &format!("method {} not allowed", req.method)),
    }
}

fn list_scenarios() -> Response {
    let rows: Vec<Value> = registry::all()
        .iter()
        .map(|sc| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(sc.name.clone())),
                ("backend".to_string(), Value::Str(sc.experiment.backend().name().to_string())),
                ("title".to_string(), Value::Str(sc.title.clone())),
            ])
        })
        .collect();
    Response::ok_json(serde_json::to_string(&Value::Array(rows)).unwrap_or_default())
}

fn show_scenario(name: &str) -> Response {
    match registry::find(name) {
        Some(sc) => Response::ok_json(sc.to_json()),
        None => Response::not_found(&format!("scenario `{name}`")),
    }
}

/// Parses the `POST /api/runs` body: a preset name or an inline spec,
/// plus the hold and save knobs.
fn parse_submission(body: &str) -> Result<(Scenario, u64, bool), String> {
    let v = serde_json::value_from_str(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let de = |e: DeError| format!("invalid body: {e}");
    let scenario = match serde::field(&v, "run submission", "scenario").map_err(de)? {
        Value::Str(name) => registry::find(&name)
            .ok_or_else(|| format!("unknown scenario `{name}` (see GET /api/scenarios)"))?,
        spec @ Value::Object(_) => Scenario::from_value(&spec)
            .map_err(|e| format!("invalid scenario spec: {e}"))?,
        Value::Null => return Err("the body needs a `scenario` field".to_string()),
        other => {
            return Err(format!(
                "`scenario` must be a preset name or a spec object, got {other:?}"
            ))
        }
    };
    let hold_ms: Option<u128> = serde::field(&v, "run submission", "hold_ms").map_err(de)?;
    let save: Option<bool> = serde::field(&v, "run submission", "save").map_err(de)?;
    Ok((
        scenario,
        hold_ms.map_or(0, |n| u64::try_from(n).unwrap_or(u64::MAX)),
        save.unwrap_or(false),
    ))
}

fn submit_run(ctx: &Ctx, req: &Request) -> Response {
    let (scenario, hold_ms, save) = match parse_submission(&req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };
    match ctx.manager.submit(scenario, hold_ms, save) {
        Ok(id) => Response::json(
            202,
            format!(
                "{{\"id\":{id},\"state\":\"queued\",\"status\":\"/api/runs/{id}\",\"events\":\"/api/runs/{id}/events\"}}"
            ),
        ),
        Err(e @ SubmitError::Invalid(_)) => Response::error(400, &e.to_string()),
        Err(e @ (SubmitError::Full { .. } | SubmitError::ShuttingDown)) => {
            Response::error(503, &e.to_string())
        }
    }
}

fn submit_sweep(ctx: &Ctx, req: &Request) -> Response {
    let (spec, save) = match sweeps::parse_sweep_submission(&req.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };
    if ctx.shutting_down.load(Ordering::Relaxed) {
        return Response::error(503, "server is shutting down");
    }
    match ctx.sweeps.submit(&ctx.manager, &ctx.shutting_down, &spec, save) {
        Ok((id, total)) => Response::json(202, sweeps::accepted_json(id, &spec.name, total)),
        Err(msg) => Response::error(400, &msg),
    }
}

fn sweep_status(ctx: &Ctx, raw_id: &str) -> Response {
    let Some(id) = parse_run_id(raw_id) else {
        return Response::error(400, &format!("sweep id `{raw_id}` is not a number"));
    };
    match ctx.sweeps.shared(id) {
        Some(s) => {
            Response::ok_json(serde_json::to_string(&s.status_value()).unwrap_or_default())
        }
        None => Response::not_found(&format!("sweep {id}")),
    }
}

fn parse_run_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

fn run_status(ctx: &Ctx, raw_id: &str) -> Response {
    let Some(id) = parse_run_id(raw_id) else {
        return Response::error(400, &format!("run id `{raw_id}` is not a number"));
    };
    match ctx.manager.status_value(id) {
        Some(v) => Response::ok_json(serde_json::to_string(&v).unwrap_or_default()),
        None => Response::not_found(&format!("run {id}")),
    }
}

/// `DELETE /api/runs/<id>`: cancels a still-queued run. 200 with the
/// final (`failed`/cancelled) status on success; 404 for unknown ids;
/// 409 once the run is running or terminal — deletion never rewrites
/// history, only un-queues work no worker has claimed yet.
fn delete_run(ctx: &Ctx, raw_id: &str) -> Response {
    let Some(id) = parse_run_id(raw_id) else {
        return Response::error(400, &format!("run id `{raw_id}` is not a number"));
    };
    match ctx.manager.delete(id) {
        Ok(status) => Response::ok_json(serde_json::to_string(&status).unwrap_or_default()),
        Err(CancelError::NotFound) => Response::not_found(&format!("run {id}")),
        Err(e @ CancelError::NotCancellable { .. }) => Response::error(409, &e.to_string()),
    }
}

fn run_artifact(ctx: &Ctx, raw_id: &str, artifact: &str) -> Response {
    let Some(id) = parse_run_id(raw_id) else {
        return Response::error(400, &format!("run id `{raw_id}` is not a number"));
    };
    if ctx.manager.status(id).is_none() {
        return Response::not_found(&format!("run {id}"));
    }
    match ctx.manager.artifact(id, artifact) {
        Some(body) => Response::ok_json(body),
        None => Response::not_found(&format!("artifact `{artifact}` of run {id}")),
    }
}

/// True for the artifact names the browser serves: the `results/<id>`
/// stems, no separators, no traversal.
fn safe_artifact_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !name.contains("..")
}

fn results_dir() -> PathBuf {
    Path::new("results").to_path_buf()
}

fn list_artifacts() -> Response {
    let mut names: Vec<String> = std::fs::read_dir(results_dir())
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter_map(|n| n.strip_suffix(".json").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    let body = serde_json::to_string(&Value::Array(
        names.into_iter().map(Value::Str).collect(),
    ))
    .unwrap_or_default();
    Response::ok_json(body)
}

fn show_artifact(name: &str) -> Response {
    if !safe_artifact_name(name) {
        return Response::error(400, &format!("invalid artifact name `{name}`"));
    }
    let stem = name.strip_suffix(".json").unwrap_or(name);
    match std::fs::read_to_string(results_dir().join(format!("{stem}.json"))) {
        Ok(body) => Response::ok_json(body),
        Err(_) => Response::not_found(&format!("artifact `{name}`")),
    }
}

/// Default SSE subscriber queue capacity.
const DEFAULT_STREAM_CAP: usize = 1024;
/// Poll interval of the stream loop when the client asked for no pacing.
const STREAM_TICK: Duration = Duration::from_millis(10);
/// Upper bound on client-requested pacing, so a stream cannot park a
/// handler thread indefinitely between drains.
const MAX_DRAIN_MS: u64 = 1_000;

/// Streams one run's broadcast channel as SSE until the run ends, the
/// client disconnects, or the server shuts down.
fn stream_run_events(ctx: &Ctx, req: &Request, raw_id: &str, writer: &mut TcpStream) {
    let Some(id) = parse_run_id(raw_id) else {
        let _ = Response::error(400, &format!("run id `{raw_id}` is not a number")).write_to(writer);
        return;
    };
    let Some(shared) = ctx.manager.run_shared(id) else {
        let _ = Response::not_found(&format!("run {id}")).write_to(writer);
        return;
    };
    let cap = req
        .query_u64("cap")
        .map_or(DEFAULT_STREAM_CAP, |c| usize::try_from(c.max(1)).unwrap_or(1));
    let pacing = Duration::from_millis(req.query_u64("drain_ms").unwrap_or(0).min(MAX_DRAIN_MS));

    // Subscribe *before* the terminal check: if the run is already over
    // we replay the ring instead (complete history); if it finishes
    // right after the check, the subscription sees the close.
    let sub = shared.subscribe(cap);
    if ctx.manager.is_terminal(id) {
        drop(sub);
        replay_terminal_run(ctx, id, &shared, writer);
        return;
    }

    if writer.write_all(sse::STREAM_HEAD.as_bytes()).is_err() {
        return;
    }
    loop {
        let closed = sub.is_closed() || ctx.shutting_down.load(Ordering::Relaxed);
        for item in sub.drain() {
            if writer.write_all(sse::encode_item(&item).as_bytes()).is_err() {
                return; // client went away; subscription prunes itself
            }
        }
        if closed {
            break;
        }
        std::thread::sleep(if pacing.is_zero() { STREAM_TICK } else { pacing });
    }
    let _ = writer
        .write_all(sse::encode_end(sub.delivered_events(), sub.dropped_events()).as_bytes());
    let _ = writer.flush();
}

/// Streams one sweep's broadcast channel as SSE until every point is
/// terminal, the client disconnects, or the server shuts down. A
/// subscriber that attaches after the sweep ended gets a replay of the
/// final per-point states instead.
fn stream_sweep_events(ctx: &Ctx, req: &Request, raw_id: &str, writer: &mut TcpStream) {
    let Some(id) = parse_run_id(raw_id) else {
        let _ =
            Response::error(400, &format!("sweep id `{raw_id}` is not a number")).write_to(writer);
        return;
    };
    let Some(shared) = ctx.sweeps.shared(id) else {
        let _ = Response::not_found(&format!("sweep {id}")).write_to(writer);
        return;
    };
    let cap = req
        .query_u64("cap")
        .map_or(DEFAULT_STREAM_CAP, |c| usize::try_from(c.max(1)).unwrap_or(1));
    let pacing = Duration::from_millis(req.query_u64("drain_ms").unwrap_or(0).min(MAX_DRAIN_MS));

    // Subscribe before the terminal check, like the run stream: a sweep
    // finishing right after the check closes the subscription.
    let sub = shared.subscribe(cap);
    if shared.is_terminal() {
        drop(sub);
        replay_terminal_sweep(&shared, writer);
        return;
    }

    if writer.write_all(sse::STREAM_HEAD.as_bytes()).is_err() {
        return;
    }
    loop {
        let closed = sub.is_closed() || ctx.shutting_down.load(Ordering::Relaxed);
        for item in sub.drain() {
            if writer.write_all(sse::encode_item(&item).as_bytes()).is_err() {
                return;
            }
        }
        if closed {
            break;
        }
        std::thread::sleep(if pacing.is_zero() { STREAM_TICK } else { pacing });
    }
    let _ = writer
        .write_all(sse::encode_end(sub.delivered_events(), sub.dropped_events()).as_bytes());
    let _ = writer.flush();
}

/// Replays a finished sweep for a late subscriber: every point's final
/// state, then the summary, then `end`.
fn replay_terminal_sweep(shared: &Arc<SweepShared>, writer: &mut TcpStream) {
    if writer.write_all(sse::STREAM_HEAD.as_bytes()).is_err() {
        return;
    }
    let mut delivered = 0u64;
    for p in shared.points() {
        let frame = sse::encode_frame("point", &serde_json::to_string(&p).unwrap_or_default());
        if writer.write_all(frame.as_bytes()).is_err() {
            return;
        }
        delivered += 1;
    }
    let status = shared.status_value();
    let frame = sse::encode_frame("sweep", &serde_json::to_string(&status).unwrap_or_default());
    if writer.write_all(frame.as_bytes()).is_err() {
        return;
    }
    delivered += 1;
    let _ = writer.write_all(sse::encode_end(delivered, 0).as_bytes());
    let _ = writer.flush();
}

/// The catch-up path for a subscriber that attached after the run
/// ended: replay the retained ring window, then the final state and
/// metrics, then `end` (whose drop count is the *ring's* overflow — the
/// only loss a late reader can have).
fn replay_terminal_run(ctx: &Ctx, id: u64, shared: &Arc<RunShared>, writer: &mut TcpStream) {
    if writer.write_all(sse::STREAM_HEAD.as_bytes()).is_err() {
        return;
    }
    let events = shared.ring_events();
    let mut delivered = 0u64;
    for ev in &events {
        if writer
            .write_all(sse::encode_item(&xui_telemetry::StreamItem::Event(*ev)).as_bytes())
            .is_err()
        {
            return;
        }
        delivered += 1;
    }
    if let Some(status) = ctx.manager.status(id) {
        let state = serde_json::to_string(&status.state).unwrap_or_default();
        let frame = sse::encode_frame("state", &format!("{{\"id\":{id},\"state\":{state}}}"));
        if writer.write_all(frame.as_bytes()).is_err() {
            return;
        }
        delivered += 1;
    }
    let metrics = sse::encode_frame("metrics", &shared.metrics_json());
    if writer.write_all(metrics.as_bytes()).is_err() {
        return;
    }
    delivered += 1;
    let _ = writer
        .write_all(sse::encode_end(delivered, shared.ring_dropped_events()).as_bytes());
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_parsing_accepts_names_specs_and_knobs() {
        let (sc, hold, save) =
            parse_submission("{\"scenario\":\"fig2_timeline\",\"hold_ms\":50,\"save\":true}")
                .expect("parses");
        assert_eq!(sc.name, "fig2_timeline");
        assert_eq!(hold, 50);
        assert!(save);

        let spec = registry::find("fig2_timeline").unwrap().to_json();
        let (sc, hold, save) =
            parse_submission(&format!("{{\"scenario\":{spec}}}")).expect("inline spec parses");
        assert_eq!(sc.name, "fig2_timeline");
        assert_eq!((hold, save), (0, false));
    }

    #[test]
    fn submission_parsing_rejects_garbage() {
        assert!(parse_submission("not json").is_err());
        assert!(parse_submission("[]").is_err());
        assert!(parse_submission("{}").is_err());
        assert!(parse_submission("{\"scenario\":\"no_such_preset\"}").is_err());
        assert!(parse_submission("{\"scenario\":\"fig2_timeline\",\"hold_ms\":\"x\"}").is_err());
        assert!(parse_submission("{\"scenario\":\"fig2_timeline\",\"save\":3}").is_err());
    }

    #[test]
    fn artifact_names_are_sanitized() {
        assert!(safe_artifact_name("fig2_timeline"));
        assert!(safe_artifact_name("BENCH_sweep.json"));
        assert!(!safe_artifact_name("../etc/passwd"));
        assert!(!safe_artifact_name("a/b"));
        assert!(!safe_artifact_name(""));
    }
}
