//! The repository benchmark: one seeded workload per run, timed from
//! outside through each crate's public functions.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`),
//! then repeats passes over the seed's call matrix for `--seconds`.
//! Each call is timed in every pass and its fastest time kept, and the
//! end-to-end times are scaled by a host-speed reference (`reference`),
//! so a slow phase of a shared host does not read as slow code.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics taken
//! from the traced ones. Every call's outputs are checked; the last
//! line of stdout is the JSON result. See `README.md`.

mod control_plane;
mod des_scale;
mod oracle_fuzz;
mod reference;
mod sim_strategies;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use stats::{median, percentile, Fnv};
use trace::{Agg, Tracer};

/// Seed whose per-pass digests are stored in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Digests of the simulated statistics of one pass at [`DEFAULT_SEED`].
const STORED_DIGESTS: &str = include_str!("../digests.txt");
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Directory (relative to the working directory) for run records.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 2] = ["sim_strategies", "des_scale"];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// does not exercise reads 0. Counts and times are per pass unless the
/// name says otherwise; rates divide traced work by traced self time.
const PER_LAYER: [(&str, &str); 62] = [
    // Workload headline rates, from the untraced passes.
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_minst_per_s", "Minst/s"),
    ("full_schedules_per_s", "1/s"),
    ("sim_schedules_per_s", "1/s"),
    ("des_mevents_per_s", "Mevents/s"),
    ("hold_mevents_per_s", "Mevents/s"),
    ("runs_per_s", "1/s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("run_samples", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.pass_median_s", "s"),
    ("host.ref_us", "us"),
    // sim
    ("sim.calls", "count"),
    ("sim.busy_s", "s"),
    ("sim.cycles", "count"),
    ("sim.insts", "count"),
    ("sim.squashed_uops", "count"),
    ("sim.delivered", "count"),
    ("sim.handler_surplus", "count"),
    ("sim.ipc", "inst/cycle"),
    ("sim.baseline.mcycles_per_s", "Mcycles/s"),
    ("sim.flush.mcycles_per_s", "Mcycles/s"),
    ("sim.drain.mcycles_per_s", "Mcycles/s"),
    ("sim.tracked.mcycles_per_s", "Mcycles/s"),
    ("sim.safepoint.mcycles_per_s", "Mcycles/s"),
    ("sim.uipi_cost_cycles", "cycles"),
    ("sim.tracked_cost_cycles", "cycles"),
    // workloads
    ("workloads.build_s", "s"),
    // oracle
    ("oracle.generate_s", "s"),
    ("oracle.spec_s", "s"),
    ("oracle.check_full_s", "s"),
    ("oracle.check_sim_s", "s"),
    ("oracle.events", "count"),
    ("oracle.sim_compatible", "count"),
    ("oracle.divergences", "count"),
    // des
    ("des.tenants.busy_s", "s"),
    ("des.events", "count"),
    ("des.peak_pending", "count"),
    ("des.calendar_runs", "count"),
    ("des.hold.load_s", "s"),
    ("des.hold.run_s", "s"),
    ("des.hold.final_tier", "calendar"),
    // runtime
    ("runtime.server.calls", "count"),
    ("runtime.server.busy_s", "s"),
    ("runtime.preemptions", "count"),
    ("runtime.tenants.completed", "count"),
    // net
    ("net.l3fwd.calls", "count"),
    ("net.l3fwd.busy_s", "s"),
    ("net.forwarded", "count"),
    ("net.lpm.build_ms", "ms"),
    ("net.lpm.mlookups_per_s", "Mlookups/s"),
    // scenario
    ("scenario.runner_ms", "ms"),
    // serve
    ("serve.post_ms", "ms"),
    ("serve.queued_ms", "ms"),
    ("serve.running_ms", "ms"),
    ("serve.artifact_ms", "ms"),
    ("serve.non2xx", "count"),
    ("serve.shed_503", "count"),
    // telemetry
    ("telemetry.sse_frames", "count"),
    ("telemetry.sse_dropped", "count"),
];

/// Per-layer names that are workload-level rates, also printed (as
/// end-to-end figures of that workload) by the untraced run.
const HEADLINE: [&str; 10] = [
    "sim_mcycles_per_s",
    "sim_minst_per_s",
    "full_schedules_per_s",
    "sim_schedules_per_s",
    "des_mevents_per_s",
    "hold_mevents_per_s",
    "runs_per_s",
    "run_p50_ms",
    "run_p90_ms",
    "run_samples",
];

/// Per-pass state handed to a workload: the tracer, the call latencies
/// and the output checks.
pub struct Ctx {
    pub tr: Tracer,
    pub traced: bool,
    /// Seconds of traced-only probes in this pass, left out of the
    /// traced pass time so the overhead ratio compares equal work.
    pub probe_s: f64,
    /// Latency (ms) of every call in this pass and its share of the
    /// pass's wall time (see [`Ctx::fork`]).
    calls: Vec<(f32, f32)>,
    share: f32,
    /// Host-speed reference samples (s) and when the latest was taken;
    /// client threads take none, since they would compete with the
    /// server for the vCPUs.
    sampler: bool,
    refs: Vec<f64>,
    last_ref: Option<Instant>,
    attempted: u64,
    failed: u64,
    failed_call: Option<u64>,
    failures: Vec<String>,
}

impl Ctx {
    fn new(trace: bool) -> Self {
        Self {
            tr: Tracer::new(trace),
            traced: false,
            probe_s: 0.0,
            calls: Vec::new(),
            share: 1.0,
            sampler: true,
            refs: Vec::new(),
            last_ref: None,
            attempted: 0,
            failed: 0,
            failed_call: None,
            failures: Vec::new(),
        }
    }

    /// A context for a client thread; merge it back with [`Ctx::join`].
    /// With `n` clients calling at once, each call's latency counts
    /// `share` = 1/n toward the pass's wall time.
    pub fn fork(&self, share: f32) -> Self {
        Self {
            tr: self.tr.fork(),
            traced: self.traced,
            share,
            sampler: false,
            ..Self::new(false)
        }
    }

    pub fn join(&mut self, other: Ctx) {
        self.tr.absorb(other.tr);
        self.calls.extend(other.calls);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Times one layer call inside a span; its fastest latency over the
    /// run counts toward `wall_s`. Returns the result and host seconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        point: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if self.sampler
            && self
                .last_ref
                .is_none_or(|t| t.elapsed() >= reference::EVERY)
        {
            self.refs.push(reference::sample());
            self.last_ref = Some(Instant::now());
        }
        self.attempted += 1;
        let t = Instant::now();
        let out = self.tr.span(name, point, f);
        let secs = t.elapsed().as_secs_f64();
        self.calls.push(((secs * 1e3) as f32, self.share));
        (out, secs)
    }

    /// Records a failed output check of the latest call.
    pub fn fail(&mut self, what: String) {
        if self.failed_call != Some(self.attempted) {
            self.failed_call = Some(self.attempted);
            self.failed += 1;
        }
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

/// What the harness knows after the passes, for a workload's report.
pub struct View {
    /// Spans of the traced set-ups, per name.
    pub setup: BTreeMap<&'static str, Agg>,
    /// Spans of the traced passes, per name.
    pub traced: BTreeMap<&'static str, Agg>,
    pub setup_reps: usize,
    pub traced_passes: usize,
}

impl View {
    pub fn setup_span(&self, name: &str) -> Agg {
        self.setup.get(name).copied().unwrap_or_default()
    }

    pub fn span(&self, name: &str) -> Agg {
        self.traced.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per traced pass of the spans named `name`.
    pub fn self_per_pass(&self, name: &str) -> f64 {
        self.span(name).self_s / self.traced_passes.max(1) as f64
    }
}

/// Metric values by name; see [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

pub trait Workload: Sized {
    /// Builds the seed's inputs (and any service the calls need).
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// One pass over the call matrix, in a fixed order. Returns the
    /// digest of the pass's simulated statistics.
    fn pass(&mut self, cx: &mut Ctx) -> Fnv;
    /// Headline rates (from untraced passes) and per-layer metrics.
    fn report(&self, view: &View, out: &mut Metrics);
    /// Lines printed with the result (model accuracy and the like).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
    /// Stops whatever `setup` started.
    fn finish(self) {}
}

/// Two workloads as one: a pass makes `A`'s calls, then `B`'s.
pub struct Both<A, B>(A, B);

impl<A: Workload, B: Workload> Workload for Both<A, B> {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        Ok(Self(A::setup(seed, tr)?, B::setup(seed, tr)?))
    }

    fn pass(&mut self, cx: &mut Ctx) -> Fnv {
        let mut d = Fnv::default();
        d.u64(self.0.pass(cx).0);
        d.u64(self.1.pass(cx).0);
        d
    }

    fn report(&self, view: &View, out: &mut Metrics) {
        self.0.report(view, out);
        self.1.report(view, out);
    }

    fn notes(&self) -> Vec<String> {
        let mut v = self.0.notes();
        v.extend(self.1.notes());
        v
    }

    fn finish(self) {
        self.0.finish();
        self.1.finish();
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Pin the scenario layer's sweep pool (used by runs the control
    // plane executes) to one thread, whatever the environment says.
    std::env::set_var("XUI_BENCH_THREADS", "1");
    let ok = match args.workload.as_str() {
        "sim_strategies" => {
            run::<Both<sim_strategies::SimStrategies, oracle_fuzz::OracleFuzz>>(&args)
        }
        _ => run::<Both<des_scale::DesScale, control_plane::ControlPlane>>(&args),
    };
    std::process::exit(i32::from(!ok));
}

/// Runs one workload end to end and prints its result. Returns whether
/// every output check passed.
fn run<W: Workload>(args: &Args) -> bool {
    let mut cx = Ctx::new(args.trace);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = workload.take() {
            W::finish(old);
        }
        let t = Instant::now();
        match W::setup(args.seed, &mut cx.tr) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");

    let min_passes = if args.trace { 4 } else { 3 };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    // Fastest latency (ms) of each call over the untraced passes: the
    // host's speed moves between phases of seconds to minutes, and a
    // call's fastest time is the one no slow phase held (README, noise).
    let mut fastest: Vec<(f32, f32)> = Vec::new();
    let mut first_digest = None;
    let mut peak_rss = 0.0;
    let mut pass = 0u32;
    // A pass starts only if one as long as the latest still fits in the
    // budget, so a run ends close to `--seconds`.
    let mut last = Duration::ZERO;
    while (pass as usize) < min_passes || start.elapsed() + last < budget {
        pass += 1;
        let pass_start = Instant::now();
        let traced = args.trace && pass.is_multiple_of(2);
        cx.traced = traced;
        cx.tr.set_on(traced);
        cx.tr.set_pass(pass);
        cx.probe_s = 0.0;
        let t = Instant::now();
        let digest = w.pass(&mut cx);
        let secs = t.elapsed().as_secs_f64();
        if traced {
            traced_s.push(secs - cx.probe_s);
            cx.calls.clear();
        } else {
            untraced_s.push(secs);
            if fastest.is_empty() {
                fastest = std::mem::take(&mut cx.calls);
            } else if fastest.len() == cx.calls.len() {
                for (f, &(ms, _)) in fastest.iter_mut().zip(&cx.calls) {
                    f.0 = f.0.min(ms);
                }
            } else {
                cx.fail(format!(
                    "pass {pass} made {} calls, pass 1 made {}",
                    cx.calls.len(),
                    fastest.len()
                ));
            }
            cx.calls.clear();
        }
        match first_digest {
            None => first_digest = Some(digest.0),
            Some(d) if d != digest.0 => {
                cx.fail(format!(
                    "pass {pass} digest {:#018x} differs from pass 1's {d:#018x}",
                    digest.0
                ));
            }
            Some(_) => {}
        }
        // After a fixed number of passes: the server of the control
        // plane keeps every run it served, so its peak would otherwise
        // grow with the number of passes a fast host fits in the run.
        if pass as usize == min_passes {
            peak_rss = peak_rss_mb();
        }
        last = pass_start.elapsed();
    }
    cx.tr.set_on(false);
    let digest = first_digest.expect("at least one pass");
    if args.seed == DEFAULT_SEED {
        match stored_digest(&args.workload) {
            Some(want) if want == digest => {}
            Some(want) => cx.fail(format!(
                "digest {digest:#018x} != stored {want:#018x} for seed {DEFAULT_SEED}"
            )),
            None => cx.fail(format!("no stored digest for {}", args.workload)),
        }
    }

    let view = View {
        setup: cx.tr.summary(|p| p == 0),
        traced: cx.tr.summary(|p| p > 0),
        setup_reps: SETUP_REPS,
        traced_passes: traced_s.len(),
    };
    let mut layer = Metrics::new();
    w.report(&view, &mut layer);
    let notes = w.notes();
    W::finish(w);

    let ref_s = percentile(&cx.refs, reference::PERCENTILE);
    let attempted = cx.attempted.max(1);
    let failed = cx.failed.min(attempted);
    layer.insert("failed_frac", failed as f64 / attempted as f64);
    if args.trace {
        layer.insert(
            "trace.overhead_ratio",
            ratio(median(&traced_s), median(&untraced_s)),
        );
        layer.insert("host.pass_median_s", median(&untraced_s));
        layer.insert("host.ref_us", ref_s * 1e6);
    }
    let mut e2e = Metrics::new();
    // Every end-to-end time is scaled by the host-speed reference.
    let scale = reference::NOMINAL_S / ref_s;
    e2e.insert("setup_s", median(&setup_s) * scale);
    let fastest_s = fastest
        .iter()
        .map(|&(ms, share)| f64::from(ms) * f64::from(share))
        .sum::<f64>()
        / 1e3;
    e2e.insert("wall_s", fastest_s * scale);
    e2e.insert("peak_rss_mb", peak_rss);

    for name in layer.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "metric {name} is not declared in PER_LAYER"
        );
    }

    let host = host_line(args);
    println!("host: {host}");
    println!(
        "run: {} passes ({} traced) in {:.1} s, {} calls, {} failed, digest {digest:#018x}",
        pass,
        traced_s.len(),
        start.elapsed().as_secs_f64(),
        cx.attempted,
        cx.failed
    );
    println!(
        "fastest calls sum to {fastest_s:.4} host s; reference p{} {:.1} us ({} samples, nominal {:.1} us)",
        reference::PERCENTILE,
        ref_s * 1e6,
        cx.refs.len(),
        reference::NOMINAL_S * 1e6
    );
    println!(
        "passes (s): {}",
        untraced_s
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for f in &cx.failures {
        println!("FAILED: {f}");
    }
    for n in &notes {
        println!("{n}");
    }
    let shown: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, layer.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let mut v: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect();
        for (n, u) in PER_LAYER.iter().filter(|(n, _)| HEADLINE.contains(n)) {
            if let Some(&x) = layer.get(n) {
                v.push((n, u, x));
            }
        }
        v.push(("failed_frac", "ratio", layer["failed_frac"]));
        v
    };
    for (n, u, x) in &shown {
        println!("metric {n} = {x} {u}");
    }

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, &(n, u)) in declared.iter().enumerate() {
        let x = if args.trace {
            layer.get(n).copied().unwrap_or(0.0)
        } else {
            e2e[n]
        };
        let x = if x.is_finite() { x } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{n}\": {{\"value\": {x}, \"unit\": \"{u}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    json.push_str("}}");
    save_record(args, &host, &json, &cx.tr);
    println!("{json}");
    failed == 0
}

fn stored_digest(workload: &str) -> Option<u64> {
    STORED_DIGESTS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next()? == workload).then_some(())?;
        u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Online CPUs, from `/sys/devices/system/cpu/online` (e.g. `0-1,4`).
fn online_cpus() -> usize {
    let Ok(s) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    s.trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn host_line(args: &Args) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"available_parallelism\": {parallelism}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"sweep_threads\": 1, \"client_threads\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        online_cpus(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        control_plane::CLIENTS,
    )
}

/// Writes the run record (and, traced, the spans) under [`OUT_DIR`].
/// A failure to write is reported but does not fail the run.
fn save_record(args: &Args, host: &str, result: &str, tr: &Tracer) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!("{{\"host\": {host}, \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| {
            if args.trace {
                std::fs::write(format!("{stem}.spans.jsonl"), tr.to_jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.*: {e}");
    }
}
