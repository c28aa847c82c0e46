//! # xui-bench
//!
//! The benchmark harness of the xUI reproduction: one binary per paper
//! table/figure (see `src/bin/`), plus Criterion micro-benchmarks of the
//! hot paths (`benches/hotpaths.rs`). This library crate holds shared
//! reporting helpers: aligned-table printing and JSON result persistence
//! under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod sweep;
pub mod timeline;

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use serde::Serialize;

pub use cli::{CliError, CliSpec, Parsed};
pub use sweep::{Sweep, SweepCtx};
pub use timeline::{reconstruct_fig2, Fig2Reconstruction};

/// Options shared by every sweep-driven experiment: parsed once from the
/// command line (see [`CliSpec::bench`]) or filled in programmatically by
/// the scenario runner — never sniffed from `std::env::args` mid-run.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Time the sweep serial vs parallel and record
    /// `results/BENCH_sweep.json`.
    pub bench_meta: bool,
    /// Explicit worker-thread override (else `XUI_BENCH_THREADS`/host).
    pub threads: Option<usize>,
    /// Where to write a Chrome trace JSON, for experiments that support it.
    pub trace: Option<PathBuf>,
    /// Save a merged metrics snapshot under `results/`.
    pub metrics: bool,
}

impl BenchOpts {
    /// Builds options from the shared flags of a [`CliSpec::bench`] parse.
    pub fn from_parsed(p: &Parsed) -> Result<Self, CliError> {
        Ok(Self {
            bench_meta: p.flag("--bench-meta"),
            threads: p.opt_usize("--threads")?,
            trace: p.opt("--trace").map(PathBuf::from),
            metrics: p.flag("--metrics"),
        })
    }
}

/// A simple aligned table printer for experiment output.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < cols {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let joined: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            println!("  {}", joined.join("  "));
        };
        line(&self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n=== {id}: {title}");
    println!("    paper reference: {paper_ref}\n");
}

/// Renders a result exactly as [`save_json`] would write it (pretty JSON).
/// The scenario golden tests compare these bytes without touching
/// `results/`.
#[must_use]
pub fn render_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_default()
}

/// Saves a serializable result as `results/<id>.json`, and prints a
/// `[saved …]` note once the bytes are on disk.
///
/// # Errors
///
/// Fails if `results/` cannot be created, the value does not render as
/// JSON, or the file cannot be written; the error names the path.
pub fn save_json<T: Serialize>(id: &str, value: &T) -> io::Result<()> {
    let dir = PathBuf::from("results");
    let path = dir.join(format!("{id}.json"));
    let at = |e: io::Error| {
        io::Error::new(e.kind(), format!("cannot save {}: {e}", path.display()))
    };
    fs::create_dir_all(&dir).map_err(at)?;
    let json = render_json(value);
    if json.is_empty() {
        let e = io::Error::new(io::ErrorKind::InvalidData, "result does not render as JSON");
        return Err(at(e));
    }
    fs::write(&path, json).map_err(at)?;
    println!("\n    [saved {}]", path.display());
    Ok(())
}

/// Wall-clock record written to `results/BENCH_sweep.json` when a figure
/// binary runs with `--bench-meta`: the same sweep executed serially
/// (1 worker) and with the parallel pool, plus a byte-identity check of
/// the two result sets.
#[derive(Debug, Clone, Serialize)]
pub struct BenchMeta {
    /// Binary/experiment id (first `run_sweep` call in the process).
    pub bin: String,
    /// Total sweep points across all `run_sweep` calls so far.
    pub points: usize,
    /// Parallel worker count used.
    pub threads: usize,
    /// Host's available parallelism (what `XUI_BENCH_THREADS` defaults to).
    pub host_parallelism: usize,
    /// Cumulative serial wall-clock, milliseconds.
    pub serial_ms: f64,
    /// Cumulative parallel wall-clock, milliseconds.
    pub parallel_ms: f64,
    /// serial_ms / parallel_ms.
    pub speedup: f64,
    /// Whether serial and parallel results serialized byte-identically.
    pub identical: bool,
    /// Wall-clock of a representative point run with `NullRecorder`
    /// telemetry, milliseconds (set by figure presets that measure
    /// telemetry overhead).
    pub telemetry_null_ms: Option<f64>,
    /// Same point run with an active `RingRecorder`, milliseconds.
    pub telemetry_ring_ms: Option<f64>,
    /// Wall-clock ratio of the ring run to the null run
    /// (`ring_ms / null_ms`): 1.0 means free, 7.0 means the traced run
    /// costs 7× the untraced one. This replaces the earlier
    /// `telemetry_overhead_pct` field, which printed the same
    /// measurement as a percentage and was routinely misread as a
    /// per-event overhead (a 7× ratio showed up as "604%").
    pub telemetry_ring_vs_null_ratio: Option<f64>,
}

/// Accumulates `--bench-meta` timings across every `run_sweep` call in the
/// process, so binaries with several sweeps report whole-binary totals.
static BENCH_META: Mutex<Option<BenchMeta>> = Mutex::new(None);

/// First failure to write `results/BENCH_sweep.json` inside [`run_sweep`],
/// held until [`take_bench_meta_error`] hands it to the caller.
static BENCH_META_ERROR: Mutex<Option<String>> = Mutex::new(None);

/// Takes the first `--bench-meta` write failure recorded by [`run_sweep`]
/// since the last call, so the run that asked for the record can fail
/// instead of passing without it.
pub fn take_bench_meta_error() -> Option<String> {
    BENCH_META_ERROR.lock().expect("bench meta error lock").take()
}

/// Runs a figure preset's sweep under explicit [`BenchOpts`].
///
/// Normally this is just [`Sweep::run`]: evaluate every point on the
/// worker pool, return results in point order. With `bench_meta` set, the
/// sweep is executed twice — once with 1 worker, once with the parallel
/// pool — the two result sets are checked for byte-identical
/// serialization, and cumulative wall-clock numbers are written to
/// `results/BENCH_sweep.json`. A failed write does not stop the sweep;
/// it is kept for [`take_bench_meta_error`].
pub fn run_sweep<P, R, F>(bin: &str, s: Sweep<P>, opts: &BenchOpts, f: F) -> Vec<R>
where
    P: Sync,
    R: Send + Serialize,
    F: Fn(&P, SweepCtx) -> R + Sync,
{
    let s = match opts.threads {
        Some(n) => s.threads(n),
        None => s,
    };
    if !opts.bench_meta {
        return s.run(f);
    }

    let (serial, serial_stats) = s.run_with(1, &f);
    let threads = sweep::worker_threads(opts.threads);
    let (parallel, parallel_stats) = s.run_with(threads, &f);
    let identical = serde_json::to_string(&serial).ok() == serde_json::to_string(&parallel).ok();

    let mut guard = BENCH_META.lock().expect("bench meta lock");
    let meta = guard.get_or_insert_with(|| BenchMeta {
        bin: bin.to_string(),
        points: 0,
        threads,
        host_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        serial_ms: 0.0,
        parallel_ms: 0.0,
        speedup: 1.0,
        identical: true,
        telemetry_null_ms: None,
        telemetry_ring_ms: None,
        telemetry_ring_vs_null_ratio: None,
    });
    meta.points += serial_stats.points;
    meta.serial_ms += serial_stats.elapsed.as_secs_f64() * 1e3;
    meta.parallel_ms += parallel_stats.elapsed.as_secs_f64() * 1e3;
    meta.speedup = if meta.parallel_ms > 0.0 {
        meta.serial_ms / meta.parallel_ms
    } else {
        1.0
    };
    meta.identical &= identical;
    if let Err(e) = merge_bench_sweep(meta.to_value()) {
        BENCH_META_ERROR.lock().expect("bench meta error lock").get_or_insert(e.to_string());
    }

    parallel
}

/// Records the telemetry-overhead measurement (one representative point
/// run with `NullRecorder` vs `RingRecorder`) into the cumulative
/// `--bench-meta` record and re-saves `results/BENCH_sweep.json`. No-op
/// (but still computed by the caller) when `--bench-meta` is off and no
/// record exists yet — in that case a fresh record is created so the
/// numbers are not lost.
///
/// # Errors
///
/// Fails if `results/BENCH_sweep.json` cannot be written.
pub fn record_telemetry_overhead(bin: &str, null_ms: f64, ring_ms: f64) -> io::Result<()> {
    let mut guard = BENCH_META.lock().expect("bench meta lock");
    let meta = guard.get_or_insert_with(|| BenchMeta {
        bin: bin.to_string(),
        points: 0,
        threads: sweep::worker_threads(None),
        host_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        serial_ms: 0.0,
        parallel_ms: 0.0,
        speedup: 1.0,
        identical: true,
        telemetry_null_ms: None,
        telemetry_ring_ms: None,
        telemetry_ring_vs_null_ratio: None,
    });
    meta.telemetry_null_ms = Some(null_ms);
    meta.telemetry_ring_ms = Some(ring_ms);
    meta.telemetry_ring_vs_null_ratio =
        if null_ms > 0.0 { Some(ring_ms / null_ms) } else { None };
    merge_bench_sweep(meta.to_value())
}

/// One point of the DES capacity benchmark (`des_capacity`): a given
/// queue implementation loaded with `pending` events and drained under
/// a hold-model workload.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityRow {
    /// Queue implementation (`heap` or `tiered`).
    pub queue: String,
    /// Pending events pre-loaded before the drain.
    pub pending: u64,
    /// Events executed during the timed drain.
    pub executed: u64,
    /// Wall-clock of the pre-load phase, milliseconds.
    pub load_ms: f64,
    /// Wall-clock of the timed drain, milliseconds.
    pub run_ms: f64,
    /// Drain throughput in events per second.
    pub events_per_sec: f64,
    /// Queue tier the engine finished in (`heap` or `calendar`).
    pub final_tier: String,
    /// This row's `events_per_sec` over the heap baseline's at the same
    /// pending count (1.0 for the baseline itself).
    pub speedup_vs_heap: f64,
}

/// Records the DES capacity rows into `results/BENCH_sweep.json`,
/// preserving whatever `--bench-meta` record another binary already
/// wrote there (and vice versa — the sweep-meta writers keep these
/// rows).
///
/// # Errors
///
/// Fails if `results/BENCH_sweep.json` cannot be written.
pub fn record_des_capacity(rows: &[CapacityRow]) -> io::Result<()> {
    record_bench_section("des_capacity", &rows)
}

/// Merges `value` into `results/BENCH_sweep.json` under the top-level
/// `key`, preserving every other writer's section (sweep meta, the
/// telemetry timings, `des_capacity`, the serve load report, ...). This
/// is the one write path for that shared file — use it instead of
/// `save_json` whenever a binary contributes a section.
///
/// # Errors
///
/// Fails if `results/BENCH_sweep.json` cannot be written.
pub fn record_bench_section<T: Serialize>(key: &str, value: &T) -> io::Result<()> {
    merge_bench_sweep(serde::Value::Object(vec![(key.to_string(), value.to_value())]))
}

/// Merges `patch`'s top-level keys into `results/BENCH_sweep.json`.
/// The file is shared by several writers in different processes (sweep
/// meta from any `--bench-meta` run, telemetry timing from fig6, the
/// `des_capacity` rows), so a plain overwrite would drop the other
/// writers' sections.
fn merge_bench_sweep(patch: serde::Value) -> io::Result<()> {
    use serde::Value;
    let path = PathBuf::from("results").join("BENCH_sweep.json");
    let mut entries = match fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::value_from_str(&text).ok())
    {
        Some(Value::Object(entries)) => entries,
        _ => Vec::new(),
    };
    if let Value::Object(patch) = patch {
        for (key, val) in patch {
            match entries.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = val,
                None => entries.push((key, val)),
            }
        }
    }
    save_json("BENCH_sweep", &Value::Object(entries))
}

/// Writes a single-group Chrome trace to `path` (best effort, with a
/// console note like `save_json`).
pub fn save_trace(path: &std::path::Path, events: &[xui_telemetry::Event]) {
    if xui_telemetry::chrome::write_trace(path, events).is_ok() {
        println!("\n    [trace {} ({} events)]", path.display(), events.len());
    }
}

/// Writes a grouped Chrome trace to `path`: one `pid` per sweep point,
/// in point order, so the export is byte-identical for any worker count.
pub fn save_trace_points(path: &std::path::Path, points: &[Vec<xui_telemetry::Event>]) {
    let groups: Vec<xui_telemetry::TraceGroup> = points
        .iter()
        .enumerate()
        .map(|(i, events)| xui_telemetry::TraceGroup {
            pid: u32::try_from(i).unwrap_or(u32::MAX),
            label: format!("point-{i}"),
            events: events.clone(),
        })
        .collect();
    if xui_telemetry::chrome::write_trace_grouped(path, &groups).is_ok() {
        let n: usize = points.iter().map(Vec::len).sum();
        println!(
            "\n    [trace {} ({} events across {} points)]",
            path.display(),
            n,
            points.len()
        );
    }
}

/// Saves a merged metrics snapshot as `results/metrics_<id>.json`.
///
/// # Errors
///
/// As [`save_json`].
pub fn save_metrics(id: &str, snapshot: &xui_telemetry::MetricsSnapshot) -> io::Result<()> {
    save_json(&format!("metrics_{id}"), snapshot)
}

/// Formats a cycle count as microseconds at the paper's 2 GHz clock.
#[must_use]
pub fn us(cycles: u64) -> String {
    format!("{:.2}µs", cycles as f64 / 2_000.0)
}

/// Formats a ratio as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        t.print();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(2_000), "1.00µs");
        assert_eq!(pct(0.456), "45.6%");
    }
}

/// A minimal ASCII line/series chart for figure presets: one or more
/// named series over a shared numeric x-axis, rendered as rows of bars so
/// trends are visible directly in terminal output.
#[derive(Debug, Clone, Default)]
pub struct AsciiChart {
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl AsciiChart {
    /// Creates a chart with axis labels.
    #[must_use]
    pub fn new(x_label: impl Into<String>, y_label: impl Into<String>) -> Self {
        Self {
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a named series of (x, y) points.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push((name.into(), points));
    }

    /// Renders to stdout: grouped horizontal bars per x value.
    pub fn print(&self) {
        let max_y = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|&(_, y)| y))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let name_w = self
            .series
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        let width = 46usize;
        println!("  {} vs {} (bar = {:.4} max)", self.y_label, self.x_label, max_y);
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, pts)| pts.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        for x in xs {
            println!("  {} = {x}", self.x_label);
            for (name, pts) in &self.series {
                if let Some(&(_, y)) = pts.iter().find(|&&(px, _)| px == x) {
                    let bar = ((y / max_y) * width as f64).round() as usize;
                    println!(
                        "    {name:<name_w$} |{}{} {y:.3}",
                        "#".repeat(bar),
                        " ".repeat(width - bar.min(width)),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_prints_without_panic() {
        let mut c = AsciiChart::new("load", "free");
        c.series("polling", vec![(0.0, 0.0), (40.0, 0.0)]);
        c.series("xUI", vec![(0.0, 1.0), (40.0, 0.45)]);
        c.print();
    }

    #[test]
    fn empty_chart_is_safe() {
        AsciiChart::new("x", "y").print();
    }
}
