//! Terminal and file output of a scenario run: aligned tables, ASCII
//! charts and banners on stdout, and the JSON artifacts, metrics
//! snapshots and Chrome traces on disk.
//!
//! Every file goes through [`write_atomic`], so a run killed mid-write
//! never leaves a torn artifact or manifest behind for
//! `xui sweep --resume` to trust.

use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

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

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n=== {id}: {title}");
    println!("    paper reference: {paper_ref}\n");
}

/// Formats a ratio as a percentage.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Renders a result exactly as [`save_json`] would write it (pretty JSON).
/// The scenario golden tests compare these bytes without touching
/// `results/`.
#[must_use]
pub fn render_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_default()
}

/// Writes `bytes` to `path` so that no reader ever sees a torn file: the
/// bytes go to a temporary file in the target's directory, which is then
/// renamed over the target. Missing parent directories are created.
///
/// # Errors
///
/// Fails if a parent directory cannot be created or the file cannot be
/// written or renamed into place. The error keeps the OS error's kind,
/// its message starts with `path`, and no temporary file is left behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    /// Tells apart the temporary files of concurrent writers in one
    /// process.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent).map_err(named)?;
    }
    let Some(name) = path.file_name() else {
        return Err(named(io::Error::new(io::ErrorKind::InvalidInput, "not a file path")));
    };
    let mut tmp = OsString::from(".");
    tmp.push(name);
    tmp.push(format!(".{}.{}.tmp", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)));
    let tmp = path.with_file_name(tmp);
    let written = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written.map_err(named)
}

/// Saves a serializable result as `results/<id>.json`, and prints a
/// `[saved …]` note once the bytes are on disk.
///
/// # Errors
///
/// Fails if `results/` cannot be created, the value does not render as
/// JSON, or the file cannot be written; the error names the path.
pub fn save_json<T: Serialize>(id: &str, value: &T) -> io::Result<()> {
    let path = PathBuf::from("results").join(format!("{id}.json"));
    let json = render_json(value);
    let saved = if json.is_empty() {
        let e = format!("{}: result does not render as JSON", path.display());
        Err(io::Error::new(io::ErrorKind::InvalidData, e))
    } else {
        write_atomic(&path, json.as_bytes())
    };
    saved.map_err(|e| io::Error::new(e.kind(), format!("cannot save {e}")))?;
    println!("\n    [saved {}]", path.display());
    Ok(())
}

/// Saves a merged metrics snapshot as `results/metrics_<id>.json`.
///
/// # Errors
///
/// As [`save_json`].
pub fn save_metrics(id: &str, snapshot: &xui_telemetry::MetricsSnapshot) -> io::Result<()> {
    save_json(&format!("metrics_{id}"), snapshot)
}

/// Writes a single-group Chrome trace to `path`, with a console note like
/// [`save_json`].
///
/// # Errors
///
/// Fails if the trace cannot be written; the error names the path.
pub fn save_trace(path: &Path, events: &[xui_telemetry::Event]) -> io::Result<()> {
    write_trace(path, &xui_telemetry::trace_json(events))?;
    println!("\n    [trace {} ({} events)]", path.display(), events.len());
    Ok(())
}

/// Writes a grouped Chrome trace to `path`: one `pid` per sweep point,
/// in point order, so the export is byte-identical for any worker count.
///
/// # Errors
///
/// As [`save_trace`].
pub fn save_trace_points(path: &Path, points: &[Vec<xui_telemetry::Event>]) -> io::Result<()> {
    let groups: Vec<xui_telemetry::TraceGroup> = points
        .iter()
        .enumerate()
        .map(|(i, events)| xui_telemetry::TraceGroup {
            pid: u32::try_from(i).unwrap_or(u32::MAX),
            label: format!("point-{i}"),
            events: events.clone(),
        })
        .collect();
    write_trace(path, &xui_telemetry::trace_json_grouped(&groups))?;
    let n: usize = points.iter().map(Vec::len).sum();
    println!(
        "\n    [trace {} ({} events across {} points)]",
        path.display(),
        n,
        points.len()
    );
    Ok(())
}

fn write_trace(path: &Path, doc: &str) -> io::Result<()> {
    write_atomic(path, doc.as_bytes())
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write trace {e}")))
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
        assert_eq!(pct(0.456), "45.6%");
    }

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

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("xui-report-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("read dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn atomic_write_replaces_the_target_and_leaves_no_temp_file() {
        let dir = scratch_dir("ok");
        let path = dir.join("nested").join("artifact.json");
        let value = vec![(1u64, "one".to_string()), (2, "two".to_string())];
        write_atomic(&path, b"stale bytes that are longer than the new ones").expect("first");
        write_atomic(&path, render_json(&value).as_bytes()).expect("second");
        assert_eq!(fs::read_to_string(&path).expect("read back"), render_json(&value));
        assert_eq!(entries(&dir.join("nested")), ["artifact.json"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_over_a_directory_names_the_path_and_cleans_up() {
        let dir = scratch_dir("dir");
        let path = dir.join("artifact.json");
        fs::create_dir(&path).expect("mkdir target");
        let err = write_atomic(&path, b"{}").expect_err("a directory cannot be replaced");
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");
        assert_eq!(entries(&dir), ["artifact.json"], "no temp file is left");
        assert!(path.is_dir(), "the directory is untouched");
        fs::remove_dir_all(&dir).ok();
    }
}
