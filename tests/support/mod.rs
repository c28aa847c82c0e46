//! The golden check, shared by the test binaries that hold presets to
//! their goldens.
//!
//! [`check`] runs each [`Job`] through the `xui` binary at each of
//! [`THREADS`], each run in a temp directory of its own, and collects
//! one row per mismatch:
//!
//! - every `results/<id>.json` a run writes is byte-equal to
//!   `tests/goldens/<id>.json` (and, for a preset run, to the committed
//!   `results/<id>.json`);
//! - stdout is the same at every thread count;
//! - the exit code is 1 for [`MUST_FAIL`] and 0 for every other preset;
//! - no two presets write the same artifact id.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

use xui_scenario::Sweep;

/// Thread counts every run repeats at; no output may depend on them.
pub const THREADS: [usize; 2] = [1, 4];

/// The preset with a deliberately impossible deadline: it must exit 1.
pub const MUST_FAIL: &str = "wc_bound_violation";

/// The file a scenario-file run writes with `xui show` and then runs.
pub const SCENARIO_FILE: &str = "scenario.json";

/// The report key of rows that belong to no single job.
pub const SHARED: &str = "(shared)";

pub fn xui() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xui"))
}

/// One `xui run`, repeated at each of [`THREADS`].
pub struct Job {
    /// The name the job's rows are reported under.
    pub key: String,
    /// The preset whose artifacts the run writes.
    pub preset: String,
    /// `xui run` arguments before `--threads`; a first argument of
    /// [`SCENARIO_FILE`] runs `xui show <preset>`'s output.
    pub args: Vec<String>,
    /// Appended to an artifact id to name its golden.
    pub golden_suffix: &'static str,
    /// Whether the artifacts must also equal the committed `results/`.
    pub committed: bool,
}

impl Job {
    pub fn preset(name: String) -> Self {
        Self {
            key: name.clone(),
            args: vec![name.clone()],
            preset: name,
            golden_suffix: "",
            committed: true,
        }
    }
}

/// What one run left behind.
struct Outcome {
    code: Option<i32>,
    stdout: Vec<u8>,
    stderr: String,
    /// The bytes of each `results/<id>.json`, by id.
    artifacts: BTreeMap<String, Vec<u8>>,
}

/// Runs `job` at `threads` inside `dir`, then removes `dir`.
fn run(job: &Job, threads: usize, dir: &Path) -> Outcome {
    std::fs::create_dir_all(dir).expect("create the run directory");
    if job.args[0] == SCENARIO_FILE {
        let show = xui().args(["show", &job.preset]).output().expect("xui show runs");
        std::fs::write(dir.join(SCENARIO_FILE), show.stdout).expect("write the scenario file");
    }
    let out = xui()
        .arg("run")
        .args(&job.args)
        .args(["--threads", &threads.to_string()])
        .current_dir(dir)
        .output()
        .expect("xui run runs");
    let mut artifacts = BTreeMap::new();
    for entry in std::fs::read_dir(dir.join("results")).into_iter().flatten() {
        let path = entry.expect("results entry").path();
        if let Some(id) = path.file_name().and_then(|n| n.to_str()?.strip_suffix(".json")) {
            artifacts.insert(id.to_string(), std::fs::read(&path).expect("read an artifact"));
        }
    }
    std::fs::remove_dir_all(dir).ok();
    Outcome {
        code: out.status.code(),
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        artifacts,
    }
}

/// Adds a row to `rows` unless `bytes` equals the repository file `rel`.
fn compare(rows: &mut Vec<String>, at: &str, bytes: &[u8], rel: &str) {
    match std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)) {
        Ok(want) if want == bytes => {}
        Ok(want) => {
            let byte = bytes.iter().zip(&want).take_while(|(a, b)| a == b).count();
            rows.push(format!("{at} differs from {rel} at byte {byte}"));
        }
        Err(e) => rows.push(format!("{at}: cannot read {rel}: {e}")),
    }
}

/// The mismatches of one [`check`], by job key.
pub struct Report {
    /// Rows by [`Job::key`], plus [`SHARED`] rows; every job has an
    /// entry, empty when it matched.
    pub rows: BTreeMap<String, Vec<String>>,
    /// The golden stems some run wrote.
    pub written: BTreeSet<String>,
}

impl Report {
    /// Fails with one line per mismatch: of the job `key`, or of every
    /// job and the shared rows when `key` is `None`.
    pub fn assert_clean(&self, key: Option<&str>) {
        let rows: Vec<&str> = match key {
            Some(key) => {
                let rows = self.rows.get(key).unwrap_or_else(|| panic!("no job `{key}`"));
                rows.iter().map(String::as_str).collect()
            }
            None => self.rows.values().flatten().map(String::as_str).collect(),
        };
        assert!(rows.is_empty(), "{} golden check failures:\n  {}", rows.len(), rows.join("\n  "));
    }
}

/// Runs every job at each of [`THREADS`], fanned out over the sweep
/// executor, and collects every mismatch.
pub fn check(jobs: &[Job]) -> Report {
    let points: Vec<(usize, usize)> =
        (0..jobs.len()).flat_map(|j| THREADS.map(|t| (j, t))).collect();
    let tmp = std::env::temp_dir().join(format!("xui-goldens-{}", std::process::id()));
    let outcomes = Sweep::new(points)
        .run(|&(j, threads), ctx| run(&jobs[j], threads, &tmp.join(ctx.index.to_string())));
    std::fs::remove_dir_all(&tmp).ok();

    let mut report = Report { rows: BTreeMap::new(), written: BTreeSet::new() };
    let mut writers: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (job, runs) in jobs.iter().zip(outcomes.chunks(THREADS.len())) {
        let rows = report.rows.entry(job.key.clone()).or_default();
        let label = format!("xui run {}", job.args.join(" "));
        let want = i32::from(job.preset == MUST_FAIL);
        for (threads, out) in THREADS.iter().zip(runs) {
            let at = format!("{label} --threads {threads}");
            if out.code != Some(want) {
                let last = out.stderr.lines().last().unwrap_or("");
                rows.push(format!("{at}: exit {:?}, expected {want}: {last}", out.code));
            }
            if out.artifacts.is_empty() {
                rows.push(format!("{at}: wrote no artifact"));
            }
            for (id, bytes) in &out.artifacts {
                writers.entry(id).or_default().insert(&job.preset);
                let golden = format!("{id}{}", job.golden_suffix);
                let at = format!("{at}: results/{id}.json");
                compare(rows, &at, bytes, &format!("tests/goldens/{golden}.json"));
                if job.committed {
                    compare(rows, &at, bytes, &format!("results/{id}.json"));
                }
                report.written.insert(golden);
            }
        }
        if runs.windows(2).any(|w| w[0].stdout != w[1].stdout) {
            rows.push(format!("{label}: stdout differs across --threads {THREADS:?}"));
        }
    }
    let shared = report.rows.entry(SHARED.into()).or_default();
    for (id, presets) in &writers {
        if presets.len() > 1 {
            let n = presets.len();
            shared.push(format!("results/{id}.json: written by {n} presets {presets:?}"));
        }
    }
    report
}
