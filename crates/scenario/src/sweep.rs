//! Grid sweeps over scenario templates: the experiment farm.
//!
//! A [`SweepSpec`] wraps a scenario template (a registry preset name or
//! an inline [`Scenario`]) plus a parameter grid. Each grid axis is a
//! JSON-pointer-like path into the scenario — `"ticks"` resolves inside
//! the experiment variant's body, `"/base_seed"` from the scenario
//! root — and takes either an inclusive numeric range
//! (`{"from":100,"to":900,"step":100}`) or an explicit value list
//! (`["UipiSwTimer","XuiKbTimer"]`). [`SweepSpec::expand`] takes the
//! cartesian product in spec order (first axis slowest) and yields one
//! named point per combination: `<base>@k=v,k2=v2`, with the scenario's
//! `name` rewritten to the point name so every artifact downstream is
//! namespaced by point.
//!
//! Because a scenario run is a pure `(spec, seed) → artifacts` function
//! with byte-stable artifacts, a sweep parallelizes and *shards*
//! trivially: [`point_shard`] hashes the point name (FNV-1a) so
//! `hash(name) % shard_count` partitions every expansion into disjoint
//! shards, each shard runs on its own process or machine, and
//! [`merge_manifests`] reassembles the per-shard manifests into the
//! byte-identical manifest an unsharded run would have written — merge
//! is order-independent and verifies the shards form an exact disjoint
//! cover of the expansion.
//!
//! Execution fans the points of one process across the deterministic
//! [`Sweep`] executor ([`run_points`]);
//! the `xui sweep` subcommand and the `POST /api/sweeps` route in
//! `xui-serve` are both thin layers over this module.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::executor::Sweep;
use crate::queue::panic_message;
use crate::registry;
use crate::report::render_json;
use crate::runner::{self, RunOptions};
use crate::spec::Scenario;

/// Upper bound on the points one sweep may expand to: grids are typed
/// by hand and a fat-fingered range must fail loudly, not melt the box.
pub const MAX_POINTS: usize = 4096;

/// The scenario template a sweep expands over.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioRef {
    /// A registry preset, resolved at expansion time.
    Preset(String),
    /// An inline scenario spec.
    Inline(Box<Scenario>),
}

impl Serialize for ScenarioRef {
    fn to_value(&self) -> Value {
        match self {
            Self::Preset(name) => Value::Str(name.clone()),
            Self::Inline(sc) => sc.to_value(),
        }
    }
}

impl Deserialize for ScenarioRef {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(name) => Ok(Self::Preset(name.clone())),
            Value::Object(_) => Scenario::from_value(v).map(|sc| Self::Inline(Box::new(sc))),
            other => Err(DeError::expected(
                "a preset name or an inline scenario object",
                other,
            )),
        }
    }
}

/// The values one grid axis takes.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Inclusive integer range (`{"from":100,"to":900,"step":100}`).
    IntRange {
        /// First value.
        from: i128,
        /// Inclusive upper bound.
        to: i128,
        /// Positive stride.
        step: i128,
    },
    /// Inclusive float range (any endpoint or step written as a float).
    FloatRange {
        /// First value.
        from: f64,
        /// Inclusive upper bound.
        to: f64,
        /// Positive stride.
        step: f64,
    },
    /// Explicit scalar values, used verbatim in spec order.
    List(Vec<Value>),
}

fn int_value(n: i128) -> Value {
    if n >= 0 {
        Value::UInt(n as u128)
    } else {
        Value::Int(n)
    }
}

impl AxisValues {
    /// The concrete values this axis sweeps, in deterministic order.
    ///
    /// # Errors
    ///
    /// Empty ranges/lists, non-positive steps, and non-scalar list
    /// entries are rejected.
    pub fn expand(&self) -> Result<Vec<Value>, String> {
        match self {
            Self::IntRange { from, to, step } => {
                if *step <= 0 {
                    return Err(format!("range step must be positive, got {step}"));
                }
                if from > to {
                    return Err(format!("empty range: from {from} > to {to}"));
                }
                let mut out = Vec::new();
                let mut v = *from;
                while v <= *to {
                    out.push(int_value(v));
                    if out.len() > MAX_POINTS {
                        return Err(format!("axis expands past {MAX_POINTS} values"));
                    }
                    v += *step;
                }
                Ok(out)
            }
            Self::FloatRange { from, to, step } => {
                if *step <= 0.0 || !step.is_finite() {
                    return Err(format!("range step must be positive, got {step}"));
                }
                if from > to {
                    return Err(format!("empty range: from {from} > to {to}"));
                }
                // Index-multiplied stride: no accumulation error, and
                // a tiny epsilon keeps `to` inclusive when `from + k*step`
                // lands a rounding hair above it.
                let tolerance = step * 1e-9;
                let mut out = Vec::new();
                for k in 0.. {
                    #[allow(clippy::cast_precision_loss)]
                    let v = from + (k as f64) * step;
                    if v > to + tolerance {
                        break;
                    }
                    out.push(Value::Float(v));
                    if out.len() > MAX_POINTS {
                        return Err(format!("axis expands past {MAX_POINTS} values"));
                    }
                }
                Ok(out)
            }
            Self::List(values) => {
                if values.is_empty() {
                    return Err("the value list is empty".to_string());
                }
                for v in values {
                    scalar_label(v)?;
                }
                Ok(values.clone())
            }
        }
    }
}

impl Serialize for AxisValues {
    fn to_value(&self) -> Value {
        match self {
            Self::IntRange { from, to, step } => Value::Object(vec![
                ("from".to_string(), int_value(*from)),
                ("to".to_string(), int_value(*to)),
                ("step".to_string(), int_value(*step)),
            ]),
            Self::FloatRange { from, to, step } => Value::Object(vec![
                ("from".to_string(), Value::Float(*from)),
                ("to".to_string(), Value::Float(*to)),
                ("step".to_string(), Value::Float(*step)),
            ]),
            Self::List(values) => Value::Array(values.clone()),
        }
    }
}

impl Deserialize for AxisValues {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => Ok(Self::List(items.clone())),
            Value::Object(entries) => {
                for (k, _) in entries {
                    if !matches!(k.as_str(), "from" | "to" | "step") {
                        return Err(DeError::new(format!(
                            "unknown range key `{k}` (want from/to/step)"
                        )));
                    }
                }
                let end = |name| match serde::field(v, "range axis", name)? {
                    Value::Null => Err(DeError::missing_field("range axis", name)),
                    end => Ok(end),
                };
                let (from, to) = (end("from")?, end("to")?);
                let step: Option<Value> = serde::field(v, "range axis", "step")?;
                let integral = |v: &Value| matches!(v, Value::UInt(_) | Value::Int(_));
                if integral(&from) && integral(&to) && step.as_ref().is_none_or(integral) {
                    Ok(Self::IntRange {
                        from: i128::from_value(&from)?,
                        to: i128::from_value(&to)?,
                        step: step.as_ref().map_or(Ok(1), i128::from_value)?,
                    })
                } else {
                    Ok(Self::FloatRange {
                        from: f64::from_value(&from)?,
                        to: f64::from_value(&to)?,
                        step: step.as_ref().map_or(Ok(1.0), f64::from_value)?,
                    })
                }
            }
            other => Err(DeError::expected(
                "a {from,to,step} range or a value list",
                other,
            )),
        }
    }
}

/// One grid axis: a path into the scenario plus the values it sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// JSON-pointer-like path. Without a leading `/` it resolves inside
    /// the experiment variant's body (`"ticks"`, `"loads_krps"`);
    /// with one, from the scenario root (`"/base_seed"`).
    pub path: String,
    /// The values swept.
    pub values: AxisValues,
}

impl Axis {
    /// The short key used in point names: the last path segment.
    #[must_use]
    pub fn label(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// A sweep: a named grid over a scenario template. Serializes as
/// `{"name": ..., "scenario": <preset|spec>, "grid": {<path>: <axis>}}`
/// with the grid's insertion order defining the expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name: the manifest stem and the default output directory.
    pub name: String,
    /// The template every point is derived from.
    pub scenario: ScenarioRef,
    /// The grid axes, first axis slowest in the expansion.
    pub grid: Vec<Axis>,
}

impl Serialize for SweepSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("scenario".to_string(), self.scenario.to_value()),
            (
                "grid".to_string(),
                Value::Object(
                    self.grid
                        .iter()
                        .map(|a| (a.path.clone(), a.values.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for SweepSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let name = serde::field(v, "sweep spec", "name")?;
        let scenario = serde::field(v, "sweep spec", "scenario")?;
        let axes = match serde::field(v, "sweep spec", "grid")? {
            Value::Object(axes) => axes,
            Value::Null => return Err(DeError::missing_field("sweep spec", "grid")),
            other => return Err(DeError::expected("a grid object of path -> values", &other)),
        };
        let grid = axes
            .into_iter()
            .map(|(path, values)| {
                let values = AxisValues::from_value(&values).map_err(|e| e.in_field("grid"))?;
                Ok(Axis { path, values })
            })
            .collect::<Result<_, DeError>>()?;
        Ok(Self { name, scenario, grid })
    }
}

/// One expanded grid point: the derived scenario plus its name.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// `<base>@k=v,k2=v2` — also the scenario's rewritten `name`, so
    /// every artifact and manifest row downstream carries it.
    pub name: String,
    /// The concrete scenario, already validated.
    pub scenario: Scenario,
}

/// Formats a scalar axis value for use in a point name (and therefore in
/// artifact paths); rejects values that would not make a safe, readable
/// name component.
fn scalar_label(v: &Value) -> Result<String, String> {
    let s = match v {
        Value::UInt(n) => n.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(f) if f.is_finite() => format!("{f}"),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => s.clone(),
        other => return Err(format!("axis values must be scalars, got {other:?}")),
    };
    let safe = !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if safe {
        Ok(s)
    } else {
        Err(format!("axis value `{s}` is not a safe name component"))
    }
}

/// Sets `path` inside the serialized scenario tree to `new`. A scalar
/// assigned over an array field becomes a singleton list, so a grid can
/// pin one load or one mechanism onto a `Vec`-shaped sweep axis.
fn set_path(root: &mut Value, path: &str, new: &Value) -> Result<(), String> {
    let segments: Vec<String> = if let Some(abs) = path.strip_prefix('/') {
        abs.split('/').map(str::to_string).collect()
    } else {
        // Relative paths resolve inside the experiment variant's body:
        // `ticks` means `/experiment/<Variant>/ticks`.
        let variant = match serde::field(root, "scenario", "experiment") {
            Ok(Value::Object(body)) => body.into_iter().next().map(|(k, _)| k),
            _ => None,
        }
        .ok_or_else(|| "the scenario has no experiment variant to resolve into".to_string())?;
        let mut segs = vec!["experiment".to_string(), variant];
        segs.extend(path.split('/').map(str::to_string));
        segs
    };
    if segments.iter().any(String::is_empty) {
        return Err(format!("path `{path}` has an empty segment"));
    }

    let mut cur = root;
    let last = segments.len() - 1;
    for (i, seg) in segments.iter().enumerate() {
        let slot = match cur {
            Value::Object(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == seg)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("path `{path}`: no field `{seg}`"))?,
            Value::Array(items) => {
                let idx: usize = seg
                    .parse()
                    .map_err(|_| format!("path `{path}`: `{seg}` is not an array index"))?;
                let len = items.len();
                items
                    .get_mut(idx)
                    .ok_or_else(|| format!("path `{path}`: index {idx} out of bounds ({len})"))?
            }
            _ => return Err(format!("path `{path}`: `{seg}` descends into a scalar")),
        };
        if i == last {
            *slot = match (&*slot, new) {
                (Value::Array(_), v) if !matches!(v, Value::Array(_)) => {
                    Value::Array(vec![v.clone()])
                }
                (_, v) => v.clone(),
            };
            return Ok(());
        }
        cur = slot;
    }
    unreachable!("the loop returns on the last segment")
}

impl SweepSpec {
    /// Parses a sweep spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a readable message on malformed JSON or a malformed grid.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::value_from_str(text)
            .map_err(|e| format!("invalid sweep JSON: {e}"))?;
        Self::from_value(&v).map_err(|e| format!("invalid sweep spec: {e}"))
    }

    /// Renders the spec as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Resolves the template to a concrete base scenario.
    ///
    /// # Errors
    ///
    /// Unknown preset names are rejected.
    pub fn base_scenario(&self) -> Result<Scenario, String> {
        match &self.scenario {
            ScenarioRef::Preset(name) => registry::find(name)
                .ok_or_else(|| format!("unknown scenario `{name}` (see `xui list`)")),
            ScenarioRef::Inline(sc) => Ok((**sc).clone()),
        }
    }

    /// Grid-shape checks that do not need the template: at least one
    /// axis, no duplicate paths, no duplicate labels.
    ///
    /// # Errors
    ///
    /// Returns a readable message naming the offending axis.
    pub fn validate(&self) -> Result<(), String> {
        let err = |msg: String| Err(format!("sweep `{}`: {msg}", self.name));
        if self.name.is_empty() {
            return Err("sweep: the name is empty".to_string());
        }
        if self.grid.is_empty() {
            return err("the grid has no axes".into());
        }
        let mut paths = BTreeSet::new();
        let mut labels = BTreeSet::new();
        for axis in &self.grid {
            if !paths.insert(axis.path.as_str()) {
                return err(format!("duplicate grid path `{}`", axis.path));
            }
            if !labels.insert(axis.label()) {
                return err(format!(
                    "axes `{}` and another share the point-name label `{}`",
                    axis.path,
                    axis.label()
                ));
            }
        }
        Ok(())
    }

    /// Expands the grid into named, validated points: the cartesian
    /// product in spec order, first axis slowest.
    ///
    /// # Errors
    ///
    /// Propagates grid/template errors and names the first point whose
    /// derived scenario fails to deserialize or validate.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, String> {
        self.validate().map_err(|e| e.to_string())?;
        let base = self.base_scenario().map_err(|e| format!("sweep `{}`: {e}", self.name))?;
        let base_value = base.to_value();
        let axes: Vec<(&Axis, Vec<Value>)> = self
            .grid
            .iter()
            .map(|a| {
                a.values
                    .expand()
                    .map(|vs| (a, vs))
                    .map_err(|e| format!("sweep `{}`, axis `{}`: {e}", self.name, a.path))
            })
            .collect::<Result<_, _>>()?;
        let total: usize = axes.iter().map(|(_, vs)| vs.len()).product();
        if total > MAX_POINTS {
            return Err(format!(
                "sweep `{}` expands to {total} points (limit {MAX_POINTS})",
                self.name
            ));
        }

        let mut points = Vec::with_capacity(total);
        let mut indices = vec![0usize; axes.len()];
        loop {
            let mut tree = base_value.clone();
            let mut parts = Vec::with_capacity(axes.len());
            for (&(axis, ref values), &i) in axes.iter().zip(&indices) {
                let value = &values[i];
                set_path(&mut tree, &axis.path, value)
                    .map_err(|e| format!("sweep `{}`: {e}", self.name))?;
                parts.push(format!("{}={}", axis.label(), scalar_label(value)?));
            }
            let point_name = format!("{}@{}", base.name, parts.join(","));
            set_path(&mut tree, "/name", &Value::Str(point_name.clone()))
                .map_err(|e| format!("sweep `{}`: {e}", self.name))?;
            let scenario = Scenario::from_value(&tree)
                .map_err(|e| format!("point `{point_name}`: invalid derived scenario: {e}"))?;
            scenario
                .validate()
                .map_err(|e| format!("point `{point_name}`: {e}"))?;
            points.push(SweepPoint { name: point_name, scenario });

            // Odometer increment, last axis fastest.
            let mut k = axes.len();
            loop {
                if k == 0 {
                    return Ok(points);
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < axes[k].1.len() {
                    break;
                }
                indices[k] = 0;
            }
        }
    }
}

/// FNV-1a over the point name: the stable hash that partitions points
/// across shards. Deliberately simple enough to reimplement in a shell
/// script or another language driving a multi-machine sweep.
#[must_use]
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard (in `0..count`) that owns the named point.
///
/// # Panics
///
/// Panics if `count == 0`.
#[must_use]
pub fn point_shard(point_name: &str, count: u32) -> u32 {
    assert!(count > 0, "shard count must be positive");
    u32::try_from(fnv1a64(point_name) % u64::from(count)).expect("mod fits")
}

/// One shard of a sharded sweep: `--shard I/N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u32,
    /// Total shard count.
    pub count: u32,
}

impl ShardSpec {
    /// Parses `I/N` (e.g. `0/2`).
    ///
    /// # Errors
    ///
    /// Rejects malformed input, `N == 0`, and `I >= N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || format!("invalid shard `{s}` (want I/N with 0 <= I < N, e.g. 0/2)");
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = i.parse().map_err(|_| err())?;
        let count: u32 = n.parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(Self { index, count })
    }

    /// The manifest file name this shard writes
    /// (`sweep_manifest.shard<I>of<N>.json`).
    #[must_use]
    pub fn manifest_name(self) -> String {
        format!("sweep_manifest.shard{}of{}.json", self.index, self.count)
    }
}

/// The manifest file name of an unsharded (or merged) sweep.
pub const MANIFEST_NAME: &str = "sweep_manifest.json";

/// One finished point, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct PointOutcome {
    /// Point name.
    pub name: String,
    /// The experiment's own pass criterion (false on runner errors too).
    pub passed: bool,
    /// Artifact ids in emission order (empty when the run errored).
    pub artifacts: Vec<String>,
    /// Runner error, when the point failed to execute.
    pub error: Option<String>,
}

impl PointOutcome {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("passed".to_string(), Value::Bool(self.passed)),
            (
                "artifacts".to_string(),
                Value::Array(self.artifacts.iter().cloned().map(Value::Str).collect()),
            ),
        ];
        if let Some(e) = &self.error {
            entries.push(("error".to_string(), Value::Str(e.clone())));
        }
        Value::Object(entries)
    }
}

/// Everything one sweep (or one shard of it) produced, in memory: the
/// CLI writes these files under `--out`, tests compare them byte for
/// byte without touching disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// Manifest file name (`sweep_manifest.json`, or the shard form).
    pub manifest_name: String,
    /// The manifest body (pretty JSON).
    pub manifest: String,
    /// `(relative path, bytes)` of every artifact, sorted by path:
    /// `<point>/<artifact-id>.json`.
    pub files: Vec<(String, String)>,
    /// Whether every executed point passed.
    pub passed: bool,
    /// The outcomes, sorted by point name.
    pub outcomes: Vec<PointOutcome>,
}

fn render_manifest(
    sweep: &str,
    base: &str,
    total_points: usize,
    shard: Option<ShardSpec>,
    outcomes: &[PointOutcome],
) -> String {
    let mut entries = vec![
        ("sweep".to_string(), Value::Str(sweep.to_string())),
        ("base".to_string(), Value::Str(base.to_string())),
        ("total_points".to_string(), Value::UInt(total_points as u128)),
    ];
    if let Some(s) = shard {
        entries.push((
            "shard".to_string(),
            Value::Str(format!("{}/{}", s.index, s.count)),
        ));
    }
    entries.push((
        "points".to_string(),
        Value::Array(outcomes.iter().map(PointOutcome::to_value).collect()),
    ));
    entries.push((
        "passed".to_string(),
        Value::Bool(outcomes.iter().all(|o| o.passed)),
    ));
    render_json(&Value::Object(entries))
}

/// Runs the sweep's points (all of them, or one shard) across `workers`
/// [`Sweep`] threads and returns the byte-stable outputs.
/// Artifacts are namespaced by point (`<point>/<artifact-id>.json`) and
/// the manifest lists points sorted by name, so shard outputs merge
/// order-independently into exactly the unsharded bytes.
///
/// # Errors
///
/// Propagates expansion errors; a point whose *run* fails or panics is
/// recorded in the manifest as `passed: false` with its error, not an
/// `Err`.
pub fn run_points(
    spec: &SweepSpec,
    shard: Option<ShardSpec>,
    workers: usize,
) -> Result<SweepRun, String> {
    run_points_resuming(spec, shard, workers, &[])
}

/// Like [`run_points`], but resumes an interrupted run: points named in
/// `done` are *not* re-executed — their prior [`PointOutcome`] is
/// spliced into the manifest verbatim and no artifacts are re-emitted
/// for them (the caller already has those bytes on disk). Because a
/// point run is a pure `(spec, seed) → artifacts` function, skipping a
/// completed point cannot change the manifest: a resumed run renders
/// byte-identical manifest output to an uninterrupted one.
///
/// Entries in `done` that are not in this process's share of the
/// expansion (stale names from an edited grid, or points of another
/// shard) are silently ignored.
///
/// # Errors
///
/// Propagates expansion errors, exactly as [`run_points`].
pub fn run_points_resuming(
    spec: &SweepSpec,
    shard: Option<ShardSpec>,
    workers: usize,
    done: &[PointOutcome],
) -> Result<SweepRun, String> {
    let all = spec.expand()?;
    let total = all.len();
    let base = spec.base_scenario()?;
    let done_names: BTreeSet<&str> = done.iter().map(|o| o.name.as_str()).collect();
    let (mine, reused): (Vec<SweepPoint>, Vec<SweepPoint>) = all
        .into_iter()
        .filter(|p| shard.is_none_or(|s| point_shard(&p.name, s.count) == s.index))
        .partition(|p| !done_names.contains(p.name.as_str()));
    let mut outcomes: Vec<PointOutcome> = reused
        .iter()
        .map(|p| {
            done.iter()
                .find(|o| o.name == p.name)
                .expect("partitioned on membership")
                .clone()
        })
        .collect();

    let runs = Sweep::new(mine).threads(workers).run(|point, _| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            runner::run(&point.scenario, &RunOptions::default())
        }));
        (point.name.clone(), run.unwrap_or_else(|panic| Err(panic_message(&*panic))))
    });
    let mut files = Vec::new();
    for (name, run) in runs {
        let (passed, error, artifacts) = match run {
            Ok(report) => {
                let ids = report.artifacts.iter().map(|a| a.id.clone()).collect();
                for a in report.artifacts {
                    files.push((format!("{name}/{}.json", a.id), a.json));
                }
                (report.passed, None, ids)
            }
            Err(e) => (false, Some(e), Vec::new()),
        };
        outcomes.push(PointOutcome { name, passed, artifacts, error });
    }

    outcomes.sort_by(|a, b| a.name.cmp(&b.name));
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let manifest = render_manifest(&spec.name, &base.name, total, shard, &outcomes);
    Ok(SweepRun {
        manifest_name: shard.map_or_else(|| MANIFEST_NAME.to_string(), ShardSpec::manifest_name),
        manifest,
        passed: outcomes.iter().all(|o| o.passed),
        files,
        outcomes,
    })
}

/// Parses one manifest (unsharded or shard form) into its point
/// outcomes, verifying it belongs to the named sweep. This is the
/// read-back half of the manifest format: `xui sweep --resume` uses it
/// to learn which points an interrupted run already finished, and
/// [`merge_manifests`] uses it per shard.
///
/// # Errors
///
/// Rejects malformed JSON, a manifest of a different sweep, and
/// malformed point entries.
pub fn manifest_outcomes(sweep_name: &str, text: &str) -> Result<Vec<PointOutcome>, String> {
    let v = serde_json::value_from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let sweep: String = serde::field(&v, "manifest", "sweep").map_err(|e| e.to_string())?;
    if sweep != sweep_name {
        return Err(format!("the manifest belongs to sweep `{sweep}`, not `{sweep_name}`"));
    }
    serde::field(&v, "manifest", "points").map_err(|e| e.to_string())
}

/// Merges shard manifests back into the unsharded manifest, verifying
/// the shards form an exact disjoint cover of the sweep's expansion —
/// so `cat shard manifests | merge` equals the single-process run byte
/// for byte.
///
/// # Errors
///
/// Rejects manifests of a different sweep, duplicate points, points not
/// in the expansion, and an incomplete cover (naming the missing
/// points).
pub fn merge_manifests(spec: &SweepSpec, manifests: &[String]) -> Result<String, String> {
    let expected: Vec<String> = spec.expand()?.into_iter().map(|p| p.name).collect();
    let base = spec.base_scenario()?;
    let mut outcomes: Vec<PointOutcome> = Vec::with_capacity(expected.len());
    let mut seen = BTreeSet::new();
    for (i, text) in manifests.iter().enumerate() {
        let parsed = manifest_outcomes(&spec.name, text)
            .map_err(|e| format!("shard manifest #{i}: {e}"))?;
        for outcome in parsed {
            if !expected.contains(&outcome.name) {
                return Err(format!(
                    "shard manifest #{i} names point `{}` which is not in the expansion",
                    outcome.name
                ));
            }
            if !seen.insert(outcome.name.clone()) {
                return Err(format!(
                    "point `{}` appears in more than one shard manifest",
                    outcome.name
                ));
            }
            outcomes.push(outcome);
        }
    }
    let missing: Vec<&String> = expected.iter().filter(|n| !seen.contains(*n)).collect();
    if !missing.is_empty() {
        return Err(format!(
            "incomplete cover: {} of {} points missing (first: `{}`)",
            missing.len(),
            expected.len(),
            missing[0]
        ));
    }
    outcomes.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(render_manifest(&spec.name, &base.name, expected.len(), None, &outcomes))
}

fn preset(name: &str, scenario: &str, grid: Vec<Axis>) -> SweepSpec {
    SweepSpec {
        name: name.to_string(),
        scenario: ScenarioRef::Preset(scenario.to_string()),
        grid,
    }
}

fn list(path: &str, values: Vec<Value>) -> Axis {
    Axis { path: path.to_string(), values: AxisValues::List(values) }
}

fn int_range(path: &str, from: i128, to: i128, step: i128) -> Axis {
    Axis { path: path.to_string(), values: AxisValues::IntRange { from, to, step } }
}

fn strs(names: &[&str]) -> Vec<Value> {
    names.iter().map(|n| Value::Str((*n).to_string())).collect()
}

fn uints(ns: &[u128]) -> Vec<Value> {
    ns.iter().map(|n| Value::UInt(*n)).collect()
}

fn floats(fs: &[f64]) -> Vec<Value> {
    fs.iter().map(|f| Value::Float(*f)).collect()
}

/// The named matrix presets, in registry order: the paper's evaluation
/// grids, one command each.
#[must_use]
pub fn presets() -> Vec<SweepSpec> {
    vec![
        // A fast 16-point cycle-sim grid: the CI/regression matrix.
        preset(
            "sweep_fig2_grid",
            "fig2_timeline",
            vec![
                int_range("sender_countdown", 1_000, 4_000, 1_000),
                list("receiver_countdown", uints(&[500_000, 600_000, 700_000, 800_000])),
            ],
        ),
        // §6.2.1: offered load x preemption mechanism, one point each.
        preset(
            "sweep_fig7_load_mech",
            "fig7_rocksdb",
            vec![
                int_range("loads_krps", 50, 250, 25),
                list("mechanisms", strs(&["UipiSwTimer", "XuiKbTimer"])),
            ],
        ),
        // §6.1 Fig 6: timer interval x receiver fan-out.
        preset(
            "sweep_fig6_interval_fanout",
            "fig6_timer_core",
            vec![
                list("intervals_us", floats(&[5.0, 25.0, 100.0, 1000.0])),
                list("receiver_counts", uints(&[4, 8, 16, 24])),
            ],
        ),
        // Worst-case band: interference kind x interferer count.
        preset(
            "sweep_wc_kind_tenants",
            "wc_interference",
            vec![
                list("kinds", strs(&["None", "Cache", "Pipeline", "MemBw"])),
                list("interferer_counts", uints(&[1, 2, 4, 8])),
            ],
        ),
    ]
}

/// Looks a sweep preset up by exact name.
#[must_use]
pub fn find_preset(name: &str) -> Option<SweepSpec> {
    presets().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scenario() -> Scenario {
        let mut sc = registry::find("fig2_timeline").expect("preset exists");
        if let crate::spec::Experiment::Fig2Timeline(p) = &mut sc.experiment {
            (p.sender_countdown, p.receiver_countdown, p.max_cycles) = (500, 20_000, 2_000_000);
        }
        sc
    }

    fn tiny_sweep() -> SweepSpec {
        SweepSpec {
            name: "tiny".to_string(),
            scenario: ScenarioRef::Inline(Box::new(tiny_scenario())),
            grid: vec![
                int_range("sender_countdown", 100, 200, 100),
                list("receiver_countdown", uints(&[20_000, 30_000])),
            ],
        }
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_spec_order() {
        let points = tiny_sweep().expand().expect("expands");
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "fig2_timeline@sender_countdown=100,receiver_countdown=20000",
                "fig2_timeline@sender_countdown=100,receiver_countdown=30000",
                "fig2_timeline@sender_countdown=200,receiver_countdown=20000",
                "fig2_timeline@sender_countdown=200,receiver_countdown=30000",
            ]
        );
        for p in &points {
            assert_eq!(p.scenario.name, p.name, "scenario renamed to the point");
            p.scenario.validate().expect("point validates");
        }
    }

    #[test]
    fn ranges_expand_inclusively_and_reject_bad_steps() {
        let vs = AxisValues::IntRange { from: 100, to: 900, step: 100 }
            .expand()
            .expect("expands");
        assert_eq!(vs.len(), 9);
        assert_eq!(vs[0], Value::UInt(100));
        assert_eq!(vs[8], Value::UInt(900));

        let vs = AxisValues::FloatRange { from: 5.0, to: 25.0, step: 5.0 }
            .expand()
            .expect("expands");
        assert_eq!(vs.len(), 5, "inclusive upper bound: {vs:?}");

        assert!(AxisValues::IntRange { from: 1, to: 0, step: 1 }.expand().is_err());
        assert!(AxisValues::IntRange { from: 0, to: 9, step: 0 }.expand().is_err());
        assert!(AxisValues::List(vec![]).expand().is_err());
    }

    #[test]
    fn scalar_over_vec_field_becomes_a_singleton_list() {
        let spec = preset(
            "loads",
            "fig7_rocksdb",
            vec![int_range("loads_krps", 100, 200, 100)],
        );
        let points = spec.expand().expect("expands");
        assert_eq!(points.len(), 2);
        let crate::spec::Experiment::Fig7Rocksdb(p) = &points[0].scenario.experiment else {
            panic!("wrong experiment")
        };
        assert_eq!(p.loads_krps, vec![100.0]);
    }

    #[test]
    fn absolute_paths_reach_outside_the_experiment() {
        let spec = SweepSpec {
            name: "seeds".to_string(),
            scenario: ScenarioRef::Preset("oracle_fuzz".to_string()),
            grid: vec![
                int_range("/base_seed", 1, 3, 1),
                list("full", uints(&[10])),
            ],
        };
        let points = spec.expand().expect("expands");
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].scenario.base_seed, Some(1));
        assert_eq!(points[2].scenario.base_seed, Some(3));
    }

    #[test]
    fn unknown_paths_and_duplicate_axes_are_rejected() {
        let spec = preset("bad", "fig2_timeline", vec![int_range("no_such_field", 1, 2, 1)]);
        let err = spec.expand().unwrap_err();
        assert!(err.contains("no field `no_such_field`"), "{err}");

        let spec = preset(
            "dup",
            "fig2_timeline",
            vec![
                int_range("sender_countdown", 1, 2, 1),
                int_range("sender_countdown", 3, 4, 1),
            ],
        );
        assert!(spec.expand().unwrap_err().contains("duplicate grid path"));
    }

    #[test]
    fn spec_json_round_trips_through_the_documented_grammar() {
        let text = r#"{
            "name": "loads",
            "scenario": "fig7_rocksdb",
            "grid": {
                "loads_krps": {"from": 100, "to": 900, "step": 100},
                "mechanisms": ["UipiSwTimer", "XuiKbTimer"]
            }
        }"#;
        let spec = SweepSpec::from_json(text).expect("parses");
        assert_eq!(spec.name, "loads");
        assert_eq!(spec.grid.len(), 2);
        assert_eq!(
            spec.grid[0].values,
            AxisValues::IntRange { from: 100, to: 900, step: 100 }
        );
        let reparsed = SweepSpec::from_json(&spec.to_json()).expect("round trips");
        assert_eq!(reparsed, spec);
        assert_eq!(spec.expand().expect("expands").len(), 18);
    }

    #[test]
    fn malformed_grids_are_readable_errors() {
        assert!(SweepSpec::from_json("{ nope").is_err());
        let err = SweepSpec::from_json(r#"{"name":"x","scenario":"fig2_timeline"}"#)
            .unwrap_err();
        assert!(err.contains("grid"), "{err}");
        let err = SweepSpec::from_json(
            r#"{"name":"x","scenario":"fig2_timeline","grid":{"a":{"from":1}}}"#,
        )
        .unwrap_err();
        assert!(err.contains("to"), "{err}");
    }

    #[test]
    fn every_sweep_preset_expands_and_validates() {
        for spec in presets() {
            let points = spec
                .expand()
                .unwrap_or_else(|e| panic!("preset `{}` fails to expand: {e}", spec.name));
            assert!(points.len() >= 16, "preset `{}` has {} points", spec.name, points.len());
            let unique: BTreeSet<&str> = points.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(unique.len(), points.len(), "duplicate point names in `{}`", spec.name);
        }
        assert!(find_preset("sweep_fig2_grid").is_some());
        assert!(find_preset("nope").is_none());
    }

    #[test]
    fn shard_parse_accepts_i_of_n_and_rejects_nonsense() {
        assert_eq!(ShardSpec::parse("0/2"), Ok(ShardSpec { index: 0, count: 2 }));
        assert_eq!(ShardSpec::parse("3/4").unwrap().manifest_name(), "sweep_manifest.shard3of4.json");
        for bad in ["", "2", "2/2", "5/4", "a/b", "1/0", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn sharded_runs_merge_to_the_unsharded_bytes() {
        let spec = tiny_sweep();
        let whole = run_points(&spec, None, 2).expect("unsharded run");
        assert!(whole.passed);
        assert_eq!(whole.outcomes.len(), 4);

        let shard0 = run_points(&spec, Some(ShardSpec { index: 0, count: 2 }), 2).expect("shard 0");
        let shard1 = run_points(&spec, Some(ShardSpec { index: 1, count: 2 }), 2).expect("shard 1");
        assert_eq!(
            shard0.outcomes.len() + shard1.outcomes.len(),
            whole.outcomes.len(),
            "shards cover the expansion"
        );

        // Artifact union (order-independent) equals the unsharded set.
        let mut merged_files = shard0.files.clone();
        merged_files.extend(shard1.files.clone());
        merged_files.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(merged_files, whole.files, "artifact bytes differ after merge");

        // Manifest merge is order-independent and byte-identical.
        let ab = merge_manifests(&spec, &[shard0.manifest.clone(), shard1.manifest.clone()])
            .expect("merge");
        let ba = merge_manifests(&spec, &[shard1.manifest.clone(), shard0.manifest.clone()])
            .expect("merge reversed");
        assert_eq!(ab, whole.manifest, "merged manifest differs from unsharded");
        assert_eq!(ba, whole.manifest, "merge is order-dependent");
    }

    #[test]
    fn resumed_runs_reproduce_the_manifest_byte_for_byte() {
        let spec = tiny_sweep();
        let whole = run_points(&spec, None, 2).expect("unsharded run");

        // Interrupt after two of four points: resume with those prior
        // outcomes must splice them in without re-running them and
        // still render exactly the uninterrupted manifest.
        let partial = &whole.outcomes[..2];
        let resumed = run_points_resuming(&spec, None, 2, partial).expect("resumed run");
        assert_eq!(resumed.manifest, whole.manifest, "resume changed the manifest bytes");
        assert_eq!(resumed.outcomes, whole.outcomes);
        let rerun_points: BTreeSet<&str> = resumed
            .files
            .iter()
            .map(|(path, _)| path.split('/').next().expect("namespaced path"))
            .collect();
        for done in partial {
            assert!(
                !rerun_points.contains(done.name.as_str()),
                "resume re-emitted artifacts for completed point `{}`",
                done.name
            );
        }
        assert_eq!(rerun_points.len(), 2, "the two interrupted points re-ran");

        // Prior outcomes whose names fell out of the expansion (an
        // edited grid) are ignored, not trusted.
        let stale = vec![PointOutcome {
            name: "fig2_timeline@sender_countdown=999,receiver_countdown=1".to_string(),
            passed: true,
            artifacts: vec![],
            error: None,
        }];
        let fresh = run_points_resuming(&spec, None, 2, &stale).expect("stale-resume run");
        assert_eq!(fresh.manifest, whole.manifest);
        assert_eq!(fresh.files.len(), whole.files.len(), "every real point re-ran");

        // Resuming with everything done runs nothing at all.
        let noop = run_points_resuming(&spec, None, 2, &whole.outcomes).expect("no-op resume");
        assert_eq!(noop.manifest, whole.manifest);
        assert!(noop.files.is_empty(), "a fully-complete resume re-emitted artifacts");
    }

    #[test]
    fn manifest_outcomes_read_back_what_run_points_wrote() {
        let spec = tiny_sweep();
        let whole = run_points(&spec, None, 2).expect("unsharded run");
        let parsed = manifest_outcomes(&spec.name, &whole.manifest).expect("parses");
        assert_eq!(parsed, whole.outcomes);

        let err = manifest_outcomes("other_sweep", &whole.manifest).unwrap_err();
        assert!(err.contains("belongs to sweep"), "{err}");
        assert!(manifest_outcomes(&spec.name, "{ nope").is_err());
        assert!(manifest_outcomes(&spec.name, "{}").is_err());
    }

    #[test]
    fn merge_rejects_incomplete_and_duplicate_covers() {
        let spec = tiny_sweep();
        let shard0 = run_points(&spec, Some(ShardSpec { index: 0, count: 2 }), 1).expect("shard 0");
        let err =
            merge_manifests(&spec, std::slice::from_ref(&shard0.manifest)).unwrap_err();
        assert!(err.contains("incomplete cover"), "{err}");
        let err = merge_manifests(&spec, &[shard0.manifest.clone(), shard0.manifest.clone()])
            .unwrap_err();
        assert!(err.contains("more than one shard"), "{err}");
    }
}
