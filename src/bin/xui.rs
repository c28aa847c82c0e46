//! `xui` — the single front door to every experiment in the
//! reproduction.
//!
//! ```text
//! xui list                        # every registered scenario + sweep
//! xui show <name>                 # print a preset as scenario JSON
//! xui run <name|path.json> [...]  # run a preset or a scenario file
//! xui sweep <name|spec.json> [..] # expand a grid and run every point
//! xui serve [--addr H:P] [...]    # HTTP control plane (docs/SERVE.md)
//! ```
//!
//! Each subcommand parses its *own* flag set strictly — `xui show
//! --threads 4` is a usage error (exit 2), not a silently ignored
//! run-only flag. `run` takes the shared sweep flags (`--threads`,
//! `--trace`, `--metrics`), `--faults <plan.json>`, and
//! the fuzzer's corpus overrides (`--full`/`--sim`/`--seed`). `sweep`
//! expands a sweep spec (see `docs/SCENARIOS.md`) into named points,
//! fans them across a worker pool, and with `--shard I/N` runs only the
//! points whose name hashes into shard I; `--merge` reassembles shard
//! manifests into the unsharded bytes; `--resume` re-reads the manifest
//! under `--out` and skips every point whose entry is complete and
//! whose artifacts are still on disk, so an interrupted sweep picks up
//! where it stopped and still writes byte-identical output. `serve`
//! binds `--addr` (default
//! `127.0.0.1:0`), optionally writes the bound address to `--port-file`,
//! and runs until a client POSTs `/api/shutdown`. Exit status: 0 pass,
//! 1 experiment failure, 2 usage/config error.

use std::path::{Path, PathBuf};
use std::process::exit;

use xui_scenario::spec::Experiment;
use xui_scenario::sweep::{self, ShardSpec, SweepSpec};
use xui_scenario::{
    registry, runner, write_atomic, BenchOpts, CliError, CliSpec, Parsed, RunOptions, Scenario,
    Table,
};

const COMMANDS: &str = "\
usage: xui <command> [args]

commands:
  list                          every registered scenario and sweep preset
  show <scenario>               print a preset (or scenario file) as JSON
  run <scenario> [flags]        run a preset or scenario JSON file
  sweep <sweep> [flags]         expand a parameter grid and run every point
  serve [flags]                 HTTP control plane (see docs/SERVE.md)

`xui <command> --help` shows the command's own flags.";

fn spec_for(command: &str) -> Option<CliSpec> {
    match command {
        "list" => Some(CliSpec::new("xui list", "every registered scenario and sweep preset")),
        "show" => Some(
            CliSpec::new("xui show", "print a scenario as JSON")
                .positional("scenario", "preset name or scenario JSON file", true),
        ),
        "run" => Some(
            CliSpec::bench("xui run", "run one scenario")
                .positional("scenario", "preset name or scenario JSON file", true)
                .option("--faults", "PLAN", "run with a fault plan JSON file (fig7/fig8 scenarios)")
                .option("--full", "N", "oracle_fuzz: full-alphabet schedules (default 10000)")
                .option("--sim", "N", "oracle_fuzz: sim-class schedules (default 1000)")
                .option("--seed", "S", "oracle_fuzz: base seed (default frozen)"),
        ),
        "sweep" => Some(
            CliSpec::new("xui sweep", "expand a parameter grid and run every point")
                .positional("sweep", "sweep preset name or sweep spec JSON file", true)
                .option("--shard", "I/N", "run only the points hashing into shard I of N")
                .option("--out", "DIR", "output directory (default results/sweeps/<name>)")
                .option("--workers", "N", "concurrent points (default: all cores)")
                .flag("--expand", "print the expanded point names without running")
                .flag("--merge", "merge shard manifests under --out instead of running")
                .flag("--resume", "skip points already complete under --out"),
        ),
        "serve" => Some(
            CliSpec::new("xui serve", "HTTP control plane")
                .option("--addr", "H:P", "bind address (default 127.0.0.1:0)")
                .option("--port-file", "PATH", "write the bound address here once listening")
                .option("--run-workers", "N", "concurrent scenario runs (default 2)"),
        ),
        _ => None,
    }
}

fn usage_exit(err: impl std::fmt::Display, spec: &CliSpec) -> ! {
    eprintln!("error: {err}\n\n{}", spec.usage());
    exit(2);
}

fn config_exit(err: impl std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    exit(2);
}

fn list() {
    let mut t = Table::new(vec!["scenario", "backend", "title"]);
    for sc in registry::all() {
        t.row(vec![sc.name.clone(), sc.experiment.backend().name().to_string(), sc.title.clone()]);
    }
    t.print();
    println!();
    let mut t = Table::new(vec!["sweep", "base", "points"]);
    for sw in sweep::presets() {
        let points = sw.expand().map_or_else(|_| "?".to_string(), |p| p.len().to_string());
        let base = match &sw.scenario {
            sweep::ScenarioRef::Preset(name) => name.clone(),
            sweep::ScenarioRef::Inline(sc) => sc.name.clone(),
        };
        t.row(vec![sw.name.clone(), base, points]);
    }
    t.print();
}

/// Loads `arg` as a scenario. Exact preset names always win — a stray
/// file or directory in the CWD named `fig2_timeline` must not shadow
/// the registry — and anything else is read as a scenario JSON file.
fn load_scenario(arg: &str) -> Result<Scenario, String> {
    if let Some(sc) = registry::find(arg) {
        return Ok(sc);
    }
    let looks_like_path =
        arg.ends_with(".json") || arg.contains('/') || Path::new(arg).exists();
    if looks_like_path {
        let text = std::fs::read_to_string(arg)
            .map_err(|e| format!("cannot read scenario file `{arg}`: {e}"))?;
        Scenario::from_json(&text).map_err(|e| format!("invalid scenario file `{arg}`: {e}"))
    } else {
        Err(format!("unknown scenario `{arg}` (see `xui list`)"))
    }
}

/// Loads `arg` as a sweep spec, preset-first like [`load_scenario`].
fn load_sweep(arg: &str) -> Result<SweepSpec, String> {
    if let Some(sw) = sweep::find_preset(arg) {
        return Ok(sw);
    }
    let looks_like_path =
        arg.ends_with(".json") || arg.contains('/') || Path::new(arg).exists();
    if looks_like_path {
        let text = std::fs::read_to_string(arg)
            .map_err(|e| format!("cannot read sweep spec `{arg}`: {e}"))?;
        SweepSpec::from_json(&text)
    } else {
        Err(format!("unknown sweep `{arg}` (see `xui list`)"))
    }
}

fn cmd_show(parsed: &Parsed) {
    match load_scenario(&parsed.positionals()[0]) {
        Ok(sc) => println!("{}", sc.to_json()),
        Err(e) => config_exit(e),
    }
}

fn cmd_run(parsed: &Parsed, spec: &CliSpec) {
    let mut sc = match load_scenario(&parsed.positionals()[0]) {
        Ok(sc) => sc,
        Err(e) => config_exit(e),
    };
    let bench = match BenchOpts::from_parsed(parsed) {
        Ok(b) => b,
        Err(e) => usage_exit(e, spec),
    };
    if let Some(path) = parsed.opt("--faults") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => config_exit(format!("cannot read fault plan `{path}`: {e}")),
        };
        match serde_json::from_str(&text) {
            Ok(plan) => sc.faults = Some(plan),
            Err(e) => config_exit(format!("invalid fault plan `{path}`: {e}")),
        }
    }
    let overrides = (|| -> Result<(), CliError> {
        if let Experiment::OracleFuzz(p) = &mut sc.experiment {
            if let Some(n) = parsed.opt_u64("--full")? {
                p.full = n;
            }
            if let Some(n) = parsed.opt_u64("--sim")? {
                p.sim = n;
            }
        }
        if let Some(s) = parsed.opt_u64("--seed")? {
            sc.base_seed = Some(s);
        }
        Ok(())
    })();
    if let Err(e) = overrides {
        usage_exit(e, spec);
    }
    match runner::run(&sc, &RunOptions { bench, save: true, ..RunOptions::default() }) {
        Ok(report) if report.passed => {}
        Ok(_) => exit(1),
        Err(e) => config_exit(e),
    }
}

/// Writes a sweep artifact or manifest through a temp file and a rename,
/// so a killed sweep never leaves a torn file for `--resume` to trust.
fn write_file(path: &Path, bytes: &str) {
    if let Err(e) = write_atomic(path, bytes.as_bytes()) {
        config_exit(format!("cannot write {e}"));
    }
}

fn cmd_sweep(parsed: &Parsed, spec: &CliSpec) {
    let sw = match load_sweep(&parsed.positionals()[0]) {
        Ok(sw) => sw,
        Err(e) => config_exit(e),
    };
    let shard = match parsed.opt("--shard").map(ShardSpec::parse) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => usage_exit(e, spec),
    };
    let workers = match parsed.opt_usize("--workers") {
        Ok(Some(0)) => usage_exit("`--workers` must be at least 1", spec),
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(2, std::num::NonZero::get),
        Err(e) => usage_exit(e, spec),
    };
    let out_dir = parsed
        .opt("--out")
        .map_or_else(|| PathBuf::from("results/sweeps").join(&sw.name), PathBuf::from);

    if parsed.flag("--expand") {
        match sw.expand() {
            Ok(points) => {
                for p in &points {
                    println!("{}", p.name);
                }
                eprintln!("[{} points]", points.len());
            }
            Err(e) => config_exit(e),
        }
        return;
    }

    if parsed.flag("--merge") {
        if shard.is_some() {
            usage_exit("`--merge` takes no `--shard`; it merges every shard manifest", spec);
        }
        if parsed.flag("--resume") {
            usage_exit("`--merge` takes no `--resume`; merging never re-runs points", spec);
        }
        let mut manifests = Vec::new();
        let entries = match std::fs::read_dir(&out_dir) {
            Ok(it) => it,
            Err(e) => config_exit(format!("cannot read `{}`: {e}", out_dir.display())),
        };
        let mut names: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("sweep_manifest.shard") && n.ends_with(".json"))
            })
            .collect();
        names.sort();
        if names.is_empty() {
            config_exit(format!("no sweep_manifest.shard*.json under `{}`", out_dir.display()));
        }
        for path in &names {
            match std::fs::read_to_string(path) {
                Ok(text) => manifests.push(text),
                Err(e) => config_exit(format!("cannot read `{}`: {e}", path.display())),
            }
        }
        match sweep::merge_manifests(&sw, &manifests) {
            Ok(merged) => {
                let path = out_dir.join(sweep::MANIFEST_NAME);
                write_file(&path, &merged);
                println!("[merged {} shards -> {}]", manifests.len(), path.display());
            }
            Err(e) => config_exit(e),
        }
        return;
    }

    // With --resume, a prior manifest entry only counts as complete
    // when it recorded no runner error and every artifact it names is
    // still on disk; anything less re-runs the point.
    let done: Vec<sweep::PointOutcome> = if parsed.flag("--resume") {
        let manifest_path = out_dir.join(
            shard.map_or_else(|| sweep::MANIFEST_NAME.to_string(), ShardSpec::manifest_name),
        );
        match std::fs::read_to_string(&manifest_path) {
            Err(_) => Vec::new(), // no prior manifest: a fresh run
            Ok(text) => match sweep::manifest_outcomes(&sw.name, &text) {
                Ok(outcomes) => outcomes
                    .into_iter()
                    .filter(|o| {
                        let dir = out_dir.join(&o.name);
                        o.error.is_none()
                            && !o.artifacts.is_empty()
                            && dir.is_dir()
                            && o.artifacts.iter().all(|id| dir.join(format!("{id}.json")).is_file())
                    })
                    .collect(),
                Err(e) => config_exit(format!(
                    "cannot resume from `{}`: {e}",
                    manifest_path.display()
                )),
            },
        }
    } else {
        Vec::new()
    };
    let resumed = done.len();

    let run = match sweep::run_points_resuming(&sw, shard, workers, &done) {
        Ok(run) => run,
        Err(e) => config_exit(e),
    };
    for (rel, bytes) in &run.files {
        write_file(&out_dir.join(rel), bytes);
    }
    let manifest_path = out_dir.join(&run.manifest_name);
    write_file(&manifest_path, &run.manifest);

    let mut t = Table::new(vec!["point", "passed", "artifacts"]);
    for o in &run.outcomes {
        t.row(vec![
            o.name.clone(),
            if o.passed { "yes".to_string() } else { "NO".to_string() },
            o.artifacts.len().to_string(),
        ]);
    }
    t.print();
    println!(
        "[{} points -> {} | manifest {}]",
        run.outcomes.len(),
        out_dir.display(),
        manifest_path.display()
    );
    if resumed > 0 {
        println!("[resumed: skipped {resumed} already-complete points]");
    }
    if !run.passed {
        exit(1);
    }
}

fn cmd_serve(parsed: &Parsed, spec: &CliSpec) {
    let mut cfg = xui_serve::ServeConfig::default();
    if let Some(addr) = parsed.opt("--addr") {
        cfg.addr = addr.to_string();
    }
    match parsed.opt_usize("--run-workers") {
        Ok(Some(n)) if n > 0 => cfg.run_workers = n,
        Ok(Some(_)) => usage_exit("`--run-workers` must be at least 1", spec),
        Ok(None) => {}
        Err(e) => usage_exit(e, spec),
    }
    let server = match xui_serve::Server::start(&cfg) {
        Ok(s) => s,
        Err(e) => config_exit(format!("cannot bind `{}`: {e}", cfg.addr)),
    };
    let addr = server.local_addr();
    if let Some(path) = parsed.opt("--port-file") {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write port file `{path}`: {e}");
            server.shutdown();
            exit(2);
        }
    }
    println!("xui serve listening on http://{addr} (POST /api/shutdown to stop)");
    server.join();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("error: missing command\n\n{COMMANDS}");
        exit(2);
    };
    if command == "--help" || command == "-h" {
        println!("{COMMANDS}");
        exit(0);
    }
    let Some(spec) = spec_for(command) else {
        eprintln!("error: unknown command `{command}`\n\n{COMMANDS}");
        exit(2);
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", spec.usage());
        exit(0);
    }
    let parsed = match spec.parse_args(rest) {
        Ok(p) => p,
        Err(e) => usage_exit(e, &spec),
    };

    match command.as_str() {
        "list" => list(),
        "show" => cmd_show(&parsed),
        "run" => cmd_run(&parsed, &spec),
        "sweep" => cmd_sweep(&parsed, &spec),
        "serve" => cmd_serve(&parsed, &spec),
        _ => unreachable!("spec_for covered the command"),
    }
}
