//! Executes a [`Scenario`]: validates it, checks the telemetry request
//! against the scenario's capabilities, prints the banner, dispatches to
//! the experiment implementation, and collects every JSON artifact the
//! run produces (optionally also saving them under `results/`).

use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use serde::Serialize;

use crate::cli::{CliError, Parsed};
use crate::experiments;
use crate::report::{banner, render_json, save_json};
use crate::spec::{Experiment, Scenario};

/// One milestone in a scenario's execution, reported through
/// [`ProgressHook`] while the run is still going — this is what a live
/// control plane streams, where the [`RunReport`] only exists after the
/// fact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum RunProgress {
    /// Validation passed and the experiment dispatch is about to start.
    Started {
        /// Scenario name.
        scenario: String,
    },
    /// One JSON artifact was emitted (in emission order).
    Artifact {
        /// Artifact id (`results/<id>.json` stem).
        id: String,
        /// Rendered size in bytes.
        bytes: usize,
        /// Zero-based emission index within the run.
        index: usize,
    },
    /// The experiment finished executing.
    Finished {
        /// Whether the experiment's own pass criterion held.
        passed: bool,
        /// Number of artifacts emitted.
        artifacts: usize,
    },
}

/// An optional observer of [`RunProgress`] milestones. Cloneable and
/// cheap when unset; the default observes nothing. The hook runs on the
/// thread executing the scenario, so implementations must be quick and
/// must never block (the serve layer forwards into non-blocking
/// broadcast queues for exactly this reason).
#[derive(Clone, Default)]
pub struct ProgressHook(Option<ProgressFn>);

/// The shared callback a set [`ProgressHook`] carries.
type ProgressFn = Arc<dyn Fn(&RunProgress) + Send + Sync>;

impl ProgressHook {
    /// Wraps a callback.
    #[must_use]
    pub fn new(f: impl Fn(&RunProgress) + Send + Sync + 'static) -> Self {
        Self(Some(Arc::new(f)))
    }

    /// Reports one milestone (no-op when unset).
    pub fn emit(&self, p: &RunProgress) {
        if let Some(f) = &self.0 {
            f(p);
        }
    }

    /// Whether a callback is attached.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.0.is_some()
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_set() { "ProgressHook(set)" } else { "ProgressHook(unset)" })
    }
}

/// Options shared by every sweep-driven experiment: parsed once from the
/// command line (see [`CliSpec::bench`](crate::cli::CliSpec::bench)) or
/// filled in programmatically — never sniffed from `std::env::args`
/// mid-run.
#[derive(Debug, Clone, Default)]
pub struct BenchOpts {
    /// Explicit worker-thread override (else `XUI_BENCH_THREADS`/host).
    pub threads: Option<usize>,
    /// Where to write a Chrome trace JSON, for experiments that support it.
    pub trace: Option<PathBuf>,
    /// Save a merged metrics snapshot under `results/`.
    pub metrics: bool,
}

impl BenchOpts {
    /// Builds options from the shared flags of a
    /// [`CliSpec::bench`](crate::cli::CliSpec::bench) parse.
    ///
    /// # Errors
    ///
    /// Fails if `--threads` is not an unsigned integer.
    pub fn from_parsed(p: &Parsed) -> Result<Self, CliError> {
        Ok(Self {
            threads: p.opt_usize("--threads")?,
            trace: p.opt("--trace").map(PathBuf::from),
            metrics: p.flag("--metrics"),
        })
    }
}

/// How to execute a scenario: the shared sweep options (threads, trace,
/// metrics) plus whether artifacts are written to `results/`. The CLI
/// saves; the golden tests run in-memory.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Sweep options shared by every experiment.
    pub bench: BenchOpts,
    /// Write every artifact to `results/<id>.json` as well.
    pub save: bool,
    /// Optional observer of run milestones (started / artifact emitted /
    /// finished), invoked synchronously on the running thread.
    pub progress: ProgressHook,
}

/// One JSON result produced by a run, rendered exactly as
/// `results/<id>.json` would be written.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Result id (`results/<id>.json` stem).
    pub id: String,
    /// Pretty-printed JSON bytes.
    pub json: String,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// JSON artifacts in emission order.
    pub artifacts: Vec<Artifact>,
    /// Whether the experiment's own pass criterion held (always true
    /// for measurement scenarios; the faults suite and the oracle
    /// fuzzer can fail).
    pub passed: bool,
}

impl RunReport {
    /// The JSON of the artifact with the given id, if produced.
    #[must_use]
    pub fn artifact(&self, id: &str) -> Option<&str> {
        self.artifacts.iter().find(|a| a.id == id).map(|a| a.json.as_str())
    }
}

/// Collects artifacts during a run; shared with the experiment modules.
pub(crate) struct Sink {
    save: bool,
    artifacts: Vec<Artifact>,
    progress: ProgressHook,
    seen: BTreeSet<String>,
    duplicate: Option<String>,
    /// First failure to write a file under `results/`.
    save_error: Option<String>,
}

impl Sink {
    pub(crate) fn new(save: bool, progress: ProgressHook) -> Self {
        Self {
            save,
            artifacts: Vec::new(),
            progress,
            seen: BTreeSet::new(),
            duplicate: None,
            save_error: None,
        }
    }

    /// Records the outcome of a write under `results/`; [`run`] turns
    /// the first failure into its error.
    pub(crate) fn saved(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.save_error.get_or_insert_with(|| e.to_string());
        }
    }

    /// Renders `value` and records it under `id`; also writes
    /// `results/<id>.json` when saving is on, and reports the emission
    /// to the progress hook.
    ///
    /// Two emissions sharing an id within one run would silently
    /// overwrite each other's `results/<id>.json` (and produce an
    /// ambiguous report); the duplicate is recorded here and surfaced by
    /// [`run`] as a hard error instead of saved over the original.
    pub(crate) fn emit<T: Serialize>(&mut self, id: &str, value: &T) {
        if !self.seen.insert(id.to_string()) {
            self.duplicate.get_or_insert_with(|| id.to_string());
            return;
        }
        let json = render_json(value);
        if self.save {
            let saved = save_json(id, value);
            self.saved(saved);
        }
        self.progress.emit(&RunProgress::Artifact {
            id: id.to_string(),
            bytes: json.len(),
            index: self.artifacts.len(),
        });
        self.artifacts.push(Artifact { id: id.to_string(), json });
    }
}

/// Runs a scenario. Errors are configuration problems (invalid spec, an
/// unsupported telemetry request) and a failure to write a file the run
/// was asked for (an artifact under `results/` when saving, a trace, a
/// metrics snapshot); an experiment that executes but fails its own
/// criterion returns `Ok` with `passed == false`.
pub fn run(sc: &Scenario, opts: &RunOptions) -> Result<RunReport, String> {
    sc.validate()?;
    if opts.bench.trace.is_some() && !sc.telemetry.trace {
        return Err(format!("scenario `{}` does not support --trace", sc.name));
    }
    if opts.bench.metrics && !sc.telemetry.metrics {
        return Err(format!("scenario `{}` does not support --metrics", sc.name));
    }

    banner(&sc.heading, &sc.title, &sc.paper_ref);

    opts.progress.emit(&RunProgress::Started { scenario: sc.name.clone() });
    let mut sink = Sink::new(opts.save, opts.progress.clone());
    let bench = &opts.bench;
    let passed = match &sc.experiment {
        Experiment::Fig2Timeline { sender_countdown, receiver_countdown, max_cycles } => {
            experiments::fig2::run(
                *sender_countdown,
                *receiver_countdown,
                *max_cycles,
                bench,
                &mut sink,
            );
            true
        }
        Experiment::Fig4ReceiverOverhead { benchmarks, period, send_latency, max_cycles } => {
            experiments::fig4::run(benchmarks, *period, *send_latency, *max_cycles, bench, &mut sink);
            true
        }
        Experiment::Fig5Safepoints { benchmarks, quanta_us, max_cycles } => {
            experiments::fig5::run(benchmarks, quanta_us, *max_cycles, bench, &mut sink);
            true
        }
        Experiment::Fig6TimerCore { intervals_us, receiver_counts, ticks } => {
            experiments::fig6::run(intervals_us, receiver_counts, *ticks, bench, &mut sink);
            true
        }
        Experiment::Fig7Rocksdb { loads_krps, mechanisms, slo_us } => {
            experiments::fig7::run(
                loads_krps,
                mechanisms,
                *slo_us,
                sc.faults.as_ref(),
                bench,
                &mut sink,
            );
            true
        }
        Experiment::Fig8L3fwd { loads, nic_counts, modes } => {
            experiments::fig8::run(loads, nic_counts, modes, sc.faults.as_ref(), bench, &mut sink);
            true
        }
        Experiment::Fig9Dsa { kinds, noise_levels_pct, modes } => {
            experiments::fig9::run(kinds, noise_levels_pct, modes, bench, &mut sink);
            true
        }
        Experiment::Table2UipiMetrics { send_iters, uif_iters } => {
            experiments::table2::run(*send_iters, *uif_iters, bench, &mut sink);
            true
        }
        Experiment::X1WorstCase { chain_lens, nodes, iters, device_period, typical, max_cycles } => {
            experiments::x1::run(
                chain_lens,
                *nodes,
                *iters,
                *device_period,
                typical,
                *max_cycles,
                bench,
                &mut sink,
            );
            true
        }
        Experiment::X2FlushForensics {
            chase_nodes,
            chase_iters,
            timer_period,
            squash_workload,
            squash_periods,
            max_cycles,
        } => {
            experiments::x2::run(
                chase_nodes,
                *chase_iters,
                *timer_period,
                squash_workload,
                squash_periods,
                *max_cycles,
                bench,
                &mut sink,
            );
            true
        }
        Experiment::X3SignalCosts { signals, signal_spacing, cs_iters, cs_body_len } => {
            experiments::x3::run(*signals, *signal_spacing, *cs_iters, *cs_body_len, bench, &mut sink);
            true
        }
        Experiment::X4PollingTax { benchmarks, tight_iters, max_cycles } => {
            experiments::x4::run(benchmarks, *tight_iters, *max_cycles, bench, &mut sink);
            true
        }
        Experiment::MultiTenant {
            tenant_counts,
            cores,
            clients_per_tenant,
            rps_per_client,
            mechanisms,
            quantum,
            duration,
            arrival_batch,
        } => {
            experiments::mt::run(
                &sc.name,
                tenant_counts,
                *cores,
                *clients_per_tenant,
                *rps_per_client,
                mechanisms,
                *quantum,
                *duration,
                *arrival_batch,
                bench,
                &mut sink,
            );
            true
        }
        Experiment::AblationMultiworker { per_worker_krps, worker_counts, duration } => {
            experiments::ablations::multiworker(
                *per_worker_krps,
                worker_counts,
                *duration,
                bench,
                &mut sink,
            );
            true
        }
        Experiment::AblationPolling { benchmarks, periods, max_cycles } => {
            experiments::ablations::polling_vs_tracked(
                benchmarks, periods, *max_cycles, bench, &mut sink,
            );
            true
        }
        Experiment::AblationStrategies { benchmarks, strategies, period, max_cycles } => {
            experiments::ablations::strategies(
                benchmarks, strategies, *period, *max_cycles, bench, &mut sink,
            );
            true
        }
        Experiment::AblationWindow { workload, scales, period, max_cycles } => {
            experiments::ablations::window(workload, scales, *period, *max_cycles, bench, &mut sink);
            true
        }
        Experiment::WorstCase {
            kinds,
            interferer_counts,
            mixes,
            isolation,
            duration,
            deadline,
            probe_max_cycles,
        } => experiments::wc::run(
            &sc.name,
            kinds,
            interferer_counts,
            mixes,
            isolation,
            *duration,
            *deadline,
            *probe_max_cycles,
            sc.faults.as_ref(),
            bench,
            &mut sink,
        ),
        Experiment::FaultsSuite { scenarios } => {
            experiments::faults::run(scenarios, bench, &mut sink)
        }
        Experiment::OracleFuzz { full, sim } => {
            experiments::oracle::run(*full, *sim, sc.base_seed, bench, &mut sink)
        }
    };

    if let Some(id) = sink.duplicate {
        return Err(format!(
            "scenario `{}` emitted artifact id `{id}` more than once; \
             later emissions would overwrite results/{id}.json",
            sc.name
        ));
    }

    if let Some(e) = sink.save_error {
        return Err(e);
    }

    opts.progress.emit(&RunProgress::Finished { passed, artifacts: sink.artifacts.len() });
    Ok(RunReport { scenario: sc.name.clone(), artifacts: sink.artifacts, passed })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `Sink::emit` used to overwrite the first artifact
    /// (and its `results/<id>.json`) when a second emission reused the
    /// id; now the first emission wins and the duplicate is reported.
    #[test]
    fn duplicate_artifact_ids_are_detected_not_overwritten() {
        let mut sink = Sink::new(false, ProgressHook::default());
        sink.emit("collide", &1u64);
        sink.emit("collide", &2u64);
        sink.emit("other", &3u64);
        assert_eq!(sink.duplicate.as_deref(), Some("collide"));
        assert_eq!(sink.artifacts.len(), 2, "the duplicate is not recorded twice");
        assert_eq!(sink.artifacts[0].json, render_json(&1u64), "first emission wins");
    }

    #[test]
    fn distinct_ids_pass_through_unchanged() {
        let mut sink = Sink::new(false, ProgressHook::default());
        sink.emit("a", &1u64);
        sink.emit("b", &2u64);
        assert!(sink.duplicate.is_none());
        assert_eq!(sink.artifacts.len(), 2);
    }
}
