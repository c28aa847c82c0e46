//! The serializable scenario specification.
//!
//! A [`Scenario`] is the complete, declarative description of one
//! experiment: what hardware shape it assumes ([`Topology`]), which
//! execution backend family it runs on ([`Backend`]), what workload and
//! sweep parameters it measures ([`Experiment`]), which telemetry sinks
//! it can feed ([`TelemetryCaps`]), and an optional [`FaultPlan`] to
//! inject. Every named preset in [`crate::registry`] is one of these
//! values, and the same struct round-trips through JSON so a scenario
//! can live in a file instead of a recompiled binary
//! (`xui run path/to/scenario.json`).

use serde::{Deserialize, Serialize};

use xui_accel::RequestKind;
use xui_faults::FaultPlan;
use xui_kernel::PreemptMechanism;
use xui_net::IoMode;
use xui_runtime::worstcase::{CriticalityMix, InterferenceKind};
use xui_sim::config::DeliveryStrategy;
use xui_workloads::programs::WorkloadSpec;

/// Which execution engine family a scenario runs on. Purely declarative:
/// the [`Experiment`] determines the code path, and
/// [`Scenario::validate`] checks the two agree, so a scenario file
/// cannot claim a cycle-level experiment runs on the DES backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// The cycle-level out-of-order pipeline simulator (`xui-sim`).
    CycleSim,
    /// The discrete-event system models (`xui-des` and the runtime /
    /// net / accel / kernel crates built on it).
    Des,
    /// The SDM-style reference oracle and its differential fuzzer.
    Oracle,
}

impl Backend {
    /// Short lowercase name, as printed by `xui list`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CycleSim => "cycle-sim",
            Self::Des => "des",
            Self::Oracle => "oracle",
        }
    }
}

/// The hardware shape a scenario assumes: how many application cores it
/// schedules, how many NIC rings it drains, and how many dedicated
/// timer cores it burns. [`Scenario::validate`] checks the experiment's
/// sweep maxima fit inside these bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Cores running application (or receiver) work.
    pub app_cores: usize,
    /// NIC descriptor rings (l3fwd experiments).
    pub nic_rings: usize,
    /// Dedicated timer/sender cores (UIPI software timers).
    pub timer_cores: usize,
}

impl Topology {
    /// A topology with `app_cores` application cores and nothing else.
    #[must_use]
    pub fn cores(app_cores: usize) -> Self {
        Self { app_cores, nic_rings: 0, timer_cores: 0 }
    }

    /// Adds NIC rings.
    #[must_use]
    pub fn nics(mut self, nic_rings: usize) -> Self {
        self.nic_rings = nic_rings;
        self
    }

    /// Adds dedicated timer cores.
    #[must_use]
    pub fn timers(mut self, timer_cores: usize) -> Self {
        self.timer_cores = timer_cores;
        self
    }
}

/// Which telemetry sinks an experiment can feed. These are capability
/// flags, not switches: the actual `--trace PATH` / `--metrics` request
/// arrives in [`xui_bench::BenchOpts`], and the runner rejects requests
/// the scenario cannot honour instead of silently ignoring them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryCaps {
    /// The experiment can export a Chrome trace.
    pub trace: bool,
    /// The experiment can save a metrics snapshot.
    pub metrics: bool,
}

/// A workload plus the label it prints in result tables, for sweeps
/// whose display names are not the workload's own (`chase-16k`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedWorkload {
    /// Table / JSON label.
    pub label: String,
    /// The workload itself.
    pub workload: WorkloadSpec,
}

impl NamedWorkload {
    /// A workload labelled with its own benchmark name.
    #[must_use]
    pub fn plain(workload: WorkloadSpec) -> Self {
        Self { label: workload.name().to_string(), workload }
    }

    /// A workload with an explicit label.
    #[must_use]
    pub fn labelled(label: &str, workload: WorkloadSpec) -> Self {
        Self { label: label.to_string(), workload }
    }
}

/// How the Figure 9 DSA experiment learns of completions. The data form
/// of `xui_accel::CompletionMode`, which is not directly serializable
/// because the matched-poll period depends on the request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DsaMode {
    /// Busy-spin on the completion record.
    BusySpin,
    /// Periodic OS-timer polling at the kind-matched period.
    PeriodicPoll,
    /// xUI device interrupt.
    XuiInterrupt,
}

impl DsaMode {
    /// Table / JSON label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BusySpin => "busy-spin",
            Self::PeriodicPoll => "periodic-poll",
            Self::XuiInterrupt => "xUI",
        }
    }
}

/// The experiment a scenario measures: one variant per paper figure /
/// table / extension, carrying that experiment's sweep axes and
/// constants as data. The runner lowers each variant onto the existing
/// crates; the `xui` CLI and the `xui serve` control plane both go
/// through exactly this type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Experiment {
    /// Figure 2: one traced send, reconstructed step by step.
    Fig2Timeline {
        /// Sender spin iterations before the `SENDUIPI`.
        sender_countdown: u64,
        /// Receiver spin iterations (must outlast the sender).
        receiver_countdown: u64,
        /// Simulation cycle budget.
        max_cycles: u64,
    },
    /// Figure 4: receiver-side overhead of periodic interrupts under
    /// UIPI flush, xUI tracking, and xUI KB_Timer + tracking.
    Fig4ReceiverOverhead {
        /// Benchmarks interrupted (paper: fib, linpack, memops).
        benchmarks: Vec<WorkloadSpec>,
        /// Interrupt period in cycles (paper: 5 µs = 10,000).
        period: u64,
        /// SW-timer send latency in cycles.
        send_latency: u64,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Figure 5: preemption overhead of hardware safepoints vs UIPI vs
    /// Concord-style compiler polling, across preemption quanta.
    Fig5Safepoints {
        /// Benchmarks (paper: matmul, base64, with handler work
        /// modelling the user-level context switch).
        benchmarks: Vec<WorkloadSpec>,
        /// Preemption quanta in microseconds.
        quanta_us: Vec<f64>,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Figure 6: CPU cost of a dedicated timer core vs per-core
    /// KB_Timers, across intervals and receiver counts.
    Fig6TimerCore {
        /// Timer intervals in microseconds.
        intervals_us: Vec<f64>,
        /// Receiver counts fanned out to per tick.
        receiver_counts: Vec<usize>,
        /// Timer ticks simulated per point.
        ticks: u64,
    },
    /// Figure 7: RocksDB-on-Aspen tail latency vs offered load, per
    /// preemption mechanism. Honours [`Scenario::faults`].
    Fig7Rocksdb {
        /// Offered loads in thousands of requests per second.
        loads_krps: Vec<f64>,
        /// Preemption mechanisms compared.
        mechanisms: Vec<PreemptMechanism>,
        /// GET p99.9 service-level objective in microseconds.
        slo_us: f64,
    },
    /// Figure 8: l3fwd cycle accounting and p95 latency, polling vs xUI
    /// device interrupts. Honours [`Scenario::faults`].
    Fig8L3fwd {
        /// Offered load fractions (0.0–1.0).
        loads: Vec<f64>,
        /// NIC counts.
        nic_counts: Vec<usize>,
        /// I/O modes compared.
        modes: Vec<IoMode>,
    },
    /// Figure 9: DSA completion delivery — free cycles and notification
    /// latency vs response-time noise.
    Fig9Dsa {
        /// Request kinds (paper: 2 µs and 20 µs mean response).
        kinds: Vec<RequestKind>,
        /// Noise levels as a percentage of the mean response time.
        noise_levels_pct: Vec<u64>,
        /// Completion-delivery modes compared.
        modes: Vec<DsaMode>,
    },
    /// Table 2: per-instruction UIPI costs measured on the cycle-level
    /// simulator (SENDUIPI, CLUI, STUI, receiver cost, end-to-end).
    Table2UipiMetrics {
        /// Iterations of the SENDUIPI cost loop.
        send_iters: u64,
        /// Iterations of the CLUI/STUI cost loops.
        uif_iters: u64,
    },
    /// §6.1 worst case: maximum tracked-interrupt latency under an
    /// SP-dependent load chain.
    X1WorstCase {
        /// Chain lengths swept.
        chain_lens: Vec<usize>,
        /// Pointer-ring size in cache lines.
        nodes: usize,
        /// Loop iterations per run.
        iters: u64,
        /// Forwarded-device interrupt period in cycles.
        device_period: u64,
        /// The typical benchmark for the anomaly check.
        typical: WorkloadSpec,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// §3.5 forensics: flush-strategy detection via latency flatness and
    /// linear squash growth.
    X2FlushForensics {
        /// Pointer-chase working sets for the latency part.
        chase_nodes: Vec<usize>,
        /// Chase iterations for the latency part.
        chase_iters: u64,
        /// SW-timer period for the latency part, in cycles.
        timer_period: u64,
        /// Workload for the squash-scaling part.
        squash_workload: WorkloadSpec,
        /// SW-timer periods for the squash-scaling part.
        squash_periods: Vec<u64>,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// §2/§4.1 costs: per-signal overhead and the clui/stui
    /// critical-section tax.
    X3SignalCosts {
        /// Signals delivered through the kernel model.
        signals: u64,
        /// Cycles between signal deliveries.
        signal_spacing: u64,
        /// Critical-section loop iterations.
        cs_iters: u64,
        /// Dependent instructions per critical section.
        cs_body_len: usize,
    },
    /// §2 polling tax: standing cost of preemption checks with zero
    /// preemptions, plus the tight-loop worst case.
    X4PollingTax {
        /// The benchmark suite (instrumented vs plain).
        benchmarks: Vec<WorkloadSpec>,
        /// Iterations of the width-saturating tight loop.
        tight_iters: u64,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Multi-tenant capacity: N tenant runtimes multiplexed onto shared
    /// cores via the per-core KB_Timer (§4.3), each driven by the
    /// batch-drawn open-loop stream of a modeled client population.
    MultiTenant {
        /// Tenant counts swept (tenants are round-robined over cores).
        tenant_counts: Vec<usize>,
        /// Shared application cores.
        cores: usize,
        /// Modeled clients per tenant.
        clients_per_tenant: u64,
        /// Per-client request rate in requests/second.
        rps_per_client: f64,
        /// Preemption mechanisms compared.
        mechanisms: Vec<PreemptMechanism>,
        /// Preemption quantum in cycles.
        quantum: u64,
        /// Simulated duration in cycles.
        duration: u64,
        /// Arrivals pre-drawn per batch event.
        arrival_batch: usize,
    },
    /// Ablation: Aspen-like runtime scaling across workers with work
    /// stealing.
    AblationMultiworker {
        /// Offered load per worker, krps.
        per_worker_krps: f64,
        /// Worker counts swept.
        worker_counts: Vec<usize>,
        /// Simulated duration in cycles.
        duration: u64,
    },
    /// Ablation: shared-memory polling vs tracked interrupts, per event.
    AblationPolling {
        /// Benchmarks measured.
        benchmarks: Vec<WorkloadSpec>,
        /// Notification periods in cycles.
        periods: Vec<u64>,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Ablation: flush vs drain vs tracking head to head.
    AblationStrategies {
        /// Benchmarks measured, with table labels.
        benchmarks: Vec<NamedWorkload>,
        /// Delivery strategies compared.
        strategies: Vec<DeliveryStrategy>,
        /// SW-timer period in cycles.
        period: u64,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Ablation: per-event interrupt cost vs speculation-window size.
    AblationWindow {
        /// The interrupted workload.
        workload: WorkloadSpec,
        /// Window scale factors applied to the baseline core config.
        scales: Vec<f64>,
        /// SW-timer period in cycles.
        period: u64,
        /// Simulation cycle budget per run.
        max_cycles: u64,
    },
    /// Worst-case-latency scenario band: mixed-criticality senders
    /// sharing a receiver with bulk interferer tenants on the DES
    /// model, calibrated against the cycle simulator's interference
    /// knobs and verdicted by the invariant checker's bounded-latency
    /// obligation. Honours [`Scenario::faults`] (interference bursts,
    /// drops, delays, duplicates).
    WorstCase {
        /// Interference kinds swept.
        kinds: Vec<InterferenceKind>,
        /// Interfering-tenant counts swept.
        interferer_counts: Vec<u32>,
        /// Criticality mixes swept.
        mixes: Vec<CriticalityMix>,
        /// Isolation arms swept (`false` = shared core, `true` =
        /// delivery pinned to a dedicated core).
        isolation: Vec<bool>,
        /// DES horizon in virtual ticks.
        duration: u64,
        /// High-vector deadline once deliverable, in virtual ticks.
        deadline: u64,
        /// Cycle budget of each calibration probe on the cycle sim.
        probe_max_cycles: u64,
    },
    /// Deterministic fault-injection + conformance scenario suite.
    FaultsSuite {
        /// Scenario names, run in order (see `experiments::faults`).
        scenarios: Vec<String>,
    },
    /// Differential schedule fuzzing against the reference oracle.
    /// The base seed comes from [`Scenario::base_seed`].
    OracleFuzz {
        /// Full-alphabet schedule count.
        full: u64,
        /// Sim-class (sends-only, also replayed through the cycle-level
        /// simulator) schedule count.
        sim: u64,
    },
}

impl Experiment {
    /// The backend family this experiment actually executes on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match self {
            Self::Fig2Timeline { .. }
            | Self::Fig4ReceiverOverhead { .. }
            | Self::Fig5Safepoints { .. }
            | Self::Table2UipiMetrics { .. }
            | Self::X1WorstCase { .. }
            | Self::X2FlushForensics { .. }
            | Self::X3SignalCosts { .. }
            | Self::X4PollingTax { .. }
            | Self::AblationPolling { .. }
            | Self::AblationStrategies { .. }
            | Self::AblationWindow { .. } => Backend::CycleSim,
            Self::Fig6TimerCore { .. }
            | Self::Fig7Rocksdb { .. }
            | Self::Fig8L3fwd { .. }
            | Self::Fig9Dsa { .. }
            | Self::MultiTenant { .. }
            | Self::AblationMultiworker { .. }
            | Self::WorstCase { .. }
            | Self::FaultsSuite { .. } => Backend::Des,
            Self::OracleFuzz { .. } => Backend::Oracle,
        }
    }

    /// Whether [`Scenario::faults`] applies to this experiment.
    #[must_use]
    pub fn supports_faults(&self) -> bool {
        matches!(
            self,
            Self::Fig7Rocksdb { .. } | Self::Fig8L3fwd { .. } | Self::WorstCase { .. }
        )
    }
}

/// One complete, named experiment description. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Registry key and `results/<name>.json` stem.
    pub name: String,
    /// Banner heading (e.g. `Figure 4`).
    pub heading: String,
    /// Banner title line.
    pub title: String,
    /// Paper reference printed under the banner.
    pub paper_ref: String,
    /// Declared backend family (checked against the experiment).
    pub backend: Backend,
    /// Declared hardware shape (checked against the experiment).
    pub topology: Topology,
    /// Base seed for seeded experiments (oracle fuzzing); `None` means
    /// the experiment's frozen default.
    pub base_seed: Option<u64>,
    /// Telemetry sinks this experiment can feed.
    pub telemetry: TelemetryCaps,
    /// Optional fault plan, injected into experiments that support it
    /// (Figure 7 and Figure 8).
    pub faults: Option<FaultPlan>,
    /// The experiment itself.
    pub experiment: Experiment,
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid scenario JSON: {e}"))
    }

    /// Renders the scenario as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Checks internal consistency: the declared backend matches the
    /// experiment family, the topology covers the experiment's sweep
    /// maxima, and optional features (faults, seeds) are only declared
    /// where the experiment honours them.
    pub fn validate(&self) -> Result<(), String> {
        let err = |msg: String| Err(format!("scenario `{}`: {msg}", self.name));
        if self.backend != self.experiment.backend() {
            return err(format!(
                "declared backend {:?} but the experiment runs on {:?}",
                self.backend,
                self.experiment.backend()
            ));
        }
        if self.faults.is_some() && !self.experiment.supports_faults() {
            return err("a fault plan is declared but this experiment ignores faults".into());
        }
        if self.base_seed.is_some() && !matches!(self.experiment, Experiment::OracleFuzz { .. }) {
            return err("a base seed is declared but this experiment is not seeded".into());
        }
        let t = self.topology;
        if t.app_cores == 0 {
            return err("topology needs at least one application core".into());
        }
        match &self.experiment {
            Experiment::Fig2Timeline { sender_countdown, receiver_countdown, .. } => {
                if t.app_cores < 2 {
                    return err("fig2 needs a sender core and a receiver core".into());
                }
                if receiver_countdown <= sender_countdown {
                    return err("the receiver must still be spinning when the send fires".into());
                }
            }
            Experiment::Table2UipiMetrics { .. } if t.app_cores < 2 => {
                return err("table2 needs a sender core and a receiver core".into());
            }
            Experiment::Fig4ReceiverOverhead { benchmarks, .. }
            | Experiment::Fig5Safepoints { benchmarks, .. }
            | Experiment::X4PollingTax { benchmarks, .. }
            | Experiment::AblationPolling { benchmarks, .. }
                if benchmarks.is_empty() =>
            {
                return err("the benchmark list is empty".into());
            }
            Experiment::AblationStrategies { benchmarks, strategies, .. }
                if benchmarks.is_empty() || strategies.is_empty() =>
            {
                return err("the benchmark and strategy lists must be non-empty".into());
            }
            Experiment::Fig6TimerCore { receiver_counts, .. } => {
                let max = receiver_counts.iter().copied().max().unwrap_or(0);
                if t.app_cores < max {
                    return err(format!(
                        "fig6 fans out to up to {max} receivers but the topology has \
                         {} application cores",
                        t.app_cores
                    ));
                }
            }
            Experiment::Fig7Rocksdb { mechanisms, .. } => {
                let needs_timer = mechanisms.contains(&PreemptMechanism::UipiSwTimer);
                if needs_timer && t.timer_cores == 0 {
                    return err("the UIPI SW-timer mechanism needs a dedicated timer core".into());
                }
            }
            Experiment::MultiTenant { tenant_counts, cores, mechanisms, arrival_batch, .. } => {
                if tenant_counts.is_empty() || mechanisms.is_empty() {
                    return err("the tenant-count and mechanism lists must be non-empty".into());
                }
                if *cores == 0 || t.app_cores < *cores {
                    return err(format!(
                        "the experiment schedules {cores} cores but the topology has \
                         {} application cores",
                        t.app_cores
                    ));
                }
                if *arrival_batch == 0 {
                    return err("the arrival batch must hold at least one arrival".into());
                }
                if mechanisms.contains(&PreemptMechanism::UipiSwTimer) && t.timer_cores == 0 {
                    return err("the UIPI SW-timer mechanism needs a dedicated timer core".into());
                }
            }
            Experiment::Fig8L3fwd { nic_counts, .. } => {
                let max = nic_counts.iter().copied().max().unwrap_or(0);
                if t.nic_rings < max {
                    return err(format!(
                        "fig8 drains up to {max} NICs but the topology has {} rings",
                        t.nic_rings
                    ));
                }
            }
            Experiment::AblationMultiworker { worker_counts, .. } => {
                let max = worker_counts.iter().copied().max().unwrap_or(0);
                if t.app_cores < max {
                    return err(format!(
                        "the sweep reaches {max} workers but the topology has {} cores",
                        t.app_cores
                    ));
                }
            }
            Experiment::WorstCase {
                kinds,
                interferer_counts,
                mixes,
                isolation,
                duration,
                deadline,
                probe_max_cycles,
            } => {
                if kinds.is_empty()
                    || interferer_counts.is_empty()
                    || mixes.is_empty()
                    || isolation.is_empty()
                {
                    return err("every worst-case sweep axis must be non-empty".into());
                }
                if *duration == 0 || *deadline == 0 || *probe_max_cycles == 0 {
                    return err("duration, deadline and probe budget must be positive".into());
                }
                if isolation.contains(&true) && t.app_cores < 2 {
                    return err(
                        "the isolation arm pins delivery to a dedicated core, so the \
                         topology needs at least two application cores"
                            .into(),
                    );
                }
            }
            Experiment::FaultsSuite { scenarios } => {
                for s in scenarios {
                    if !crate::experiments::faults::is_known(s) {
                        return err(format!("unknown fault scenario `{s}`"));
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Scenario {
        crate::registry::find("fig2_timeline").expect("preset exists")
    }

    #[test]
    fn backend_must_match_experiment() {
        let mut sc = fig2();
        sc.backend = Backend::Des;
        let err = sc.validate().unwrap_err();
        assert!(err.contains("backend"), "{err}");
    }

    #[test]
    fn faults_only_attach_to_faultable_experiments() {
        let mut sc = fig2();
        sc.faults = Some(FaultPlan::named("x").drop_every(2, 1));
        assert!(sc.validate().unwrap_err().contains("fault"));

        let mut fig7 = crate::registry::find("fig7_rocksdb").expect("preset exists");
        fig7.faults = Some(FaultPlan::named("x").drop_every(2, 1));
        fig7.validate().expect("fig7 accepts fault plans");
    }

    #[test]
    fn base_seed_only_attaches_to_the_fuzzer() {
        let mut sc = fig2();
        sc.base_seed = Some(42);
        assert!(sc.validate().unwrap_err().contains("seed"));

        let mut oracle = crate::registry::find("oracle_fuzz").expect("preset exists");
        oracle.base_seed = Some(42);
        oracle.validate().expect("the fuzzer accepts a base seed");
    }

    #[test]
    fn topology_bounds_are_checked() {
        let mut sc = fig2();
        sc.topology = Topology::cores(1);
        assert!(sc.validate().unwrap_err().contains("receiver core"));

        let mut fig6 = crate::registry::find("fig6_timer_core").expect("preset exists");
        fig6.topology = Topology::cores(4).timers(1);
        assert!(fig6.validate().unwrap_err().contains("receivers"));

        let mut fig8 = crate::registry::find("fig8_l3fwd").expect("preset exists");
        fig8.topology = Topology::cores(1).nics(2);
        assert!(fig8.validate().unwrap_err().contains("NICs"));
    }

    #[test]
    fn fig2_receiver_must_outlast_sender() {
        let mut sc = fig2();
        let Experiment::Fig2Timeline { sender_countdown, receiver_countdown, .. } =
            &mut sc.experiment
        else {
            panic!("wrong experiment")
        };
        (*sender_countdown, *receiver_countdown) = (1_000, 500);
        assert!(sc.validate().unwrap_err().contains("spinning"));
    }

    #[test]
    fn unknown_fault_scenario_names_are_rejected() {
        let mut sc = crate::registry::find("faults_scenarios").expect("preset exists");
        let Experiment::FaultsSuite { scenarios } = &mut sc.experiment else {
            panic!("wrong experiment")
        };
        scenarios.push("not_a_scenario".to_string());
        assert!(sc.validate().unwrap_err().contains("not_a_scenario"));
    }

    #[test]
    fn malformed_json_is_a_readable_error() {
        let err = Scenario::from_json("{\"name\": 3}").unwrap_err();
        assert!(err.contains("invalid scenario JSON"), "{err}");
    }
}
