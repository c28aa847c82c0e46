//! The serializable scenario specification.
//!
//! A [`Scenario`] is the complete, declarative description of one
//! experiment: its banner text, what workload and sweep parameters it
//! measures ([`Experiment`], one payload struct per experiment), an
//! optional [`FaultPlan`] to inject, and an optional base seed. The
//! execution backend and the telemetry sinks an experiment can feed
//! follow from its variant ([`Experiment::backend`],
//! [`Experiment::supports_trace`], [`Experiment::supports_metrics`]), so
//! a scenario file cannot claim what its experiment does not do. Every
//! named preset in [`crate::registry`] is one of these values, and the
//! same struct round-trips through JSON so a scenario can live in a file
//! instead of a recompiled binary (`xui run path/to/scenario.json`).

use serde::{Deserialize, Serialize};

use xui_accel::RequestKind;
use xui_faults::FaultPlan;
use xui_kernel::PreemptMechanism;
use xui_net::IoMode;
use xui_runtime::worstcase::{CriticalityMix, InterferenceKind};
use xui_sim::config::DeliveryStrategy;
use xui_workloads::programs::WorkloadSpec;

/// Which execution engine family an experiment runs on, as reported by
/// `xui list` and `GET /api/scenarios`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// table / extension, each carrying its payload struct of sweep axes and
/// constants as data. The runner hands each payload to its experiment
/// module; the `xui` CLI and the `xui serve` control plane both go
/// through exactly this type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Experiment {
    /// Figure 2: one traced send, reconstructed step by step.
    Fig2Timeline(Fig2Timeline),
    /// Figure 4: receiver-side overhead of periodic interrupts under
    /// UIPI flush, xUI tracking, and xUI KB_Timer + tracking.
    Fig4ReceiverOverhead(Fig4ReceiverOverhead),
    /// Figure 5: preemption overhead of hardware safepoints vs UIPI vs
    /// Concord-style compiler polling, across preemption quanta.
    Fig5Safepoints(Fig5Safepoints),
    /// Figure 6: CPU cost of a dedicated timer core vs per-core
    /// KB_Timers, across intervals and receiver counts.
    Fig6TimerCore(Fig6TimerCore),
    /// Figure 7: RocksDB-on-Aspen tail latency vs offered load, per
    /// preemption mechanism. Honours [`Scenario::faults`].
    Fig7Rocksdb(Fig7Rocksdb),
    /// Figure 8: l3fwd cycle accounting and p95 latency, polling vs xUI
    /// device interrupts. Honours [`Scenario::faults`].
    Fig8L3fwd(Fig8L3fwd),
    /// Figure 9: DSA completion delivery — free cycles and notification
    /// latency vs response-time noise.
    Fig9Dsa(Fig9Dsa),
    /// Table 2: per-instruction UIPI costs measured on the cycle-level
    /// simulator (SENDUIPI, CLUI, STUI, receiver cost, end-to-end).
    Table2UipiMetrics(Table2UipiMetrics),
    /// §6.1 worst case: maximum tracked-interrupt latency under an
    /// SP-dependent load chain.
    X1WorstCase(X1WorstCase),
    /// §3.5 forensics: flush-strategy detection via latency flatness and
    /// linear squash growth.
    X2FlushForensics(X2FlushForensics),
    /// §2/§4.1 costs: per-signal overhead and the clui/stui
    /// critical-section tax.
    X3SignalCosts(X3SignalCosts),
    /// §2 polling tax: standing cost of preemption checks with zero
    /// preemptions, plus the tight-loop worst case.
    X4PollingTax(X4PollingTax),
    /// Multi-tenant capacity: N tenant runtimes multiplexed onto shared
    /// cores via the per-core KB_Timer (§4.3), each driven by the
    /// batch-drawn open-loop stream of a modeled client population.
    MultiTenant(MultiTenant),
    /// Ablation: Aspen-like runtime scaling across workers with work
    /// stealing.
    AblationMultiworker(AblationMultiworker),
    /// Ablation: shared-memory polling vs tracked interrupts, per event.
    AblationPolling(AblationPolling),
    /// Ablation: flush vs drain vs tracking head to head.
    AblationStrategies(AblationStrategies),
    /// Ablation: per-event interrupt cost vs speculation-window size.
    AblationWindow(AblationWindow),
    /// Worst-case-latency scenario band: mixed-criticality senders
    /// sharing a receiver with bulk interferer tenants on the DES
    /// model, calibrated against the cycle simulator's interference
    /// knobs and verdicted by the invariant checker's bounded-latency
    /// obligation. Honours [`Scenario::faults`] (interference bursts,
    /// drops, delays, duplicates).
    WorstCase(WorstCase),
    /// Deterministic fault-injection + conformance scenario suite.
    FaultsSuite(FaultsSuite),
    /// Differential schedule fuzzing against the reference oracle.
    /// The base seed comes from [`Scenario::base_seed`].
    OracleFuzz(OracleFuzz),
}

/// Parameters of [`Experiment::Fig2Timeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Timeline {
    /// Sender spin iterations before the `SENDUIPI`.
    pub sender_countdown: u64,
    /// Receiver spin iterations (must outlast the sender).
    pub receiver_countdown: u64,
    /// Simulation cycle budget.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::Fig4ReceiverOverhead`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4ReceiverOverhead {
    /// Benchmarks interrupted (paper: fib, linpack, memops).
    pub benchmarks: Vec<WorkloadSpec>,
    /// Interrupt period in cycles (paper: 5 µs = 10,000).
    pub period: u64,
    /// SW-timer send latency in cycles.
    pub send_latency: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::Fig5Safepoints`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Safepoints {
    /// Benchmarks (paper: matmul, base64, with handler work modelling
    /// the user-level context switch).
    pub benchmarks: Vec<WorkloadSpec>,
    /// Preemption quanta in microseconds.
    pub quanta_us: Vec<f64>,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::Fig6TimerCore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6TimerCore {
    /// Timer intervals in microseconds.
    pub intervals_us: Vec<f64>,
    /// Receiver counts fanned out to per tick.
    pub receiver_counts: Vec<usize>,
    /// Timer ticks simulated per point.
    pub ticks: u64,
}

/// Parameters of [`Experiment::Fig7Rocksdb`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Rocksdb {
    /// Offered loads in thousands of requests per second.
    pub loads_krps: Vec<f64>,
    /// Preemption mechanisms compared.
    pub mechanisms: Vec<PreemptMechanism>,
    /// GET p99.9 service-level objective in microseconds.
    pub slo_us: f64,
}

/// Parameters of [`Experiment::Fig8L3fwd`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8L3fwd {
    /// Offered load fractions (0.0–1.0).
    pub loads: Vec<f64>,
    /// NIC counts.
    pub nic_counts: Vec<usize>,
    /// I/O modes compared.
    pub modes: Vec<IoMode>,
}

/// Parameters of [`Experiment::Fig9Dsa`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Dsa {
    /// Request kinds (paper: 2 µs and 20 µs mean response).
    pub kinds: Vec<RequestKind>,
    /// Noise levels as a percentage of the mean response time.
    pub noise_levels_pct: Vec<u64>,
    /// Completion-delivery modes compared.
    pub modes: Vec<DsaMode>,
}

/// Parameters of [`Experiment::Table2UipiMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2UipiMetrics {
    /// Iterations of the SENDUIPI cost loop.
    pub send_iters: u64,
    /// Iterations of the CLUI/STUI cost loops.
    pub uif_iters: u64,
}

/// Parameters of [`Experiment::X1WorstCase`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct X1WorstCase {
    /// Chain lengths swept.
    pub chain_lens: Vec<usize>,
    /// Pointer-ring size in cache lines.
    pub nodes: usize,
    /// Loop iterations per run.
    pub iters: u64,
    /// Forwarded-device interrupt period in cycles.
    pub device_period: u64,
    /// The typical benchmark for the anomaly check.
    pub typical: WorkloadSpec,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::X2FlushForensics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct X2FlushForensics {
    /// Pointer-chase working sets for the latency part.
    pub chase_nodes: Vec<usize>,
    /// Chase iterations for the latency part.
    pub chase_iters: u64,
    /// SW-timer period for the latency part, in cycles.
    pub timer_period: u64,
    /// Workload for the squash-scaling part.
    pub squash_workload: WorkloadSpec,
    /// SW-timer periods for the squash-scaling part.
    pub squash_periods: Vec<u64>,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::X3SignalCosts`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct X3SignalCosts {
    /// Signals delivered through the kernel model.
    pub signals: u64,
    /// Cycles between signal deliveries.
    pub signal_spacing: u64,
    /// Critical-section loop iterations.
    pub cs_iters: u64,
    /// Dependent instructions per critical section.
    pub cs_body_len: usize,
}

/// Parameters of [`Experiment::X4PollingTax`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct X4PollingTax {
    /// The benchmark suite (instrumented vs plain).
    pub benchmarks: Vec<WorkloadSpec>,
    /// Iterations of the width-saturating tight loop.
    pub tight_iters: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::MultiTenant`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenant {
    /// Tenant counts swept (tenants are round-robined over cores).
    pub tenant_counts: Vec<usize>,
    /// Shared application cores.
    pub cores: usize,
    /// Modeled clients per tenant.
    pub clients_per_tenant: u64,
    /// Per-client request rate in requests/second.
    pub rps_per_client: f64,
    /// Preemption mechanisms compared.
    pub mechanisms: Vec<PreemptMechanism>,
    /// Preemption quantum in cycles.
    pub quantum: u64,
    /// Simulated duration in cycles.
    pub duration: u64,
    /// Arrivals pre-drawn per batch event.
    pub arrival_batch: usize,
}

/// Parameters of [`Experiment::AblationMultiworker`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationMultiworker {
    /// Offered load per worker, krps.
    pub per_worker_krps: f64,
    /// Worker counts swept.
    pub worker_counts: Vec<usize>,
    /// Simulated duration in cycles.
    pub duration: u64,
}

/// Parameters of [`Experiment::AblationPolling`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPolling {
    /// Benchmarks measured.
    pub benchmarks: Vec<WorkloadSpec>,
    /// Notification periods in cycles.
    pub periods: Vec<u64>,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::AblationStrategies`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationStrategies {
    /// Benchmarks measured, with table labels.
    pub benchmarks: Vec<NamedWorkload>,
    /// Delivery strategies compared.
    pub strategies: Vec<DeliveryStrategy>,
    /// SW-timer period in cycles.
    pub period: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::AblationWindow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationWindow {
    /// The interrupted workload.
    pub workload: WorkloadSpec,
    /// Window scale factors applied to the baseline core config.
    pub scales: Vec<f64>,
    /// SW-timer period in cycles.
    pub period: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

/// Parameters of [`Experiment::WorstCase`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstCase {
    /// Interference kinds swept.
    pub kinds: Vec<InterferenceKind>,
    /// Interfering-tenant counts swept.
    pub interferer_counts: Vec<u32>,
    /// Criticality mixes swept.
    pub mixes: Vec<CriticalityMix>,
    /// Isolation arms swept (`false` = shared core, `true` = delivery
    /// pinned to a dedicated core).
    pub isolation: Vec<bool>,
    /// DES horizon in virtual ticks.
    pub duration: u64,
    /// High-vector deadline once deliverable, in virtual ticks.
    pub deadline: u64,
    /// Cycle budget of each calibration probe on the cycle sim.
    pub probe_max_cycles: u64,
}

/// Parameters of [`Experiment::FaultsSuite`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultsSuite {
    /// Scenario names, run in order (see `experiments::faults`).
    pub scenarios: Vec<String>,
}

/// Parameters of [`Experiment::OracleFuzz`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleFuzz {
    /// Full-alphabet schedule count.
    pub full: u64,
    /// Sim-class (sends-only, also replayed through the cycle-level
    /// simulator) schedule count.
    pub sim: u64,
}

impl Experiment {
    /// The backend family this experiment actually executes on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        match self {
            Self::Fig2Timeline(_)
            | Self::Fig4ReceiverOverhead(_)
            | Self::Fig5Safepoints(_)
            | Self::Table2UipiMetrics(_)
            | Self::X1WorstCase(_)
            | Self::X2FlushForensics(_)
            | Self::X3SignalCosts(_)
            | Self::X4PollingTax(_)
            | Self::AblationPolling(_)
            | Self::AblationStrategies(_)
            | Self::AblationWindow(_) => Backend::CycleSim,
            Self::Fig6TimerCore(_)
            | Self::Fig7Rocksdb(_)
            | Self::Fig8L3fwd(_)
            | Self::Fig9Dsa(_)
            | Self::MultiTenant(_)
            | Self::AblationMultiworker(_)
            | Self::WorstCase(_)
            | Self::FaultsSuite(_) => Backend::Des,
            Self::OracleFuzz(_) => Backend::Oracle,
        }
    }

    /// Whether [`Scenario::faults`] applies to this experiment.
    #[must_use]
    pub fn supports_faults(&self) -> bool {
        matches!(self, Self::Fig7Rocksdb(_) | Self::Fig8L3fwd(_) | Self::WorstCase(_))
    }

    /// Whether the experiment exports a Chrome trace for `--trace PATH`.
    #[must_use]
    pub fn supports_trace(&self) -> bool {
        matches!(self, Self::Fig2Timeline(_) | Self::Fig6TimerCore(_))
    }

    /// Whether the experiment saves a metrics snapshot for `--metrics`.
    #[must_use]
    pub fn supports_metrics(&self) -> bool {
        matches!(self, Self::Fig2Timeline(_) | Self::MultiTenant(_))
    }

    /// Checks the payload on its own: lists that must be non-empty,
    /// counts that must be positive, floats that must be finite.
    fn validate(&self) -> Result<(), String> {
        match self {
            Self::Fig2Timeline(p) if p.receiver_countdown <= p.sender_countdown => {
                Err("the receiver must still be spinning when the send fires".into())
            }
            Self::Fig4ReceiverOverhead(Fig4ReceiverOverhead { benchmarks, .. })
            | Self::Fig5Safepoints(Fig5Safepoints { benchmarks, .. })
            | Self::X4PollingTax(X4PollingTax { benchmarks, .. })
            | Self::AblationPolling(AblationPolling { benchmarks, .. })
                if benchmarks.is_empty() =>
            {
                Err("the benchmark list is empty".into())
            }
            Self::Fig5Safepoints(p) => all_finite("quanta_us", &p.quanta_us),
            Self::Fig6TimerCore(p) => all_finite("intervals_us", &p.intervals_us),
            Self::Fig7Rocksdb(p) => {
                all_finite("loads_krps", &p.loads_krps)?;
                finite("slo_us", p.slo_us)
            }
            Self::Fig8L3fwd(p) => all_finite("loads", &p.loads),
            Self::AblationStrategies(p) if p.benchmarks.is_empty() || p.strategies.is_empty() => {
                Err("the benchmark and strategy lists must be non-empty".into())
            }
            Self::AblationWindow(p) => all_finite("scales", &p.scales),
            Self::AblationMultiworker(p) => finite("per_worker_krps", p.per_worker_krps),
            Self::MultiTenant(p) => {
                if p.tenant_counts.is_empty() || p.mechanisms.is_empty() {
                    return Err("the tenant-count and mechanism lists must be non-empty".into());
                }
                if p.cores == 0 {
                    return Err("the experiment needs at least one core".into());
                }
                if p.arrival_batch == 0 {
                    return Err("the arrival batch must hold at least one arrival".into());
                }
                finite("rps_per_client", p.rps_per_client)
            }
            Self::WorstCase(p) => {
                if p.kinds.is_empty()
                    || p.interferer_counts.is_empty()
                    || p.mixes.is_empty()
                    || p.isolation.is_empty()
                {
                    return Err("every worst-case sweep axis must be non-empty".into());
                }
                if p.duration == 0 || p.deadline == 0 || p.probe_max_cycles == 0 {
                    return Err("duration, deadline and probe budget must be positive".into());
                }
                Ok(())
            }
            Self::FaultsSuite(p) => match p
                .scenarios
                .iter()
                .find(|s| !crate::experiments::faults::is_known(s))
            {
                Some(s) => Err(format!("unknown fault scenario `{s}`")),
                None => Ok(()),
            },
            _ => Ok(()),
        }
    }
}

/// Rejects NaN and ±inf in the float field `field`. A key missing from a
/// scenario file reads as NaN, so this is also what names it.
fn finite(field: &str, v: f64) -> Result<(), String> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(format!("`{field}` must be a finite number, got {v}"))
    }
}

/// [`finite`] for every element of a float list, naming the index.
fn all_finite(field: &str, vs: &[f64]) -> Result<(), String> {
    match vs.iter().position(|v| !v.is_finite()) {
        Some(i) => finite(&format!("{field}[{i}]"), vs[i]),
        None => Ok(()),
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
    /// Base seed for seeded experiments (oracle fuzzing); `None` means
    /// the experiment's frozen default.
    pub base_seed: Option<u64>,
    /// Optional fault plan, injected into experiments that support it
    /// (Figure 7, Figure 8 and the worst-case band).
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

    /// Checks internal consistency: optional features (faults, seeds)
    /// are only declared where the experiment honours them, and the
    /// experiment's payload is well formed.
    pub fn validate(&self) -> Result<(), String> {
        let checked = if self.faults.is_some() && !self.experiment.supports_faults() {
            Err("a fault plan is declared but this experiment ignores faults".into())
        } else if self.base_seed.is_some() && !matches!(self.experiment, Experiment::OracleFuzz(_))
        {
            Err("a base seed is declared but this experiment is not seeded".into())
        } else {
            self.experiment.validate()
        };
        checked.map_err(|msg| format!("scenario `{}`: {msg}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Scenario {
        crate::registry::find("fig2_timeline").expect("preset exists")
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
    fn fig2_receiver_must_outlast_sender() {
        let mut sc = fig2();
        let Experiment::Fig2Timeline(p) = &mut sc.experiment else { panic!("wrong experiment") };
        (p.sender_countdown, p.receiver_countdown) = (1_000, 500);
        assert!(sc.validate().unwrap_err().contains("spinning"));
    }

    #[test]
    fn unknown_fault_scenario_names_are_rejected() {
        let mut sc = crate::registry::find("faults_scenarios").expect("preset exists");
        let Experiment::FaultsSuite(p) = &mut sc.experiment else { panic!("wrong experiment") };
        p.scenarios.push("not_a_scenario".to_string());
        assert!(sc.validate().unwrap_err().contains("not_a_scenario"));
    }

    /// Every `f64` field and float-list element rejects NaN and ±inf by
    /// name; a missing float key deserializes to NaN, so this is what
    /// turns a dropped `slo_us` into an error instead of a NaN run.
    #[test]
    fn non_finite_floats_are_rejected_by_name() {
        type Poke = fn(&mut Experiment, f64);
        let cases: [(&str, &str, Poke); 8] = [
            ("fig7_rocksdb", "`slo_us`", |e, v| {
                let Experiment::Fig7Rocksdb(p) = e else { unreachable!() };
                p.slo_us = v;
            }),
            ("fig7_rocksdb", "`loads_krps[2]`", |e, v| {
                let Experiment::Fig7Rocksdb(p) = e else { unreachable!() };
                p.loads_krps[2] = v;
            }),
            ("mt_tenants", "`rps_per_client`", |e, v| {
                let Experiment::MultiTenant(p) = e else { unreachable!() };
                p.rps_per_client = v;
            }),
            ("ablation_multiworker", "`per_worker_krps`", |e, v| {
                let Experiment::AblationMultiworker(p) = e else { unreachable!() };
                p.per_worker_krps = v;
            }),
            ("fig5_safepoints", "`quanta_us[0]`", |e, v| {
                let Experiment::Fig5Safepoints(p) = e else { unreachable!() };
                p.quanta_us[0] = v;
            }),
            ("fig6_timer_core", "`intervals_us[1]`", |e, v| {
                let Experiment::Fig6TimerCore(p) = e else { unreachable!() };
                p.intervals_us[1] = v;
            }),
            ("fig8_l3fwd", "`loads[3]`", |e, v| {
                let Experiment::Fig8L3fwd(p) = e else { unreachable!() };
                p.loads[3] = v;
            }),
            ("ablation_window", "`scales[0]`", |e, v| {
                let Experiment::AblationWindow(p) = e else { unreachable!() };
                p.scales[0] = v;
            }),
        ];
        for (preset, field, poke) in cases {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut sc = crate::registry::find(preset).expect("preset exists");
                poke(&mut sc.experiment, bad);
                let err = sc.validate().expect_err("non-finite float accepted");
                assert!(err.contains(field), "{preset} {bad}: {err}");
            }
        }
    }

    #[test]
    fn malformed_json_is_a_readable_error() {
        let err = Scenario::from_json("{\"name\": 3}").unwrap_err();
        assert!(err.contains("invalid scenario JSON"), "{err}");
    }
}
