//! The registry of named scenarios: one preset per paper figure, table,
//! extension experiment, ablation, and harness suite. Preset names match
//! their `results/<name>.json` artifacts (and the former per-experiment
//! binary names), so `xui run fig6_timer_core` reproduces exactly what
//! `fig6_timer_core` produced.

use xui_accel::RequestKind;
use xui_faults::FaultPlan;
use xui_kernel::PreemptMechanism;
use xui_net::IoMode;
use xui_runtime::worstcase::{CriticalityMix, InterferenceKind};
use xui_sim::config::DeliveryStrategy;
use xui_workloads::programs::WorkloadSpec;

use crate::spec::{
    AblationMultiworker, AblationPolling, AblationStrategies, AblationWindow, DsaMode, Experiment,
    FaultsSuite, Fig2Timeline, Fig4ReceiverOverhead, Fig5Safepoints, Fig6TimerCore, Fig7Rocksdb,
    Fig8L3fwd, Fig9Dsa, MultiTenant, NamedWorkload, OracleFuzz, Scenario, Table2UipiMetrics,
    WorstCase, X1WorstCase, X2FlushForensics, X3SignalCosts, X4PollingTax,
};

fn scenario(
    name: &str,
    heading: &str,
    title: &str,
    paper_ref: &str,
    experiment: Experiment,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        heading: heading.to_string(),
        title: title.to_string(),
        paper_ref: paper_ref.to_string(),
        base_seed: None,
        faults: None,
        experiment,
    }
}

/// Every named scenario, in registry order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn all() -> Vec<Scenario> {
    vec![
        scenario(
            "fig2_timeline",
            "Figure 2",
            "UIPI latency timeline (one traced send)",
            "§3.4 Fig 2: senduipi at 0; receiver interrupted at 380; \
             flush+refill 424; notification+delivery 262; uiret 10",
            Experiment::Fig2Timeline(Fig2Timeline {
                sender_countdown: 3_000,
                receiver_countdown: 500_000,
                max_cycles: 10_000_000,
            }),
        ),
        scenario(
            "fig4_receiver_overhead",
            "Figure 4",
            "Reducing receiver overheads (5 µs interrupt interval)",
            "§6.1: per-event 645 (UIPI) → 231 (tracking) → 105 (KB_Timer+tracking); \
             total overhead 6.86% → 1.06% (6.9×)",
            Experiment::Fig4ReceiverOverhead(Fig4ReceiverOverhead {
                benchmarks: vec![
                    WorkloadSpec::Fib { iters: 150_000 },
                    WorkloadSpec::Linpack { iters: 80_000 },
                    WorkloadSpec::Memops { iters: 80_000 },
                ],
                period: 10_000,
                send_latency: 380,
                max_cycles: 4_000_000_000,
            }),
        ),
        scenario(
            "fig5_safepoints",
            "Figure 5",
            "Preemption with hardware safepoints vs UIPI vs compiler polling",
            "§6.1: at 5 µs, safepoints 1.2–1.5%, polling 8.5–11% (up to 10× \
             more than xUI); UIPI in between",
            Experiment::Fig5Safepoints(Fig5Safepoints {
                benchmarks: vec![
                    WorkloadSpec::Matmul { iters: 150_000, handler_work: 50 },
                    WorkloadSpec::Base64 { iters: 60_000, handler_work: 50 },
                ],
                quanta_us: vec![5.0, 10.0, 20.0, 50.0, 100.0],
                max_cycles: 6_000_000_000,
            }),
        ),
        scenario(
            "fig6_timer_core",
            "Figure 6",
            "The cost of a timer core: CPU use vs receiver count and frequency",
            "§6.1: OS costs dominate at fine grain; senduipi fan-out grows with \
             receivers; rdtsc-spin supports 22 receivers @5 µs; xUI needs no \
             timer core at all",
            Experiment::Fig6TimerCore(Fig6TimerCore {
                intervals_us: vec![5.0, 25.0, 100.0, 1000.0],
                receiver_counts: vec![0, 2, 4, 8, 12, 16, 20, 22, 24],
                ticks: 40_000,
            }),
        ),
        scenario(
            "fig7_rocksdb",
            "Figure 7",
            "RocksDB GET/SCAN tail latency vs offered load (5 µs quantum)",
            "§6.2.1: preemption bounds GET tails; xUI ≈ +10% GET throughput \
             over UIPI at the SLO, plus one core saved (the UIPI time source)",
            Experiment::Fig7Rocksdb(Fig7Rocksdb {
                loads_krps: vec![
                    25.0, 50.0, 100.0, 150.0, 200.0, 230.0, 240.0, 250.0, 255.0, 260.0,
                    265.0, 270.0, 275.0,
                ],
                mechanisms: vec![
                    PreemptMechanism::None,
                    PreemptMechanism::Signal,
                    PreemptMechanism::UipiSwTimer,
                    PreemptMechanism::XuiKbTimer,
                ],
                slo_us: 1_000.0,
            }),
        ),
        scenario(
            "fig8_l3fwd",
            "Figure 8",
            "l3fwd: free cycles & p95 latency, polling vs xUI device interrupts",
            "§6.2.2: throughput parity (−0.08%); at 40% load, 1 queue, xUI \
             leaves 45% free; p95 within +2% / −8% / +65% for 1/4/8 NICs",
            Experiment::Fig8L3fwd(Fig8L3fwd {
                loads: vec![0.0, 0.1, 0.2, 0.4, 0.6, 0.8],
                nic_counts: vec![1, 2, 4, 8],
                modes: vec![IoMode::Polling, IoMode::XuiInterrupt],
            }),
        ),
        scenario(
            "fig9_dsa",
            "Figure 9",
            "DSA response delivery: free cycles & latency vs noise",
            "§6.2.3: spinning = min latency, 0 free; periodic polling frees \
             cycles but latency blows up for noisy 20 µs requests; xUI within \
             0.2 µs of spinning with ~75% free cycles @2 µs",
            Experiment::Fig9Dsa(Fig9Dsa {
                kinds: vec![RequestKind::Short, RequestKind::Long],
                noise_levels_pct: vec![0, 25, 50, 75],
                modes: vec![DsaMode::BusySpin, DsaMode::PeriodicPoll, DsaMode::XuiInterrupt],
            }),
        ),
        scenario(
            "table2_uipi_metrics",
            "Table 2",
            "Key performance metrics of UIPIs (simulated)",
            "§3.4 Table 2, hardware = Intel Xeon Gold 5420+ @ 2 GHz",
            Experiment::Table2UipiMetrics(Table2UipiMetrics {
                send_iters: 2_000,
                uif_iters: 10_000,
            }),
        ),
        scenario(
            "x1_worst_case",
            "§6.1 worst case",
            "Maximum tracked-interrupt latency under an SP-dependent load chain",
            "paper: ≈7000 cycles worst case with ≥50-load chains; flushing an \
             order of magnitude less; typical benchmarks show the opposite \
             (tracking faster)",
            Experiment::X1WorstCase(X1WorstCase {
                chain_lens: vec![1, 10, 25, 50, 75],
                nodes: 16_384,
                iters: 4_000,
                device_period: 25_000,
                typical: WorkloadSpec::Fib { iters: 120_000 },
                max_cycles: 8_000_000_000,
            }),
        ),
        scenario(
            "x2_flush_forensics",
            "§3.5 forensics",
            "Flush-strategy detection: latency vs in-flight work; flushed µops vs IRQs",
            "paper: no latency variation with chase size ⇒ flush; flushed µops \
             increase exactly linearly with interrupts received",
            Experiment::X2FlushForensics(X2FlushForensics {
                chase_nodes: vec![64, 512, 4_096, 16_384],
                chase_iters: 30_000,
                timer_period: 50_000,
                squash_workload: WorkloadSpec::PointerChase { nodes: 4_096, iters: 60_000 },
                squash_periods: vec![200_000, 100_000, 50_000, 25_000],
                max_cycles: 8_000_000_000,
            }),
        ),
        scenario(
            "x3_signal_costs",
            "§2/§4.1 costs",
            "Signal overhead and the clui/stui critical-section tax",
            "paper: ≈2.4 µs per signal (1.4 µs kernel path); clui/stui around \
             malloc() cost RocksDB 7% throughput",
            Experiment::X3SignalCosts(X3SignalCosts {
                signals: 1_000,
                signal_spacing: 20_000,
                cs_iters: 20_000,
                cs_body_len: 480,
            }),
        ),
        scenario(
            "x4_polling_tax",
            "§2 polling tax",
            "Standing cost of preemption checks with zero preemptions",
            "paper: Wasmtime up to ~50% on tight loops; Go ~7% geomean, 96% \
             worst case; safepoint markers ≈ free",
            Experiment::X4PollingTax(X4PollingTax {
                benchmarks: vec![
                    WorkloadSpec::Fib { iters: 100_000 },
                    WorkloadSpec::Linpack { iters: 60_000 },
                    WorkloadSpec::Memops { iters: 60_000 },
                    WorkloadSpec::Matmul { iters: 60_000, handler_work: 0 },
                    WorkloadSpec::Base64 { iters: 40_000, handler_work: 0 },
                ],
                tight_iters: 300_000,
                max_cycles: 6_000_000_000,
            }),
        ),
        scenario(
            "mt_tenants",
            "Multi-tenant capacity",
            "N tenant runtimes on 8 shared cores, one KB_Timer per core (§4.3)",
            "extension of §6.2.1: the kernel multiplexes each core's KB_Timer \
             across tenants, so tenancy adds no timer hardware; UIPI still \
             burns its dedicated software-timer core",
            Experiment::MultiTenant(MultiTenant {
                tenant_counts: vec![4, 8, 16, 32],
                cores: 8,
                clients_per_tenant: 25_000,
                rps_per_client: 2.0,
                mechanisms: vec![PreemptMechanism::UipiSwTimer, PreemptMechanism::XuiKbTimer],
                quantum: 10_000,
                duration: 100_000_000,
                arrival_batch: 1_024,
            }),
        ),
        scenario(
            "mt_million_clients",
            "Million clients",
            "1 M open-loop clients across 8 tenants, batch-drawn arrivals",
            "extension of §6.2.1 at datacenter scale: the aggregate stream of \
             125 k clients per tenant costs one Poisson process and one engine \
             event per 1024 arrivals, not one per packet",
            Experiment::MultiTenant(MultiTenant {
                tenant_counts: vec![8],
                cores: 8,
                clients_per_tenant: 125_000,
                rps_per_client: 1.5,
                mechanisms: vec![PreemptMechanism::UipiSwTimer, PreemptMechanism::XuiKbTimer],
                quantum: 10_000,
                duration: 100_000_000,
                arrival_batch: 1_024,
            }),
        ),
        scenario(
            "ablation_multiworker",
            "Ablation: multi-worker scaling",
            "xUI-preempted RocksDB across 1–4 workers with work stealing",
            "extension of Fig 7 (§5.3): per-worker load held at ~80% of the \
             single-worker SLO capacity",
            Experiment::AblationMultiworker(AblationMultiworker {
                per_worker_krps: 200.0,
                worker_counts: vec![1, 2, 3, 4],
                duration: 200_000_000,
            }),
        ),
        scenario(
            "ablation_polling_vs_tracked",
            "Ablation: polling vs tracked",
            "Per-notification cost and standing tax of shared-memory polling vs xUI",
            "§4.2: a positive poll ≈ invalidation miss + branch mispredict; \
             tracking with no UPID access ≈ 105 cycles with zero standing tax",
            Experiment::AblationPolling(AblationPolling {
                benchmarks: vec![
                    WorkloadSpec::Fib { iters: 100_000 },
                    WorkloadSpec::Matmul { iters: 100_000, handler_work: 0 },
                    WorkloadSpec::Base64 { iters: 40_000, handler_work: 0 },
                ],
                periods: vec![10_000, 50_000],
                max_cycles: 6_000_000_000,
            }),
        ),
        scenario(
            "ablation_strategies",
            "Ablation: delivery strategies",
            "Flush vs drain vs tracking on cost, latency and wasted work",
            "§3.5/§4.2: flush wastes work; drain delays delivery (latency grows \
             with in-flight misses); tracking avoids both",
            Experiment::AblationStrategies(AblationStrategies {
                benchmarks: vec![
                    NamedWorkload::plain(WorkloadSpec::Fib { iters: 100_000 }),
                    NamedWorkload::plain(WorkloadSpec::Linpack { iters: 60_000 }),
                    NamedWorkload::plain(WorkloadSpec::Memops { iters: 60_000 }),
                    NamedWorkload::labelled(
                        "chase-16k",
                        WorkloadSpec::PointerChase { nodes: 16_384, iters: 30_000 },
                    ),
                ],
                strategies: vec![
                    DeliveryStrategy::Flush,
                    DeliveryStrategy::Drain,
                    DeliveryStrategy::Tracked,
                ],
                period: 10_000,
                max_cycles: 6_000_000_000,
            }),
        ),
        scenario(
            "ablation_window",
            "Ablation: speculation window",
            "Per-event interrupt cost vs ROB size (flush grows, tracking flat)",
            "§2: 'this will become more expensive' as in-flight instructions \
             increase; §4.2: tracking throws nothing away",
            Experiment::AblationWindow(AblationWindow {
                workload: WorkloadSpec::Memops { iters: 80_000 },
                scales: vec![0.5, 1.0, 2.0, 4.0],
                period: 10_000,
                max_cycles: 4_000_000_000,
            }),
        ),
        wc_scenario(
            "wc_interference",
            "Worst case: interference",
            "High-vector latency under cache/pipeline/membw interference, 2 vs 8 \
             interferers, shared vs pinned delivery",
            "ROADMAP worst-case band: exact max, jitter CDFs, and inversion \
             counts under co-located bulk tenants; bounded-latency obligation \
             on vector 63",
            Experiment::WorstCase(WorstCase {
                kinds: vec![
                    InterferenceKind::None,
                    InterferenceKind::Cache,
                    InterferenceKind::Pipeline,
                    InterferenceKind::MemBw,
                ],
                interferer_counts: vec![2, 8],
                mixes: vec![CriticalityMix::standard()],
                isolation: vec![false, true],
                duration: 240_000,
                deadline: 10_000,
                probe_max_cycles: 2_000_000,
            }),
            FaultPlan::named("wc-interference-bursts")
                .seed(17)
                .interference_burst(40_000, 80_000, 40)
                .interference_burst(120_000, 160_000, 60),
        ),
        wc_scenario(
            "wc_mixed_criticality",
            "Worst case: criticality mix",
            "Priority inversion of the non-preemptive delivery window as the \
             low-vector flood grows",
            "highest-vector-first delivery (§3.3): a pending high vector is \
             only delayed by one in-flight low delivery, never by queue depth",
            Experiment::WorstCase(WorstCase {
                kinds: vec![InterferenceKind::Cache],
                interferer_counts: vec![4],
                mixes: vec![
                    CriticalityMix::light(),
                    CriticalityMix::standard(),
                    CriticalityMix::flood(),
                ],
                isolation: vec![false],
                duration: 240_000,
                deadline: 10_000,
                probe_max_cycles: 2_000_000,
            }),
            FaultPlan::named("wc-mix-bursts")
                .seed(23)
                .interference_burst(60_000, 100_000, 50)
                .delay_every(17, 3, 400),
        ),
        wc_scenario(
            "wc_isolation",
            "Worst case: isolation",
            "Pinning delivery to a dedicated core under heavy membw interference",
            "mitigation arm: isolation trades a fixed steering cost for freedom \
             from interference multipliers and occupancy bursts",
            Experiment::WorstCase(WorstCase {
                kinds: vec![InterferenceKind::MemBw],
                interferer_counts: vec![2, 8],
                mixes: vec![CriticalityMix::standard()],
                isolation: vec![false, true],
                duration: 240_000,
                deadline: 10_000,
                probe_max_cycles: 2_000_000,
            }),
            FaultPlan::named("wc-isolation-bursts")
                .seed(31)
                .interference_burst(20_000, 70_000, 80)
                .interference_burst(150_000, 200_000, 80),
        ),
        wc_scenario(
            "wc_bound_violation",
            "Worst case: bound violation",
            "A deliberately impossible 700-tick deadline under a flood — must fail",
            "negative path: the bounded-latency obligation names the offending \
             event and observed latency, and `xui run` exits nonzero",
            Experiment::WorstCase(WorstCase {
                kinds: vec![InterferenceKind::Cache],
                interferer_counts: vec![8],
                mixes: vec![CriticalityMix::flood()],
                isolation: vec![false],
                duration: 240_000,
                deadline: 700,
                probe_max_cycles: 2_000_000,
            }),
            FaultPlan::named("wc-violation-bursts").seed(47).interference_burst(
                30_000, 210_000, 60,
            ),
        ),
        scenario(
            "faults_scenarios",
            "Fault scenarios",
            "deterministic fault-injection + cross-model conformance suite",
            "§3.3/§4 delivery contract under adversarial schedules; \
             graceful fallback-to-polling instead of lost wakeups",
            Experiment::FaultsSuite(FaultsSuite {
                scenarios: crate::experiments::faults::default_suite(),
            }),
        ),
        scenario(
            "oracle_fuzz",
            "Oracle fuzz",
            "Differential schedule fuzzing against the reference oracle",
            "§3.3 SENDUIPI/notification, §4.3 KB_Timer, §4.5 forwarding: the \
             flat pseudocode oracle arbitrates the protocol, kernel, and \
             cycle-level models",
            Experiment::OracleFuzz(OracleFuzz { full: 10_000, sim: 1_000 }),
        ),
    ]
}

/// A worst-case-band preset: a scenario with a fault plan attached (the
/// `WorstCase` experiment honours `Scenario::faults`).
fn wc_scenario(
    name: &str,
    heading: &str,
    title: &str,
    paper_ref: &str,
    experiment: Experiment,
    plan: FaultPlan,
) -> Scenario {
    let mut sc = scenario(name, heading, title, paper_ref, experiment);
    sc.faults = Some(plan);
    sc
}

/// Looks up a preset by name.
#[must_use]
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// The preset names, in registry order.
#[must_use]
pub fn names() -> Vec<String> {
    all().into_iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_twenty_four_experiments() {
        assert_eq!(all().len(), 24);
    }

    #[test]
    fn worst_case_band_is_registered_with_fault_plans() {
        for name in ["wc_interference", "wc_mixed_criticality", "wc_isolation", "wc_bound_violation"]
        {
            let sc = find(name).unwrap_or_else(|| panic!("missing preset {name}"));
            assert!(matches!(sc.experiment, Experiment::WorstCase(_)), "{name}");
            assert!(sc.faults.is_some(), "{name} must carry an interference plan");
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn every_preset_validates() {
        for sc in all() {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let names = names();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate preset names");
        for name in &names {
            assert_eq!(find(name).expect("resolvable").name, *name);
        }
        assert!(find("no_such_preset").is_none());
    }

    #[test]
    fn every_preset_round_trips_through_json() {
        for sc in all() {
            let parsed = Scenario::from_json(&sc.to_json())
                .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(parsed, sc, "{} changed across JSON round-trip", sc.name);
        }
    }
}
