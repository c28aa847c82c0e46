//! Frozen Fig 7 server reports: FNV-1a digests of `format!("{report:?}")`
//! for `run_server` and the faulted `run_server_with` over every preemption
//! mechanism, three offered loads (below, near and past saturation),
//! one and four workers, and a fault plan that drops and delays timer
//! fires off the quantum grid. Any change to the server's event loop
//! must leave every report — latency summaries, counters, and the
//! floating-point throughput and busy fraction — bit-identical.

use xui::faults::FaultPlan;
use xui::kernel::PreemptMechanism;
use xui::runtime::{run_server, run_server_with, ServerConfig};
use xui::telemetry::NullRecorder;

const MECHANISMS: [PreemptMechanism; 4] = [
    PreemptMechanism::None,
    PreemptMechanism::Signal,
    PreemptMechanism::UipiSwTimer,
    PreemptMechanism::XuiKbTimer,
];
const RPS: [f64; 3] = [25_000.0, 250_000.0, 400_000.0];
const WORKERS: [usize; 2] = [1, 4];

/// `(mechanism, rps, workers, faulted)` in loop order → digest.
const PINNED: [u64; 48] = [
    0x03b7a964e9d90f57,
    0x03b7a964e9d90f57,
    0xbac55b7e60c417b0,
    0xbac55b7e60c417b0,
    0xcbf66108d6dd516c,
    0xcbf66108d6dd516c,
    0x97af241cc4f1b14b,
    0x97af241cc4f1b14b,
    0xf60017c21069677a,
    0xf60017c21069677a,
    0x8b93462fbc4fbe84,
    0x8b93462fbc4fbe84,
    0xcd5cd73a987e5270,
    0x93da7e72ea65cd5b,
    0x66ab4c7de461e6ef,
    0x3ca75889b2eefe39,
    0x7f38090ad9899670,
    0xe708521d7858d1cb,
    0x2e87861382b1441e,
    0x4acac973aac67970,
    0x5d77608dc567debe,
    0x5a948761bf1aac92,
    0xe87d1979110d73e3,
    0x93dc33e3ccc24913,
    0x2966151cbe1108c7,
    0xbb793b77dc22bfc2,
    0x6c3eccf195a2d4d4,
    0x3b393232322efd71,
    0xfbca1ade16ecc118,
    0x2da31ab706566884,
    0x1f1ab65e10516fc7,
    0x4b987822999fa567,
    0x6410f872c3672a32,
    0xc4092faf83917fd8,
    0xdaaaf3b7bd1e77ca,
    0x449d89dc0e3d033a,
    0x1a6490a1850de6f2,
    0x43dbb8fbda472199,
    0x1cc2b0a9e2b7dd76,
    0xa4372c09a14f71b1,
    0x6de8a8c71f8662f7,
    0xbcf0845115565360,
    0xef1a2bd62fef18cf,
    0x161e79a75165a895,
    0x112b1c998e06c153,
    0x89fc68ce13bdf7e3,
    0x0ce0e029ee20288b,
    0x21cca7f062d352d6,
];

/// Faulted runs, by config seed, whose end time comes from a segment end
/// that a timer fire superseded in the last few hundred cycles before
/// the horizon: the run ends before any later event pops, so
/// `achieved_rps` and `busy_fraction` depend on that superseded time.
/// `(mechanism, rps, workers, seed)` → digest of the faulted report.
const SUPERSEDED_AT_HORIZON: [(PreemptMechanism, f64, usize, u64, u64); 5] = [
    (PreemptMechanism::Signal, 250_000.0, 1, 38, 0x539c_f79e_71e2_7edd),
    (PreemptMechanism::Signal, 400_000.0, 4, 0, 0x828b_1f9d_36f4_fac6),
    (PreemptMechanism::UipiSwTimer, 250_000.0, 1, 11, 0xe289_22d0_a7cd_0ed6),
    (PreemptMechanism::XuiKbTimer, 250_000.0, 4, 152, 0xe6a7_3389_1d8f_62d3),
    (PreemptMechanism::XuiKbTimer, 400_000.0, 1, 5, 0x62b1_1be4_93b6_e0d4),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drops every fifth fire and delays every seventh by a third of a
/// quantum, so fires leave the quantum grid and fire-without-switch
/// segment ends are superseded well inside the horizon.
fn plan() -> FaultPlan {
    FaultPlan::named("pin").drop_every(5, 2).delay_every(7, 3, 3_333)
}

#[test]
fn server_reports_match_frozen_digests() {
    let plan = plan();
    let mut actual = Vec::new();
    let mut labels = Vec::new();
    for mechanism in MECHANISMS {
        for rps in RPS {
            for workers in WORKERS {
                let mut cfg = ServerConfig::paper(mechanism, rps);
                cfg.workers = workers;
                cfg.duration = 120_000_000; // 60 ms
                let clean = run_server(&cfg);
                let faulted = run_server_with(&cfg, Some(&plan), &mut NullRecorder);
                if !matches!(mechanism, PreemptMechanism::None) {
                    assert!(faulted.timer_faults > 0, "{mechanism:?} {rps} {workers}: plan bites");
                }
                for (faults, report) in [(false, clean), (true, faulted)] {
                    actual.push(fnv1a(format!("{report:?}").as_bytes()));
                    labels.push(format!("{mechanism:?} {rps} rps, {workers} w, faulted={faults}"));
                }
            }
        }
    }
    let listing: String = actual.iter().map(|d| format!("    {d:#018x},\n")).collect();
    assert_eq!(actual.len(), PINNED.len(), "pinned table:\n{listing}");
    for ((label, got), want) in labels.iter().zip(&actual).zip(&PINNED) {
        assert_eq!(got, want, "{label}: report diverged from the frozen digest");
    }
}

#[test]
fn segment_ends_superseded_at_the_horizon_still_end_the_run() {
    let plan = plan();
    for (mechanism, rps, workers, seed, want) in SUPERSEDED_AT_HORIZON {
        let mut cfg = ServerConfig::paper(mechanism, rps);
        cfg.workers = workers;
        cfg.duration = 120_000_000;
        cfg.seed = seed;
        let report = run_server_with(&cfg, Some(&plan), &mut NullRecorder);
        assert_eq!(
            fnv1a(format!("{report:?}").as_bytes()),
            want,
            "{mechanism:?} {rps} rps, {workers} w, seed {seed}: report diverged"
        );
    }
}
