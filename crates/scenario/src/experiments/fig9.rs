//! Figure 9: delivering DSA completion events — free cycles (top) and
//! notification latency (bottom) versus response-time noise, for busy
//! spinning, periodic OS-timer polling, and xUI device interrupts.

use serde::Serialize;

use xui_accel::{run_offload, CompletionMode, OffloadConfig, RequestKind};

use super::run_sweep;
use crate::{pct, AsciiChart, BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::DsaMode;

#[derive(Serialize)]
struct Row {
    request: &'static str,
    noise_pct: u64,
    mode: &'static str,
    mean_delay_us: f64,
    free_frac: f64,
    kiops: f64,
}

fn kind_name(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::Short => "2µs",
        RequestKind::Long => "20µs",
    }
}

fn completion(mode: DsaMode, kind: RequestKind) -> CompletionMode {
    match mode {
        DsaMode::BusySpin => CompletionMode::BusySpin,
        DsaMode::PeriodicPoll => OffloadConfig::matched_poll_period(kind),
        DsaMode::XuiInterrupt => CompletionMode::XuiInterrupt,
    }
}

pub(crate) fn run(
    kinds: &[RequestKind],
    noise_levels_pct: &[u64],
    modes: &[DsaMode],
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    let mut points: Vec<(RequestKind, &'static str, u64, CompletionMode, &'static str)> =
        Vec::new();
    for &kind in kinds {
        for &noise_pct in noise_levels_pct {
            for &mode in modes {
                points.push((kind, kind_name(kind), noise_pct, completion(mode, kind), mode.name()));
            }
        }
    }
    let rows = run_sweep(
        Sweep::new(points),
        bench,
        |&(kind, kname, noise_pct, mode, mname), _ctx| {
            let noise = kind.mean_cycles() * noise_pct / 100;
            let cfg = OffloadConfig::paper(kind, noise, mode);
            let r = run_offload(&cfg);
            Row {
                request: kname,
                noise_pct,
                mode: mname,
                mean_delay_us: r.mean_delay_us,
                free_frac: r.free_fraction,
                kiops: r.iops / 1_000.0,
            }
        },
    );

    let mut table = Table::new(vec![
        "request",
        "noise",
        "mode",
        "delivery latency",
        "free cycles",
        "kIOPS",
    ]);
    for r in &rows {
        table.row(vec![
            r.request.to_string(),
            format!("{}%", r.noise_pct),
            r.mode.to_string(),
            format!("{:.2}µs", r.mean_delay_us),
            pct(r.free_frac),
            format!("{:.1}", r.kiops),
        ]);
    }
    table.print();

    // Headline claims (skipped quietly when a custom scenario omits a
    // reference point).
    let find = |req: &str, noise: u64, mode: &str| {
        rows.iter().find(|r| r.request == req && r.noise_pct == noise && r.mode == mode)
    };
    if let (Some(xui2), Some(spin2)) = (find("2µs", 0, "xUI"), find("2µs", 0, "busy-spin")) {
        println!(
            "\n  2µs/zero-noise: xUI frees {} (paper ~75%); latency gap to spinning \
             {:.2}µs (paper ≤0.2µs)",
            pct(xui2.free_frac),
            xui2.mean_delay_us - spin2.mean_delay_us
        );
    }
    if let (Some(poll_calm), Some(poll_noisy), Some(xui_noisy), Some(xui_calm)) = (
        find("20µs", 0, "periodic-poll"),
        find("20µs", 75, "periodic-poll"),
        find("20µs", 75, "xUI"),
        find("20µs", 0, "xUI"),
    ) {
        println!(
            "  20µs periodic-poll latency: {:.1}µs calm → {:.1}µs at 75% noise \
             (the §6.2.3 blow-up); xUI stays flat at {:.2}µs",
            poll_calm.mean_delay_us,
            poll_noisy.mean_delay_us,
            xui_noisy.mean_delay_us
        );
        println!(
            "  20µs xUI: {:.1} kIOPS with {} free (intro: 50K IOPS, negligible overhead)",
            xui_calm.kiops,
            pct(xui_calm.free_frac)
        );
    }

    println!();
    let mut chart = AsciiChart::new("noise%", "delivery latency µs (20µs requests)");
    for mode in ["busy-spin", "periodic-poll", "xUI"] {
        chart.series(
            mode,
            rows.iter()
                .filter(|r| r.request == "20µs" && r.mode == mode)
                .map(|r| (r.noise_pct as f64, r.mean_delay_us))
                .collect(),
        );
    }
    chart.print();

    sink.emit("fig9_dsa", &rows);
}
