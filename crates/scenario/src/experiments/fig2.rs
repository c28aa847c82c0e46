//! Figure 2: the UIPI latency timeline — per-step timestamps of one
//! send→receive, reconstructed from pipeline trace events.

use serde::Serialize;

use xui_sim::config::SystemConfig;
use xui_sim::trace::{first_on_core_at_or_after, TraceEvent, TraceKind};
use xui_sim::System;
use xui_workloads::programs::{countdown_sender, spin_receiver, SPIN_HANDLER_PC};

use super::run_sweep;
use crate::report::{save_metrics, save_trace_points};
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;

#[derive(Serialize)]
struct Timeline {
    segments: Vec<Segment>,
    flush_refill: i64,
    notif_delivery: i64,
    /// Telemetry events bridged from the merged pipeline trace; carried
    /// through the sweep so `--trace` can export them in point order.
    telemetry: Vec<xui_telemetry::Event>,
}

pub(crate) fn run(
    sender_countdown: u64,
    receiver_countdown: u64,
    max_cycles: u64,
    bench: &BenchOpts,
    sink: &mut Sink,
) {
    // A single traced scenario still goes through the sweep harness so
    // the experiment honours --threads like every other figure.
    let mut results = run_sweep(Sweep::new(vec![()]), bench, |&(), _ctx| {
        let sender = countdown_sender(sender_countdown);
        let receiver = spin_receiver(receiver_countdown, true);
        let mut sys = System::new(SystemConfig::uipi(), vec![sender, receiver]);
        sys.register_receiver(1, SPIN_HANDLER_PC);
        sys.connect_sender(0, 1, 5);
        sys.cores[0].trace_enabled = true;
        sys.cores[1].trace_enabled = true;
        sys.run_until_halted(max_cycles);

        // Reconstruct from the merged multi-core stream with the
        // core-aware lookup: sender events on core 0, receiver events on
        // core 1 (the core-blind variant would match whichever core hit
        // the kind first). The reconstruction returns the missing
        // step's name instead of panicking midway.
        let merged = sys.trace_events();
        let r = reconstruct_fig2(&merged, 0, 1)
            .unwrap_or_else(|step| panic!("trace is missing step: {step}"));
        Timeline {
            segments: r.segments,
            flush_refill: r.flush_refill,
            notif_delivery: r.notif_delivery,
            telemetry: sys.telemetry_events(),
        }
    });
    let timeline = results.pop().expect("one point");

    let mut table = Table::new(vec!["step", "paper (cycle)", "measured (cycle)"]);
    for seg in &timeline.segments {
        table.row(vec![
            seg.step.to_string(),
            seg.paper_cycle.to_string(),
            seg.measured_cycle.to_string(),
        ]);
    }
    table.print();
    println!("\n  flush+refill segment: paper 424, measured {}", timeline.flush_refill);
    println!("  notification+delivery: paper 262, measured {}", timeline.notif_delivery);

    sink.emit("fig2_timeline", &timeline.segments);

    if let Some(path) = &bench.trace {
        sink.saved(save_trace_points(path, std::slice::from_ref(&timeline.telemetry)));
    }
    if bench.metrics {
        let mut shard = xui_telemetry::MetricsShard::scoped("fig2");
        for ev in &timeline.telemetry {
            shard.inc(ev.name, 1);
        }
        shard.observe("flush_refill_cycles", timeline.flush_refill.unsigned_abs());
        shard.observe("notif_delivery_cycles", timeline.notif_delivery.unsigned_abs());
        let mut reg = xui_telemetry::Registry::new();
        reg.push_shard(shard);
        sink.saved(save_metrics("fig2_timeline", &reg.snapshot()));
    }
}

/// One reconstructed step of the Figure 2 latency timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
struct Segment {
    /// Step label, as printed in the figure table.
    step: &'static str,
    /// The paper's cycle number for this step.
    paper_cycle: i64,
    /// The cycle measured in the simulated trace, relative to time 0 =
    /// `senduipi` entering the pipeline.
    measured_cycle: i64,
}

/// The reconstructed Figure 2 timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fig2Reconstruction {
    /// Per-step paper-vs-measured cycles.
    segments: Vec<Segment>,
    /// Measured flush+refill segment (paper: 424 cycles).
    flush_refill: i64,
    /// Measured notification+delivery segment (paper: 262 cycles).
    notif_delivery: i64,
}

/// Rebuilds the Figure 2 timeline from a merged multi-core trace with
/// the core-aware lookup: sender-side events must appear on
/// `sender_core`, receiver-side events on `receiver_core`. Time 0 is the
/// `senduipi` pipeline entry, approximated as the UPID post minus the
/// 25-cycle microcode preamble.
///
/// # Errors
///
/// Returns the name of the first step whose trace event is missing —
/// e.g. `"UPID posted"` for an empty trace, or `"IPI arrived"` when the
/// receiver-side events were produced by a different core than
/// `receiver_core` (an all-one-core trace).
fn reconstruct_fig2(
    merged: &[TraceEvent],
    sender_core: usize,
    receiver_core: usize,
) -> Result<Fig2Reconstruction, &'static str> {
    let find = |core: usize, kind: TraceKind, step: &'static str| {
        first_on_core_at_or_after(merged, core, kind, 0).ok_or(step)
    };
    let post = find(sender_core, TraceKind::UpidPosted, "UPID posted")?;
    let t0 = post.saturating_sub(25);
    let rel = |c: u64| (c - t0) as i64;

    let icr = find(sender_core, TraceKind::IcrWrite, "ICR written")?;
    let arrive = find(receiver_core, TraceKind::IpiArrive, "IPI arrived")?;
    let drained = find(receiver_core, TraceKind::UpidDrained, "UPID drained")?;
    let handler = find(receiver_core, TraceKind::HandlerEntered, "handler entered")?;
    let uiret = find(receiver_core, TraceKind::UiretCommitted, "uiret committed")?;

    let segments = vec![
        Segment { step: "senduipi issued", paper_cycle: 0, measured_cycle: 0 },
        Segment {
            step: "UPID posted (PIR/ON set)",
            paper_cycle: 25,
            measured_cycle: rel(post),
        },
        Segment {
            step: "ICR written (IPI leaves)",
            paper_cycle: 129,
            measured_cycle: rel(icr),
        },
        Segment {
            step: "receiver program flow interrupted",
            paper_cycle: 380,
            measured_cycle: rel(arrive),
        },
        Segment {
            step: "notification processing (ON cleared)",
            paper_cycle: 804, // 380 + 424 flush/refill
            measured_cycle: rel(drained),
        },
        Segment {
            step: "handler entered (delivery done)",
            paper_cycle: 1_066, // + 262 notification+delivery
            measured_cycle: rel(handler),
        },
        Segment {
            step: "uiret (handler complete)",
            paper_cycle: 1_360,
            measured_cycle: rel(uiret),
        },
    ];
    Ok(Fig2Reconstruction {
        flush_refill: rel(drained) - rel(arrive),
        notif_delivery: rel(handler) - rel(drained),
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, core: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent { cycle, core, kind }
    }

    /// A minimal complete two-core trace with the paper's cycle numbers.
    fn full_trace() -> Vec<TraceEvent> {
        vec![
            ev(25, 0, TraceKind::UpidPosted),
            ev(129, 0, TraceKind::IcrWrite),
            ev(380, 1, TraceKind::IpiArrive),
            ev(804, 1, TraceKind::UpidDrained),
            ev(1_066, 1, TraceKind::HandlerEntered),
            ev(1_360, 1, TraceKind::UiretCommitted),
        ]
    }

    #[test]
    fn reconstructs_paper_numbers_exactly() {
        let r = reconstruct_fig2(&full_trace(), 0, 1).expect("complete trace");
        assert_eq!(r.segments.len(), 7);
        for seg in &r.segments {
            assert_eq!(
                seg.measured_cycle, seg.paper_cycle,
                "step {:?} off: {} vs {}",
                seg.step, seg.measured_cycle, seg.paper_cycle
            );
        }
        assert_eq!(r.flush_refill, 424);
        assert_eq!(r.notif_delivery, 262);
    }

    #[test]
    fn empty_trace_reports_the_first_missing_step() {
        assert_eq!(reconstruct_fig2(&[], 0, 1), Err("UPID posted"));
    }

    #[test]
    fn all_one_core_trace_reports_the_receiver_step() {
        // Every event landed on core 0 (e.g. a mis-wired single-core
        // run): the sender-side steps resolve, the receiver-side lookup
        // on core 1 fails by name instead of silently matching core 0.
        let trace: Vec<TraceEvent> =
            full_trace().into_iter().map(|mut e| { e.core = 0; e }).collect();
        assert_eq!(reconstruct_fig2(&trace, 0, 1), Err("IPI arrived"));
    }

    #[test]
    fn missing_tail_event_is_named() {
        let mut trace = full_trace();
        trace.pop(); // drop UiretCommitted
        assert_eq!(reconstruct_fig2(&trace, 0, 1), Err("uiret committed"));
    }

    #[test]
    fn timestamp_ties_across_cores_resolve_by_core_not_position() {
        // Core 0 (the sender) also drains a UPID at the same cycle the
        // receiver does — the core-blind lookup would match it first;
        // the reconstruction must pick core 1's event.
        let mut trace = full_trace();
        trace.insert(3, ev(804, 0, TraceKind::UpidDrained));
        let r = reconstruct_fig2(&trace, 0, 1).expect("tie resolves");
        assert_eq!(r.flush_refill, 424);
    }

    #[test]
    fn same_core_same_cycle_ties_pick_the_first_occurrence() {
        let mut trace = full_trace();
        // A duplicate HandlerEntered at the same cycle on the same core:
        // deterministic first-match, not a panic or a later pick.
        trace.push(ev(1_066, 1, TraceKind::HandlerEntered));
        let r = reconstruct_fig2(&trace, 0, 1).expect("duplicate tolerated");
        assert_eq!(r.notif_delivery, 262);
    }

    #[test]
    fn lookup_edge_cases_directly() {
        assert_eq!(first_on_core_at_or_after(&[], 0, TraceKind::UpidPosted, 0), None);
        let trace = full_trace();
        // `from` is inclusive.
        assert_eq!(
            first_on_core_at_or_after(&trace, 1, TraceKind::IpiArrive, 380),
            Some(380)
        );
        assert_eq!(first_on_core_at_or_after(&trace, 1, TraceKind::IpiArrive, 381), None);
        // Wrong core finds nothing even though the kind exists.
        assert_eq!(first_on_core_at_or_after(&trace, 2, TraceKind::IpiArrive, 0), None);
    }
}
