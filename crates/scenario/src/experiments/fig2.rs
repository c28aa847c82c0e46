//! Figure 2: the UIPI latency timeline — per-step timestamps of one
//! send→receive, reconstructed from pipeline trace events.

use serde::Serialize;

use xui_bench::timeline::Segment;
use xui_bench::{reconstruct_fig2, run_sweep, BenchOpts, Sweep, Table};
use xui_sim::config::SystemConfig;
use xui_sim::System;
use xui_workloads::programs::{countdown_sender, spin_receiver, SPIN_HANDLER_PC};

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
    // the experiment honours --bench-meta like every other figure.
    let mut results = run_sweep("fig2_timeline", Sweep::new(vec![()]), bench, |&(), _ctx| {
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
        // the kind first). The library function returns the missing
        // step's name instead of panicking mid-reconstruction.
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
        xui_bench::save_trace_points(path, std::slice::from_ref(&timeline.telemetry));
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
        sink.saved(xui_bench::save_metrics("fig2_timeline", &reg.snapshot()));
    }
}
