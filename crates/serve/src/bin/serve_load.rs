//! `serve_load` — benchmark the `xui serve` control plane against
//! itself: an in-process server, a watched scenario run, N live SSE
//! subscribers (one deliberately slow), and open-loop request churn
//! from the same client-population model the DES experiments use.
//!
//! The report lands under the `serve_load` key of
//! `results/BENCH_sweep.json` (merged, like every other section of
//! that shared file).

use xui_bench::{banner, record_bench_section, CliSpec, Table};
use xui_serve::{run_load, LoadConfig};

fn main() {
    let spec = CliSpec::new("serve_load", "open-loop load benchmark of the xui serve control plane")
        .option("--scenario", "NAME", "scenario preset the watched run executes (default fig2_timeline)")
        .option("--subscribers", "N", "concurrent SSE subscribers, last one slow (default 8)")
        .option("--requests", "N", "total churn requests (default 240)")
        .option("--clients", "N", "modeled open-loop clients (default 100000)")
        .option("--rps", "R", "per-client request rate (default 0.006)")
        .option("--seed", "S", "arrival RNG seed (default 7)");
    let parsed = spec.parse_or_exit();

    let mut cfg = LoadConfig::default();
    let overrides = (|| -> Result<(), xui_bench::CliError> {
        if let Some(s) = parsed.opt("--scenario") {
            cfg.scenario = s.to_string();
        }
        if let Some(n) = parsed.opt_usize("--subscribers")? {
            cfg.subscribers = n.max(1);
        }
        if let Some(n) = parsed.opt_u64("--requests")? {
            cfg.requests = n;
        }
        if let Some(n) = parsed.opt_u64("--clients")? {
            cfg.clients = n.max(1);
        }
        if let Some(r) = parsed.opt("--rps") {
            cfg.rps_per_client = r.parse().map_err(|_| xui_bench::CliError::InvalidValue {
                option: "--rps".to_string(),
                value: r.to_string(),
                want: "a positive number".to_string(),
            })?;
        }
        if let Some(s) = parsed.opt_u64("--seed")? {
            cfg.seed = s;
        }
        Ok(())
    })();
    if let Err(e) = overrides {
        eprintln!("error: {e}\n\n{}", spec.usage());
        std::process::exit(2);
    }

    banner(
        "serve_load",
        "control-plane throughput, latency, and streaming loss under open-loop churn",
        "extension: the xui serve layer measured by the paper's own client model",
    );

    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["run state".to_string(), report.run_state.clone()]);
    t.row(vec!["run artifacts".to_string(), report.run_artifacts.to_string()]);
    t.row(vec![
        "requests (ok/sent)".to_string(),
        format!("{}/{}", report.requests_ok, report.requests_sent),
    ]);
    t.row(vec!["offered rps".to_string(), format!("{:.0}", report.offered_rps)]);
    t.row(vec!["achieved rps".to_string(), format!("{:.0}", report.achieved_rps)]);
    t.row(vec!["p50 response".to_string(), format!("{}µs", report.p50_us)]);
    t.row(vec!["p99 response".to_string(), format!("{}µs", report.p99_us)]);
    for (i, sub) in report.subscribers.iter().enumerate() {
        t.row(vec![
            format!("subscriber {i} (cap {})", sub.cap),
            format!("{} delivered, {} dropped", sub.delivered_events, sub.dropped_events),
        ]);
    }
    t.print();

    let saved = record_bench_section("serve_load", &report);
    match &saved {
        Ok(()) => println!("\n    [results/BENCH_sweep.json section `serve_load`]"),
        Err(e) => eprintln!("serve_load: {e}"),
    }

    let ok = saved.is_ok()
        && report.run_state == "done"
        && report.requests_ok == report.requests_sent;
    std::process::exit(i32::from(!ok));
}
