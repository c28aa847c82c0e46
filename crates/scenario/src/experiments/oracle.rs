//! Differential schedule fuzzer: replays seeded schedules through the
//! SDM-style reference oracle (`xui-oracle`) and through the protocol,
//! kernel, and cycle-level models, reporting any divergence as a shrunk
//! JSON reproducer.
//!
//! Schedules run on the deterministic sweep pool: seeds derive only from
//! the base seed and the point index, and results are reassembled in
//! point order, so stdout and the emitted JSON are byte-identical for
//! any `XUI_BENCH_THREADS`.

use serde::Serialize;

use xui_oracle::{fuzz_one, reproducer_json, Reproducer};

use super::run_sweep;
use crate::{BenchOpts, Sweep, Table};
use crate::runner::Sink;
use crate::spec::OracleFuzz;

/// Frozen default base seed for the fuzz corpus.
pub(crate) const DEFAULT_SEED: u64 = 0x0D1F_F0A2_ACE5_EED5;

#[derive(Clone, Copy)]
struct Point {
    sim_class: bool,
    index: u64,
}

#[derive(Serialize)]
struct Summary {
    base_seed: u64,
    full_schedules: u64,
    sim_schedules: u64,
    divergences: Vec<Reproducer>,
}

/// Runs the corpus. Returns whether every schedule agreed across models.
pub(crate) fn run(
    p: &OracleFuzz,
    base_seed: Option<u64>,
    bench: &BenchOpts,
    sink: &mut Sink,
) -> bool {
    let OracleFuzz { full, sim } = *p;
    let base_seed = base_seed.unwrap_or(DEFAULT_SEED);
    println!(
        "  corpus: {full} full-alphabet + {sim} sim-class schedules, base seed {base_seed:#x}\n"
    );

    let points: Vec<Point> = (0..full)
        .map(|index| Point { sim_class: false, index })
        .chain((0..sim).map(|index| Point { sim_class: true, index }))
        .collect();

    let results = run_sweep(Sweep::new(points).base_seed(base_seed), bench, |p, ctx| {
        fuzz_one(ctx.seed.wrapping_add(p.index), p.sim_class)
    });
    let full_div = results[..full as usize].iter().flatten().count();
    let sim_div = results[full as usize..].iter().flatten().count();
    let divergences: Vec<Reproducer> = results.into_iter().flatten().collect();

    let mut table = Table::new(vec!["class", "schedules", "divergences"]);
    table.row(vec!["full".to_string(), full.to_string(), full_div.to_string()]);
    table.row(vec!["sim".to_string(), sim.to_string(), sim_div.to_string()]);
    table.row(vec![
        "total".to_string(),
        (full + sim).to_string(),
        divergences.len().to_string(),
    ]);
    table.print();

    let summary = Summary {
        base_seed,
        full_schedules: full,
        sim_schedules: sim,
        divergences: divergences.clone(),
    };
    sink.emit("oracle_fuzz", &summary);

    if divergences.is_empty() {
        println!("\n  all {} schedules agree across oracle, protocol, kernel, and sim", full + sim);
        true
    } else {
        for r in &divergences {
            eprintln!("\n--- divergence ({}) ---\n{}", r.divergence.model, reproducer_json(r));
        }
        eprintln!("\n  {} divergence(s) found", divergences.len());
        false
    }
}
