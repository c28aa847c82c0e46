//! Criterion micro-benchmarks of the reproduction's hot paths: DIR-24-8
//! LPM build and lookup, one Figure 7 server point, the discrete-event
//! engine, the latency histogram, the out-of-order pipeline model on a
//! tiny loop, on a ROB-filling matmul, on a miss-bound pointer chase
//! and on the oracle's spinning sim-replay receiver, and the oracle
//! differ.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xui_core::model::{CoreId, ProtocolModel};
use xui_core::vectors::UserVector;
use xui_des::engine::Engine;
use xui_des::stats::Histogram;
use xui_kernel::{PreemptMechanism, TimeSource, TimerCoreSim};
use xui_net::lpm::Lpm;
use xui_net::traffic::paper_route_table;
use xui_oracle::{check, check_timed_sends, Event, ForwardLine, Schedule};
use xui_runtime::{run_server, ServerConfig};
use xui_sim::config::SystemConfig;
use xui_sim::isa::{AluKind, Inst, Op, Operand, Reg};
use xui_sim::{Device, Program, System};
use xui_telemetry::NullRecorder;
use xui_workloads::programs::{matmul, pointer_chase, Instrument};

fn bench_lpm_lookup(c: &mut Criterion) {
    let lpm = Lpm::from_routes(&paper_route_table(1));
    let mut rng = StdRng::seed_from_u64(2);
    let probes: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
    let mut i = 0;
    c.bench_function("lpm_lookup_16k_routes", |b| {
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(lpm.lookup(black_box(probes[i])))
        })
    });
}

fn bench_lpm_build(c: &mut Criterion) {
    // The one-pass build behind every `run_l3fwd` call: 2^24 tbl24
    // entries written once, then the /25+ routes' tbl8 groups.
    let routes = paper_route_table(1);
    c.bench_function("lpm_build_16k_routes", |b| {
        b.iter(|| black_box(Lpm::from_routes(black_box(&routes)).len()))
    });
}

fn bench_server_point(c: &mut Criterion) {
    // One Figure 7 point near saturation: xUI KB_Timer preemption at
    // 275 krps over 60 ms of simulated time.
    let mut cfg = ServerConfig::paper(PreemptMechanism::XuiKbTimer, 275_000.0);
    cfg.duration = 120_000_000;
    c.bench_function("server_fig7_xui_275k", |b| {
        b.iter(|| black_box(run_server(black_box(&cfg)).completed_gets))
    });
}

fn bench_event_engine(c: &mut Criterion) {
    c.bench_function("des_engine_10k_events", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for t in 0..10_000u64 {
                engine.schedule_at((t * 7919) % 100_000, |s, _| *s += 1);
            }
            let mut count = 0u64;
            engine.run(&mut count);
            black_box(count)
        })
    });
}

fn bench_event_engine_churn(c: &mut Criterion) {
    // Exercises the slab allocator under a cancel-heavy schedule. The
    // previous engine boxed each closure into a fresh heap entry and kept
    // cancelled ids in a HashSet<u64> consulted on every pop, so churn
    // like this paid an allocation per event plus a hash probe per pop;
    // the slab reuses freed slots (generation-tagged) and the index-keyed
    // heap drops tombstones with a plain integer comparison.
    c.bench_function("des_engine_cancel_churn_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            let mut ids = Vec::with_capacity(64);
            for t in 0..10_000u64 {
                let id = engine.schedule_at((t * 7919) % 100_000, |s, _| *s += 1);
                ids.push(id);
                // Cancel half the in-flight events, oldest first, keeping
                // the live population (and thus the slab) small.
                if ids.len() == 64 {
                    for id in ids.drain(..32) {
                        engine.cancel(id);
                    }
                }
            }
            let mut count = 0u64;
            engine.run(&mut count);
            black_box(count)
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..1_000_000)).collect();
    c.bench_function("histogram_record_4k", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            black_box(h.percentile(99.0))
        })
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let program = Program::new(
        "loop",
        vec![
            Inst::new(Op::Li { dst: Reg(1), imm: u64::MAX }),
            Inst::new(Op::Alu {
                kind: AluKind::Sub,
                dst: Reg(1),
                src: Reg(1),
                op2: Operand::Imm(1),
            }),
            Inst::new(Op::Bnez { src: Reg(1), target: 1 }),
            Inst::new(Op::Halt),
        ],
    );
    c.bench_function("pipeline_10k_cycles", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::xui(), vec![program.clone()]);
            sys.run_cycles(10_000);
            black_box(sys.cores[0].stats.committed_insts)
        })
    });
}

fn bench_pipeline_full_rob(c: &mut Criterion) {
    // Matmul keeps nearly all of the 384 ROB entries live (the
    // 3-instruction loop above, under half), so per-cycle scheduler
    // cost at a full window shows here.
    let w = matmul(u64::MAX, Instrument::None, 0);
    c.bench_function("cycle_sim_matmul_full_rob", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::xui(), vec![w.program.clone()]);
            w.install(&mut sys, 0);
            sys.run_cycles(10_000);
            black_box(sys.cores[0].stats.committed_insts)
        })
    });
}

fn bench_pipeline_pointer_chase(c: &mut Criterion) {
    // Dependent loads that miss most of the time: the core is stalled
    // on nearly every cycle, the regime the run loops' quiet-cycle skip
    // is for.
    let w = pointer_chase(1024, 1000, Instrument::None);
    c.bench_function("cycle_sim_pointer_chase_stalled", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::xui(), vec![w.program.clone()]);
            w.install(&mut sys, 0);
            black_box(sys.run_until_core_halted(0, 100_000_000))
        })
    });
}

fn bench_pipeline_spin_replay(c: &mut Criterion) {
    // The oracle differ's sim replay on one timed send: a fresh `System`
    // whose receiver spins a dependent `sub`/`bnez` loop that keeps the
    // ROB full, one one-shot `UipiTimer` device posting into its UPID
    // mid-spin, tracing on. The untimed replay it also runs is a few
    // dozen steps, noise next to the ~65k simulated cycles.
    c.bench_function("cycle_sim_spin_replay", |b| {
        b.iter(|| black_box(check_timed_sends(black_box(&[(15_000, 3)]))).is_ok())
    });
}

fn bench_protocol_send_deliver(c: &mut Criterion) {
    let mut sys = ProtocolModel::new(2);
    let sender = sys.create_thread();
    let receiver = sys.create_thread();
    sys.register_handler(receiver, 0x4000).unwrap();
    let idx = sys
        .register_sender(sender, receiver, UserVector::new(5).unwrap())
        .unwrap();
    sys.schedule(sender, CoreId(0)).unwrap();
    sys.schedule(receiver, CoreId(1)).unwrap();
    c.bench_function("protocol_send_deliver", |b| {
        b.iter(|| {
            sys.senduipi(sender, idx).unwrap();
            black_box(sys.run_pending(receiver).unwrap())
        })
    });
}

fn bench_oracle_check(c: &mut Criterion) {
    // The oracle differ on a fixed full-alphabet corpus: every check
    // replays its schedule through the reference oracle, the protocol and
    // kernel models and the per-event ABI byte compare.
    let corpus: Vec<Schedule> = (0..200).map(Schedule::generate).collect();
    c.bench_function("oracle_check_full_alphabet", |b| {
        b.iter(|| corpus.iter().filter(|s| check(black_box(s)).is_some()).count())
    });
}

fn bench_oracle_check_enospc_shared(c: &mut Criterion) {
    // One hand-written schedule on the kernel's shared-table paths: a
    // co-sender sharing the sender's UITT, its teardown, and eight
    // fill-to-ENOSPC-then-free rounds between sends and deliveries.
    let mut events = vec![Event::Schedule { core: 1 }, Event::ShareUitt { uv: 3 }];
    for round in 0..8u8 {
        events.push(Event::RegisterUntilEnospc);
        events.push(Event::Send { uv: [3, 7, 12][usize::from(round % 3)] });
        events.push(Event::Deliver);
        if round == 3 {
            events.push(Event::TeardownShared);
        }
        events.push(Event::ShareUitt { uv: 7 });
    }
    events.push(Event::Deschedule);
    let schedule = Schedule {
        seed: 0,
        cores: 3,
        send_vectors: vec![3, 7, 12],
        timer_vector: None,
        forwarded: vec![ForwardLine { vector: 40, uv: 20 }],
        events,
    };
    assert!(check(&schedule).is_none(), "the fixed schedule agrees across models");
    c.bench_function("oracle_check_enospc_shared", |b| {
        b.iter(|| check(black_box(&schedule)).is_some())
    });
}

fn bench_cycle_sim_senduipi(c: &mut Criterion) {
    // Whole-pipeline cost of simulating one senduipi round trip.
    let sender = Program::new(
        "send",
        vec![
            Inst::new(Op::Li { dst: Reg(1), imm: 50 }),
            Inst::new(Op::SendUipi { index: 0 }),
            Inst::new(Op::Alu {
                kind: AluKind::Sub,
                dst: Reg(1),
                src: Reg(1),
                op2: Operand::Imm(1),
            }),
            Inst::new(Op::Bnez { src: Reg(1), target: 1 }),
            Inst::new(Op::Halt),
        ],
    );
    c.bench_function("cycle_sim_50_senduipis", |b| {
        b.iter(|| {
            let mut sys = System::new(
                SystemConfig::uipi(),
                vec![sender.clone(), Program::idle()],
            );
            sys.register_receiver(1, 0);
            sys.connect_sender(0, 1, 5);
            black_box(sys.run_until_core_halted(0, 10_000_000))
        })
    });
}

fn bench_halted_bulk_skip(c: &mut Criterion) {
    // Halted-heavy run: the core halts after a handful of instructions,
    // leaving millions of dead cycles before the horizon with only a
    // periodic device firing. With the idle fast path the system jumps
    // straight between device wake-ups instead of ticking every cycle.
    let program = Program::new(
        "halt-early",
        vec![Inst::new(Op::Li { dst: Reg(1), imm: 1 }), Inst::new(Op::Halt)],
    );
    c.bench_function("run_cycles_5m_halted_bulk_skip", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::xui(), vec![program.clone()]);
            sys.add_device(Device::FlagWriter {
                period: 10_000,
                next_fire: 10_000,
                addr: 0xA000,
                value: 1,
            });
            sys.run_cycles(5_000_000);
            black_box(sys.now())
        })
    });
}

fn bench_timer_core_null_telemetry(c: &mut Criterion) {
    // The ≤1% guard for disabled telemetry: `run` (which internally
    // delegates through the traced path with a NullRecorder) versus an
    // explicit `run_traced(&mut NullRecorder)` must be indistinguishable
    // from each other — the NullRecorder monomorphizes to nothing.
    let sim = TimerCoreSim::new(TimeSource::Setitimer, 10_000, 8);
    c.bench_function("timer_core_10k_ticks_untraced", |b| {
        b.iter(|| black_box(sim.run(black_box(10_000))))
    });
    c.bench_function("timer_core_10k_ticks_null_recorder", |b| {
        b.iter(|| black_box(sim.run_traced(black_box(10_000), &mut NullRecorder)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_lpm_lookup, bench_lpm_build, bench_server_point, bench_event_engine,
              bench_event_engine_churn, bench_histogram, bench_pipeline, bench_pipeline_full_rob,
              bench_pipeline_pointer_chase, bench_pipeline_spin_replay,
              bench_protocol_send_deliver, bench_oracle_check, bench_oracle_check_enospc_shared,
              bench_cycle_sim_senduipi, bench_halted_bulk_skip,
              bench_timer_core_null_telemetry
}
criterion_main!(benches);
