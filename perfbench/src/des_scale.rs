//! The DES group of `des_scale`: the discrete-event layers. Each pass
//! makes, in order: the `mt_million_clients` multi-tenant runs (both
//! mechanisms, heap tier), the Fig 7 server points, two Fig 8 l3fwd
//! points (1 and 8 NICs), a lookup probe on the 16k-route LPM, and a
//! hold-model probe on the DES engine at about 1e6 pending events
//! (calendar tier).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xui_des::{Engine, QueueKind};
use xui_kernel::PreemptMechanism;
use xui_net::lpm::Lpm;
use xui_net::traffic::paper_route_table;
use xui_net::{run_l3fwd, IoMode, L3fwdConfig};
use xui_runtime::tenants::{run_multi_tenant, MultiTenantConfig};
use xui_runtime::{run_server, ServerConfig};
use xui_workloads::ClientPopulation;

use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::{ratio, shuffle, Ctx, Metrics, View, Workload};

/// Fig 7's offered loads (krps) and mechanisms.
const FIG7_KRPS: [f64; 13] = [
    25.0, 50.0, 100.0, 150.0, 200.0, 230.0, 240.0, 250.0, 255.0, 260.0, 265.0, 270.0, 275.0,
];
const FIG7_MECHANISMS: [PreemptMechanism; 4] = [
    PreemptMechanism::None,
    PreemptMechanism::Signal,
    PreemptMechanism::UipiSwTimer,
    PreemptMechanism::XuiKbTimer,
];
/// Config seeds per Fig 7 point. With one, the seven long calls of a
/// pass (l3fwd, hold, tenants) are 12 % of its calls and the call p90
/// falls between the two tenants runs; with two it falls among the
/// high-load server points.
const FIG7_SEEDS: usize = 2;
/// Fig 8's NIC counts at the two ends of its axis, and the nonzero
/// loads a point is drawn from. Each call rebuilds the 16k-route LPM
/// (about 0.35 s), so two points keep a pass short enough that every
/// call is timed in many passes of a run.
const FIG8_NICS: [usize; 2] = [1, 8];
const FIG8_LOADS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// Hold-model probe: events pre-loaded, then events drained, each
/// rescheduling one successor an exponential gap ahead.
const HOLD_PENDING: u64 = 1_000_000;
const HOLD_EVENTS: u64 = 1_000_000;
const HOLD_MEAN_GAP: f64 = 1_000.0;
/// LPM lookups per pass, cycling over the probe addresses.
const LPM_LOOKUPS: usize = 2_000_000;

pub struct DesScale {
    tenants: Vec<MultiTenantConfig>,
    servers: Vec<ServerConfig>,
    l3fwd: Vec<L3fwdConfig>,
    lpm: Lpm,
    lpm_probes: Vec<u32>,
    hold_seed: u64,
    /// Untraced host seconds and engine events, for the headline rates.
    tenants_s: f64,
    tenants_events: u64,
    hold_run_s: f64,
    hold_events: u64,
    /// Per-pass counts (identical every pass).
    counts: Counts,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    des_events: u64,
    peak_pending: u64,
    calendar_runs: u64,
    hold_calendar: bool,
    server_calls: u64,
    preemptions: u64,
    tenants_completed: u64,
    l3fwd_calls: u64,
    forwarded: u64,
}

impl Workload for DesScale {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE5_5CA1E);
        let population = ClientPopulation {
            clients: 125_000,
            rps_per_client: 1.5,
        };
        let tenants = [PreemptMechanism::UipiSwTimer, PreemptMechanism::XuiKbTimer]
            .into_iter()
            .map(|m| {
                let mut cfg = MultiTenantConfig::paper(8, 8, population, m);
                cfg.seed = rng.gen();
                cfg
            })
            .collect();
        let mut servers = Vec::new();
        for m in FIG7_MECHANISMS {
            for krps in FIG7_KRPS {
                for _ in 0..FIG7_SEEDS {
                    let mut cfg = ServerConfig::paper(m, krps * 1_000.0);
                    cfg.seed = rng.gen();
                    servers.push(cfg);
                }
            }
        }
        // One point per NIC count; loads are the head of a seeded
        // permutation and modes alternate from a seeded start, so every
        // seed covers both modes.
        let mut loads = FIG8_LOADS;
        shuffle(&mut rng, &mut loads);
        let first_mode = rng.gen::<bool>();
        let l3fwd = FIG8_NICS
            .iter()
            .zip(loads)
            .enumerate()
            .map(|(i, (&nics, load))| {
                let mode = if (i % 2 == 0) == first_mode {
                    IoMode::Polling
                } else {
                    IoMode::XuiInterrupt
                };
                let mut cfg = L3fwdConfig::paper(nics, load, mode);
                cfg.seed = rng.gen();
                cfg
            })
            .collect();
        let routes = paper_route_table(rng.gen());
        let lpm = tr.span("net.lpm.build", 0, |_| {
            let mut lpm = Lpm::new();
            for r in &routes {
                lpm.add(*r);
            }
            lpm
        });
        // Addresses inside the table's prefixes, so every lookup hits.
        let lpm_probes = (0..4_096)
            .map(|_| {
                let r = routes[rng.gen_range(0..routes.len())];
                let host_bits = u32::MAX.checked_shr(u32::from(r.depth)).unwrap_or(0);
                r.prefix | (rng.gen::<u32>() & host_bits)
            })
            .collect();
        Ok(Self {
            tenants,
            servers,
            l3fwd,
            lpm,
            lpm_probes,
            hold_seed: rng.gen(),
            tenants_s: 0.0,
            tenants_events: 0,
            hold_run_s: 0.0,
            hold_events: 0,
            counts: Counts::default(),
        })
    }

    fn pass(&mut self, cx: &mut Ctx) -> Fnv {
        let mut d = Fnv::default();
        let mut c = Counts::default();
        let mut point = 0u64;
        let mut next = || {
            point += 1;
            point
        };

        for cfg in &self.tenants {
            let (r, secs) = cx.call("des.tenants", next(), |_| run_multi_tenant(cfg));
            for v in [
                r.completed,
                r.unfinished,
                r.preemptions,
                r.arrival_batches,
                r.timer_fires,
                r.engine_events,
            ] {
                d.u64(v);
            }
            d.u64(r.peak_pending as u64);
            cx.check(r.completed > 0 && r.engine_events > 0, || {
                format!("tenants run did no work: {}", r.completed)
            });
            c.des_events += r.engine_events;
            c.peak_pending = c.peak_pending.max(r.peak_pending as u64);
            c.calendar_runs += u64::from(r.queue_tier == "calendar");
            c.preemptions += r.preemptions;
            c.tenants_completed += r.completed;
            if !cx.traced {
                self.tenants_s += secs;
                self.tenants_events += r.engine_events;
            }
        }

        for cfg in &self.servers {
            let (r, _) = cx.call("runtime.server", next(), |_| run_server(cfg));
            for v in [
                r.completed_gets,
                r.completed_scans,
                r.unfinished,
                r.preemptions,
                r.fires_without_switch,
            ] {
                d.u64(v);
            }
            d.u64(r.get_latency.p999);
            cx.check(r.completed_gets > 0 && r.timer_faults == 0, || {
                format!(
                    "server point {:?} @ {} rps: {} GETs, {} timer faults",
                    cfg.mechanism, cfg.rps, r.completed_gets, r.timer_faults
                )
            });
            c.server_calls += 1;
            c.preemptions += r.preemptions;
        }

        for cfg in &self.l3fwd {
            let (r, _) = cx.call("net.l3fwd", next(), |_| run_l3fwd(cfg));
            for v in [r.forwarded, r.drops, r.tx_drops, r.tx_sent, r.latency.p95] {
                d.u64(v);
            }
            cx.check(r.forwarded > 0 && r.wake_faults == 0, || {
                format!(
                    "l3fwd {} NICs @ {}: forwarded {}",
                    cfg.nics, cfg.load, r.forwarded
                )
            });
            c.l3fwd_calls += 1;
            c.forwarded += r.forwarded;
        }

        let (hops, _) = cx.call("net.lpm.lookup", next(), |_| {
            let mut sum = 0u64;
            let mut misses = 0u64;
            for &ip in self.lpm_probes.iter().cycle().take(LPM_LOOKUPS) {
                match self.lpm.lookup(std::hint::black_box(ip)) {
                    Some(hop) => sum += u64::from(hop),
                    None => misses += 1,
                }
            }
            (sum, misses)
        });
        d.u64(hops.0);
        cx.check(hops.1 == 0, || format!("{} LPM probes missed", hops.1));

        let (hold, _) = cx.call("des.hold", next(), |tr| hold_probe(tr, self.hold_seed));
        d.u64(hold.executed);
        d.u64(hold.now);
        cx.check(hold.executed == HOLD_PENDING + HOLD_EVENTS, || {
            format!(
                "hold probe executed {} events, expected {}",
                hold.executed,
                HOLD_PENDING + HOLD_EVENTS
            )
        });
        cx.check(hold.calendar, || {
            "hold probe stayed on the heap tier".into()
        });
        c.hold_calendar = hold.calendar;
        c.calendar_runs += u64::from(hold.calendar);
        if !cx.traced {
            self.hold_run_s += hold.run_s;
            self.hold_events += hold.executed;
        }

        self.counts = c;
        d
    }

    fn report(&self, view: &View, out: &mut Metrics) {
        let c = &self.counts;
        out.insert(
            "des_mevents_per_s",
            ratio(self.tenants_events as f64 / 1e6, self.tenants_s),
        );
        out.insert(
            "hold_mevents_per_s",
            ratio(self.hold_events as f64 / 1e6, self.hold_run_s),
        );
        out.insert("des.tenants.busy_s", view.self_per_pass("des.tenants"));
        out.insert("des.events", c.des_events as f64);
        out.insert("des.peak_pending", c.peak_pending as f64);
        out.insert("des.calendar_runs", c.calendar_runs as f64);
        out.insert("des.hold.load_s", view.self_per_pass("des.hold.load"));
        out.insert("des.hold.run_s", view.self_per_pass("des.hold.run"));
        out.insert("des.hold.final_tier", f64::from(u8::from(c.hold_calendar)));
        out.insert("runtime.server.calls", c.server_calls as f64);
        out.insert(
            "runtime.server.busy_s",
            view.self_per_pass("runtime.server"),
        );
        out.insert("runtime.preemptions", c.preemptions as f64);
        out.insert("runtime.tenants.completed", c.tenants_completed as f64);
        out.insert("net.l3fwd.calls", c.l3fwd_calls as f64);
        out.insert("net.l3fwd.busy_s", view.self_per_pass("net.l3fwd"));
        out.insert("net.forwarded", c.forwarded as f64);
        out.insert(
            "net.lpm.build_ms",
            view.setup_span("net.lpm.build").self_s * 1e3 / view.setup_reps as f64,
        );
        let lookup = view.span("net.lpm.lookup");
        out.insert(
            "net.lpm.mlookups_per_s",
            ratio(
                lookup.count as f64 * LPM_LOOKUPS as f64 / 1e6,
                lookup.self_s,
            ),
        );
    }
}

struct Hold {
    rng: StdRng,
    remaining: u64,
}

struct HoldResult {
    executed: u64,
    now: u64,
    run_s: f64,
    calendar: bool,
}

fn exp_gap(rng: &mut StdRng) -> u64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (-u.ln() * HOLD_MEAN_GAP).ceil().max(1.0) as u64
}

fn tick(state: &mut Hold, engine: &mut Engine<Hold>) {
    if state.remaining == 0 {
        return;
    }
    state.remaining -= 1;
    let gap = exp_gap(&mut state.rng);
    engine.schedule_in(gap, tick);
}

/// The classic hold model: pre-load `HOLD_PENDING` exponentially spread
/// events, then drain while each executed event schedules one
/// successor, so the pending set stays at `HOLD_PENDING`.
fn hold_probe(tr: &mut Tracer, seed: u64) -> HoldResult {
    let mut engine: Engine<Hold> = Engine::with_queue(QueueKind::Tiered);
    let mut state = Hold {
        rng: StdRng::seed_from_u64(seed),
        remaining: HOLD_EVENTS,
    };
    tr.span("des.hold.load", 0, |_| {
        for _ in 0..HOLD_PENDING {
            let at = exp_gap(&mut state.rng);
            engine.schedule_at(at, tick);
        }
    });
    let t = std::time::Instant::now();
    tr.span("des.hold.run", 0, |_| while engine.step(&mut state) {});
    let run_s = t.elapsed().as_secs_f64();
    HoldResult {
        executed: engine.executed(),
        now: engine.now(),
        run_s,
        calendar: engine.queue_tier() == "calendar",
    }
}
