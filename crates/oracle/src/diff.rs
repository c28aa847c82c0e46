//! The differential driver: replay one [`Schedule`] through the oracle
//! and through each production model, diff the observable outcomes, and
//! shrink any divergence to a minimal JSON reproducer.
//!
//! Three replay targets exist:
//!
//! - `protocol` — [`xui_core::model::ProtocolModel`], the untimed
//!   architectural model;
//! - `kernel` — [`xui_kernel::UintrKernel`], the OS wrapper (same
//!   protocol plus syscall bookkeeping and teardown);
//! - `sim` — [`xui_sim::System`], the cycle-level pipeline model, which
//!   only supports the sends-only schedule class (see
//!   [`Schedule::is_sim_compatible`]). [`check_timed_sends`] replays a
//!   list of timed sends through it without that gate.
//!
//! The two untimed models replay in one pass: a single lockstep
//! [`Oracle`] steps once per event, each event's guards are evaluated
//! once, and both models take the same step and are diffed against the
//! oracle's packed UPID bytes after it. Each model keeps its own first
//! error and is not driven past it. Divergences are reported in a fixed
//! order: protocol, then kernel, then sim.
//!
//! Each thread keeps one `Replayer` holding both untimed models. A
//! check resets it completely before anything else and then repeats
//! the set-up syscalls into the kept buffers, so a check allocates no
//! model state and nothing a previous check (even one that panicked)
//! left behind can reach the next.
//!
//! Replay mirrors the oracle's totality rules: an event that the oracle
//! treats as a no-op is skipped against the model too, so the *legal*
//! transitions are compared and any subsequence of a schedule remains
//! replayable (which keeps shrinking sound). A model error on an event
//! the oracle considers legal is itself a divergence.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use xui_core::kb_timer::TimerMode;
use xui_core::model::{CoreId, ProtocolModel, ThreadId};
use xui_core::uitt::UittIndex;
use xui_core::vectors::{UserVector, Vector};
use xui_kernel::{KernelError, UintrKernel};
use xui_uipi_abi as abi;
use xui_sim::config::SystemConfig;
use xui_sim::isa::{AluKind, Inst, Op, Operand, Reg};
use xui_sim::trace::TraceKind;
use xui_sim::{Device, Program, System};

use crate::schedule::{Event, Schedule};
use crate::spec::{Oracle, Outcome};

/// A conventional vector no schedule ever registers for forwarding;
/// probing it must take the legacy path in every model.
const UNREGISTERED_VECTOR: u8 = 250;

/// Sender µcode + APIC transit latency used for the cycle-level replay
/// (the fig2 default).
const SIM_SEND_LATENCY: u64 = 140;

/// Extra spin cycles after the last send so in-flight deliveries land.
const SIM_SLACK: u64 = 50_000;

/// One observed disagreement between the oracle and a model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Which model disagreed: `"protocol"`, `"kernel"` or `"sim"`.
    pub model: String,
    /// Human-readable first point of disagreement.
    pub detail: String,
    /// What the oracle says should happen.
    pub oracle: Outcome,
    /// What the model actually did (delivery count only for `sim`).
    pub observed: Outcome,
}

/// A shrunk divergence plus the schedule that triggers it — the JSON
/// artifact the fuzzer emits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Minimal schedule that still diverges.
    pub schedule: Schedule,
    /// The divergence it produces.
    pub divergence: Divergence,
}

/// Knobs for [`check_with`] and [`shrink_with`]. The default is the
/// production differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOptions {
    /// Test-only: deliberately mis-pack the oracle's `UintrNc` status
    /// byte (SN rendered at bit 2 instead of bit 1) so the per-step
    /// byte differ provably catches packing bugs. Never set outside
    /// this crate's own tests.
    #[doc(hidden)]
    pub mispack_nc: bool,
}

/// The uniform surface the two untimed replays share.
trait ModelUnderTest {
    /// Applies one translated schedule step.
    fn apply(&mut self, step: Step) -> Result<(), String>;
    /// The receiver's UPID as its packed 64-byte ABI image.
    fn upid_bytes(&self) -> Result<[u8; abi::upid::UPID_BYTES], String>;
    fn outcome(&self) -> Result<Outcome, String>;
}

fn timer_mode(periodic: bool) -> TimerMode {
    if periodic {
        TimerMode::Periodic
    } else {
        TimerMode::OneShot
    }
}

/// The observable outcome of a model's receiver.
fn outcome_of(model: &ProtocolModel, receiver: ThreadId) -> Result<Outcome, String> {
    let upid = model.upid_of(receiver).map_err(|e| format!("{e:?}"))?;
    let delivered = model
        .delivered_log(receiver)
        .map_err(|e| format!("{e:?}"))?
        .iter()
        .map(|v| v.index() as u8)
        .collect();
    Ok(Outcome { delivered, on: upid.nc.on(), sn: upid.nc.sn(), pir: upid.puir })
}

struct ProtocolReplay {
    sys: ProtocolModel,
    sender: ThreadId,
    receiver: ThreadId,
    idx_by_lane: Vec<UittIndex>,
}

impl ProtocolReplay {
    fn new() -> Self {
        Self {
            sys: ProtocolModel::new(0),
            sender: ThreadId(0),
            receiver: ThreadId(0),
            idx_by_lane: Vec::new(),
        }
    }

    /// Resets every field, then builds `s`'s post-setup state.
    fn setup(&mut self, s: &Schedule) -> Result<(), String> {
        let Self { sys, sender, receiver, idx_by_lane } = self;
        sys.reset(usize::from(s.cores));
        idx_by_lane.clear();
        *sender = sys.create_thread();
        *receiver = sys.create_thread();
        let (sender, receiver) = (*sender, *receiver);
        sys.register_handler(receiver, 0x4000).map_err(|e| format!("{e:?}"))?;
        for &uv in &s.send_vectors {
            let uv = UserVector::new(uv & 63).map_err(|e| format!("{e:?}"))?;
            idx_by_lane
                .push(sys.register_sender(sender, receiver, uv).map_err(|e| format!("{e:?}"))?);
        }
        if let Some(tv) = s.timer_vector {
            let tv = UserVector::new(tv & 63).map_err(|e| format!("{e:?}"))?;
            sys.enable_kb_timer(receiver, tv).map_err(|e| format!("{e:?}"))?;
        }
        for fwd in &s.forwarded {
            let uv = UserVector::new(fwd.uv & 63).map_err(|e| format!("{e:?}"))?;
            for core in 0..s.cores {
                sys.register_forwarding(receiver, CoreId(usize::from(core)), Vector::new(fwd.vector), uv)
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        sys.schedule(sender, CoreId(0)).map_err(|e| format!("{e:?}"))
    }
}

impl ModelUnderTest for ProtocolReplay {
    fn apply(&mut self, step: Step) -> Result<(), String> {
        let (sys, receiver) = (&mut self.sys, self.receiver);
        match step {
            // The protocol model has no table-sharing layer: a
            // shared-table send is architecturally the same SENDUIPI.
            Step::Send(lane) | Step::ShareSend(lane) => {
                sys.senduipi(self.sender, self.idx_by_lane[lane])
            }
            Step::SendPreempted { core, lane } => sys
                .deschedule(CoreId(usize::from(core)))
                .and_then(|_| sys.senduipi(self.sender, self.idx_by_lane[lane])),
            Step::Schedule(core) => sys.schedule(receiver, CoreId(usize::from(core))),
            Step::Deschedule(core) => sys.deschedule(CoreId(usize::from(core))).map(drop),
            Step::Deliver => sys.run_pending(receiver).map(drop),
            Step::Clui => sys.clui(receiver),
            Step::Stui => sys.stui(receiver),
            Step::SetTimer { cycles, periodic } => {
                sys.set_timer(receiver, cycles, timer_mode(periodic))
            }
            Step::AdvanceTime(to) => {
                sys.advance_time(to);
                Ok(())
            }
            Step::DeviceIrq { vector, core } => sys
                .device_interrupt(CoreId(usize::from(core)), Vector::new(vector))
                .map(drop),
            // Kernel bookkeeping the protocol model does not have.
            Step::TeardownShared | Step::RegisterUntilEnospc => Ok(()),
        }
        .map_err(|e| format!("{e:?}"))
    }

    fn upid_bytes(&self) -> Result<[u8; abi::upid::UPID_BYTES], String> {
        Ok(self.sys.upid_of(self.receiver).map_err(|e| format!("{e:?}"))?.pack())
    }

    fn outcome(&self) -> Result<Outcome, String> {
        outcome_of(&self.sys, self.receiver)
    }
}

/// Per-table UITT capacity for the kernel replay: small enough that
/// `RegisterUntilEnospc` fills it in a handful of syscalls, large
/// enough for the generator's ≤ 6 send lanes.
const KERNEL_REPLAY_UITT_SLOTS: usize = 16;

struct KernelReplay {
    sys: UintrKernel,
    sender: ThreadId,
    receiver: ThreadId,
    /// Co-sender sharing `sender`'s UITT (clone-on-register at setup).
    sender2: ThreadId,
    /// False once `TeardownShared` has retired the co-sender.
    shared_alive: bool,
    /// Vector used for the throwaway `ENOSPC`-probe routes.
    spare: UserVector,
    idx_by_lane: Vec<UittIndex>,
    /// Scratch for the slots `register_until_enospc` claims.
    extras: Vec<UittIndex>,
}

impl KernelReplay {
    fn new() -> Self {
        Self {
            sys: UintrKernel::with_capacities(
                0,
                xui_kernel::uintr::DEFAULT_UPID_SLOTS,
                KERNEL_REPLAY_UITT_SLOTS,
            ),
            sender: ThreadId(0),
            receiver: ThreadId(0),
            sender2: ThreadId(0),
            shared_alive: false,
            spare: UserVector::from_truncated(0),
            idx_by_lane: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Resets every field, then builds `s`'s post-setup state.
    fn setup(&mut self, s: &Schedule) -> Result<(), String> {
        let Self { sys, sender, receiver, sender2, shared_alive, spare, idx_by_lane, extras } =
            self;
        sys.reset(usize::from(s.cores));
        *shared_alive = true;
        *spare = UserVector::from_truncated(0);
        idx_by_lane.clear();
        extras.clear();
        *sender = sys.create_thread();
        *receiver = sys.create_thread();
        let (sender, receiver) = (*sender, *receiver);
        sys.register_handler(receiver, 0x4000).map_err(|e| format!("{e:?}"))?;
        for &uv in &s.send_vectors {
            let uv = UserVector::new(uv & 63).map_err(|e| format!("{e:?}"))?;
            *spare = uv;
            idx_by_lane
                .push(sys.register_sender(sender, receiver, uv).map_err(|e| format!("{e:?}"))?);
        }
        // The co-sender joins the sender's table *after* the lanes are
        // registered, exercising clone-on-register.
        *sender2 = sys.create_thread();
        sys.share_uitt(sender, *sender2).map_err(|e| format!("{e:?}"))?;
        if let Some(tv) = s.timer_vector {
            let tv = UserVector::new(tv & 63).map_err(|e| format!("{e:?}"))?;
            sys.enable_kb_timer(receiver, tv).map_err(|e| format!("{e:?}"))?;
        }
        for fwd in &s.forwarded {
            let uv = UserVector::new(fwd.uv & 63).map_err(|e| format!("{e:?}"))?;
            for core in 0..s.cores {
                sys.register_forwarding(receiver, CoreId(usize::from(core)), Vector::new(fwd.vector), uv)
                    .map_err(|e| format!("{e:?}"))?;
            }
        }
        sys.schedule(sender, CoreId(0)).map_err(|e| format!("{e:?}"))
    }

    /// Tears down the shared co-sender (once; later teardowns are
    /// no-ops).
    fn teardown_shared(&mut self) -> Result<(), String> {
        if !self.shared_alive {
            return Ok(());
        }
        self.sys.teardown_thread(self.sender2).map_err(|e| format!("{e:?}"))?;
        self.shared_alive = false;
        Ok(())
    }

    /// Fills the sender's table to `ENOSPC`, then frees every extra slot.
    fn register_until_enospc(&mut self) -> Result<(), String> {
        let extras = &mut self.extras;
        extras.clear();
        let hit = loop {
            match self.sys.register_sender(self.sender, self.receiver, self.spare) {
                Ok(idx) => extras.push(idx),
                Err(KernelError::UittFull { .. }) => break true,
                Err(e) => return Err(format!("{e:?}")),
            }
            if extras.len() > 2 * KERNEL_REPLAY_UITT_SLOTS {
                break false;
            }
        };
        for idx in extras.iter() {
            self.sys.unregister_sender(self.sender, *idx).map_err(|e| format!("{e:?}"))?;
        }
        if !hit {
            return Err(format!(
                "register_sender never reported ENOSPC within {} registrations",
                extras.len()
            ));
        }
        Ok(())
    }
}

impl ModelUnderTest for KernelReplay {
    fn apply(&mut self, step: Step) -> Result<(), String> {
        let (sys, receiver) = (&mut self.sys, self.receiver);
        match step {
            Step::Send(lane) => sys.senduipi(self.sender, self.idx_by_lane[lane]),
            Step::SendPreempted { core, lane } => sys
                .deschedule(CoreId(usize::from(core)))
                .and_then(|_| sys.senduipi(self.sender, self.idx_by_lane[lane])),
            // While the co-sender lives, the send goes through its view
            // of the shared table; afterwards it falls back to the
            // primary sender — observably identical either way.
            Step::ShareSend(lane) => {
                let from = if self.shared_alive { self.sender2 } else { self.sender };
                sys.senduipi(from, self.idx_by_lane[lane])
            }
            Step::Schedule(core) => sys.schedule(receiver, CoreId(usize::from(core))),
            Step::Deschedule(core) => sys.deschedule(CoreId(usize::from(core))).map(drop),
            Step::Deliver => sys.run_pending(receiver).map(drop),
            Step::Clui => sys.clui(receiver),
            Step::Stui => sys.stui(receiver),
            Step::SetTimer { cycles, periodic } => {
                sys.set_timer(receiver, cycles, timer_mode(periodic))
            }
            Step::AdvanceTime(to) => {
                sys.advance_time(to);
                Ok(())
            }
            Step::DeviceIrq { vector, core } => sys
                .device_interrupt(CoreId(usize::from(core)), Vector::new(vector))
                .map(drop),
            Step::TeardownShared => return self.teardown_shared(),
            Step::RegisterUntilEnospc => return self.register_until_enospc(),
        }
        .map_err(|e| format!("{e:?}"))
    }

    fn upid_bytes(&self) -> Result<[u8; abi::upid::UPID_BYTES], String> {
        Ok(self.sys.model().upid_of(self.receiver).map_err(|e| format!("{e:?}"))?.pack())
    }

    fn outcome(&self) -> Result<Outcome, String> {
        outcome_of(self.sys.model(), self.receiver)
    }
}

/// First byte at which the two packed descriptors disagree, honoring
/// the ON-bit mask for the `SendPreempted` race window.
fn first_byte_diff(
    expect: &[u8; abi::upid::UPID_BYTES],
    got: &[u8; abi::upid::UPID_BYTES],
    mask_on: bool,
) -> Option<usize> {
    if expect == got {
        return None;
    }
    (0..abi::upid::UPID_BYTES).find(|&j| {
        let mask = if j == 0 && mask_on { !abi::nc::ON } else { 0xff };
        expect[j] & mask != got[j] & mask
    })
}

/// One schedule event as the untimed models see it, once the oracle's
/// totality guards have been applied. The guards depend only on the
/// schedule, so each event is translated once and the same step drives
/// both models.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// SENDUIPI on a lane.
    Send(usize),
    /// A send racing a context switch, rendered as deschedule-from-`core`
    /// then send: the racing window is unreachable through the untimed
    /// models' atomic senduipi, and this has the identical observable
    /// effect (see docs/ORACLE.md).
    SendPreempted { core: u8, lane: usize },
    Schedule(u8),
    Deschedule(u8),
    Deliver,
    Clui,
    Stui,
    SetTimer { cycles: u64, periodic: bool },
    AdvanceTime(u64),
    DeviceIrq { vector: u8, core: u8 },
    ShareSend(usize),
    TeardownShared,
    RegisterUntilEnospc,
}

/// The replay-side guard state: where the receiver runs and the current
/// time, tracked the way the oracle tracks them.
#[derive(Default)]
struct Guards {
    running: Option<u8>,
    now: u64,
}

impl Guards {
    /// Translates `ev`, or `None` for an event the oracle treats as a
    /// no-op (skipped against the models too).
    fn step(&mut self, schedule: &Schedule, ev: &Event) -> Option<Step> {
        Some(match *ev {
            Event::Send { uv } => Step::Send(lane_of(schedule, uv)),
            Event::SendPreempted { uv } => {
                let lane = lane_of(schedule, uv);
                match self.running.take() {
                    Some(core) => Step::SendPreempted { core, lane },
                    None => Step::Send(lane),
                }
            }
            Event::Schedule { core } => {
                if self.running.is_some() || core < 1 || core >= schedule.cores {
                    return None;
                }
                self.running = Some(core);
                Step::Schedule(core)
            }
            Event::Deschedule => Step::Deschedule(self.running.take()?),
            Event::Deliver => {
                self.running?;
                Step::Deliver
            }
            Event::Clui => Step::Clui,
            Event::Stui => Step::Stui,
            Event::SetTimer { cycles, periodic } => {
                if self.running.is_none() || schedule.timer_vector.is_none() {
                    return None;
                }
                Step::SetTimer { cycles: u64::from(cycles), periodic }
            }
            Event::AdvanceTime { dt } => {
                self.now += u64::from(dt);
                Step::AdvanceTime(self.now)
            }
            Event::DeviceIrq { line, core } => {
                if core >= schedule.cores {
                    return None;
                }
                let vector = schedule
                    .forwarded
                    .get(usize::from(line))
                    .map_or(UNREGISTERED_VECTOR, |f| f.vector);
                Step::DeviceIrq { vector, core }
            }
            Event::ShareUitt { uv } => Step::ShareSend(lane_of(schedule, uv)),
            Event::TeardownShared => Step::TeardownShared,
            Event::RegisterUntilEnospc => Step::RegisterUntilEnospc,
        })
    }
}

/// An untimed model under replay: `Ok` while it agrees with the oracle,
/// else the first error or byte-level divergence it showed. A model is
/// not driven past its first error.
type Replay<'a, M> = Result<&'a mut M, String>;

/// Both untimed models, kept across checks on one thread: every check
/// starts with [`ProtocolReplay::setup`] / [`KernelReplay::setup`],
/// which reset each model completely before the set-up syscalls.
struct Replayer {
    protocol: ProtocolReplay,
    kernel: KernelReplay,
}

thread_local! {
    static REPLAYER: RefCell<Replayer> =
        RefCell::new(Replayer { protocol: ProtocolReplay::new(), kernel: KernelReplay::new() });
}

/// Drives event `i` into a live model and compares the receiver's packed
/// UPID against the oracle's `expect` bytes; the first failure retires
/// the model with its error.
fn step_model<M: ModelUnderTest>(
    replay: &mut Replay<'_, M>,
    event: (usize, &Event),
    step: Option<Step>,
    expect: &[u8; abi::upid::UPID_BYTES],
    race_on: bool,
) {
    if let Ok(model) = replay {
        if let Err(e) = step_and_compare(&mut **model, event, step, expect, race_on) {
            *replay = Err(e);
        }
    }
}

fn step_and_compare<M: ModelUnderTest>(
    model: &mut M,
    (i, ev): (usize, &Event),
    step: Option<Step>,
    expect: &[u8; abi::upid::UPID_BYTES],
    race_on: bool,
) -> Result<(), String> {
    if let Some(step) = step {
        model.apply(step).map_err(|msg| format!("event {i} {ev:?}: {msg}"))?;
    }
    let got = model.upid_bytes().map_err(|e| format!("event {i} {ev:?}: {e}"))?;
    if let Some(j) = first_byte_diff(expect, &got, race_on) {
        return Err(format!(
            "upid ABI bytes diverge after event {i} ({ev:?}) at byte {j}: \
             oracle {:#04x} vs model {:#04x}",
            expect[j], got[j]
        ));
    }
    Ok(())
}

/// Quiesces a model exactly like the oracle (resume if out of context,
/// unmask, drain), compares the final packed UPID and returns the
/// model's outcome, or the first error it showed.
fn quiesce_model<M: ModelUnderTest>(
    replay: Replay<'_, M>,
    resume: bool,
    expect: &[u8; abi::upid::UPID_BYTES],
) -> Result<Outcome, String> {
    let model = replay?;
    if resume {
        model.apply(Step::Schedule(1)).map_err(|e| format!("quiesce schedule: {e}"))?;
    }
    model.apply(Step::Stui).map_err(|e| format!("quiesce stui: {e}"))?;
    model.apply(Step::Deliver).map_err(|e| format!("quiesce deliver: {e}"))?;
    let got = model.upid_bytes().map_err(|e| format!("quiesce: {e}"))?;
    if let Some(j) = first_byte_diff(expect, &got, false) {
        return Err(format!(
            "upid ABI bytes diverge after quiesce at byte {j}: oracle {:#04x} vs model {:#04x}",
            expect[j], got[j]
        ));
    }
    model.outcome()
}

/// What one lockstep replay of the untimed arm observed: the oracle's
/// outcome and each model's outcome or first error.
struct UntimedReplay {
    oracle: Outcome,
    protocol: Result<Outcome, String>,
    kernel: Result<Outcome, String>,
}

/// Replays `schedule` through one lockstep [`Oracle`] and both untimed
/// models at once. Each event's guards are evaluated once (so only
/// transitions the oracle considers meaningful reach the models), the
/// oracle steps once, and each model's receiver UPID, as *serialized ABI
/// bytes*, is compared with [`Oracle::upid_bytes`] after every event.
/// The one deliberate mask: after a `SendPreempted` whose stale-snapshot
/// IPI fired, the oracle keeps `ON = 1` while the untimed models'
/// deschedule-then-send rendering leaves `ON = 0`; the bit is masked
/// until the next resume clears it on both sides (see `docs/ORACLE.md`).
fn replay_untimed(replayer: &mut Replayer, schedule: &Schedule, opts: CheckOptions) -> UntimedReplay {
    let Replayer { protocol, kernel } = replayer;
    let mut protocol = protocol.setup(schedule).map(|()| protocol);
    let mut kernel = kernel.setup(schedule).map(|()| kernel);
    let mut oracle = Oracle::new(schedule);
    let mut guards = Guards::default();
    let mut race_on = false;
    for (i, ev) in schedule.events.iter().enumerate() {
        let step = guards.step(schedule, ev);
        // The race window opens when a preempted send's stale-snapshot
        // IPI fires (the oracle's pre-step state says it would) and
        // closes as soon as the oracle's ON clears (the next resume).
        if let Event::SendPreempted { .. } = ev {
            if oracle.running_on.is_some() && !oracle.sn && !oracle.on {
                race_on = true;
            }
        }
        oracle.step(ev);
        if !oracle.on {
            race_on = false;
        }
        if protocol.is_err() && kernel.is_err() {
            continue;
        }
        let mut expect = oracle.upid_bytes();
        if opts.mispack_nc {
            // The deliberately broken packer: SN rendered at bit 2.
            expect[0] = (expect[0] & abi::nc::ON) | (u8::from(oracle.sn) << 2);
        }
        step_model(&mut protocol, (i, ev), step, &expect, race_on);
        step_model(&mut kernel, (i, ev), step, &expect, race_on);
    }
    let resume = guards.running.is_none();
    oracle.quiesce();
    let expect = oracle.upid_bytes();
    UntimedReplay {
        protocol: quiesce_model(protocol, resume, &expect),
        kernel: quiesce_model(kernel, resume, &expect),
        oracle: oracle.outcome(),
    }
}

fn lane_of(schedule: &Schedule, uv: u8) -> usize {
    schedule
        .send_vectors
        .iter()
        .position(|&v| v == uv)
        .expect("generator draws send vectors from the registered lanes")
}

/// Cycle-level replay of a schedule's timed sends: one spinning
/// receiver core, one one-shot `UipiTimer` device per timed send.
/// Returns the number of handler entries.
fn replay_sim(schedule: &Schedule) -> Result<u64, String> {
    let sends = schedule.timed_sends();
    let last_at = sends.iter().map(|&(at, _)| at).max().unwrap_or(0);
    let spin = last_at + SIM_SEND_LATENCY + SIM_SLACK;
    let receiver = Program::new(
        "oracle-spin",
        vec![
            Inst::new(Op::Li { dst: Reg(1), imm: spin }),
            Inst::new(Op::Alu {
                kind: AluKind::Sub,
                dst: Reg(1),
                src: Reg(1),
                op2: Operand::Imm(1),
            }),
            Inst::new(Op::Bnez { src: Reg(1), target: 1 }),
            Inst::new(Op::Halt),
            Inst::new(Op::Alu {
                kind: AluKind::Add,
                dst: Reg(20),
                src: Reg(20),
                op2: Operand::Imm(1),
            }),
            Inst::new(Op::Uiret),
        ],
    );
    let mut sys = System::new(SystemConfig::uipi(), vec![receiver]);
    sys.register_receiver(0, 4);
    sys.cores[0].trace_enabled = true;
    let upid_addr = sys.cores[0].upid_addr;
    for &(at, uv) in &sends {
        sys.add_device(Device::UipiTimer {
            period: 1 << 40, // effectively one-shot
            next_fire: at,
            upid_addr,
            user_vector: uv,
            send_latency: SIM_SEND_LATENCY,
        });
    }
    sys.run_until_halted(spin.saturating_mul(8).saturating_add(2_000_000));
    let handler_entries = sys
        .trace_events()
        .iter()
        .filter(|e| e.core == 0 && e.kind == TraceKind::HandlerEntered)
        .count() as u64;
    let counted = sys.cores[0].reg(Reg(20));
    if handler_entries != counted {
        return Err(format!(
            "trace shows {handler_entries} handler entries but the handler ran {counted} times"
        ));
    }
    Ok(counted)
}

fn diverge(model: &str, detail: String, oracle: &Outcome, observed: Outcome) -> Divergence {
    Divergence {
        model: model.to_string(),
        detail,
        oracle: oracle.clone(),
        observed,
    }
}

fn compare(model: &str, oracle: &Outcome, observed: Result<Outcome, String>) -> Option<Divergence> {
    match observed {
        Err(detail) => Some(diverge(model, detail, oracle, Outcome::default())),
        Ok(observed) if observed != *oracle => {
            let detail = if observed.delivered == oracle.delivered {
                format!(
                    "descriptor state differs: oracle (on={}, sn={}, pir={:#x}) vs model (on={}, sn={}, pir={:#x})",
                    oracle.on, oracle.sn, oracle.pir, observed.on, observed.sn, observed.pir
                )
            } else {
                format!(
                    "delivery log differs: oracle {:?} vs model {:?}",
                    oracle.delivered, observed.delivered
                )
            };
            Some(diverge(model, detail, oracle, observed))
        }
        Ok(_) => None,
    }
}

/// The untimed arm: replays `schedule` through the oracle and both
/// untimed models and returns the oracle's outcome, or the first
/// divergence (protocol, then kernel).
fn check_untimed(schedule: &Schedule, opts: CheckOptions) -> Result<Outcome, Box<Divergence>> {
    let UntimedReplay { oracle, protocol, kernel } =
        REPLAYER.with(|r| replay_untimed(&mut r.borrow_mut(), schedule, opts));
    if let Some(d) = compare("protocol", &oracle, protocol) {
        return Err(Box::new(d));
    }
    if let Some(d) = compare("kernel", &oracle, kernel) {
        return Err(Box::new(d));
    }
    Ok(oracle)
}

/// The sim arm: replays `schedule`'s timed sends through the cycle-level
/// simulator and compares its delivery count with the oracle's.
fn check_sim(schedule: &Schedule, oracle: &Outcome) -> Option<Divergence> {
    match replay_sim(schedule) {
        Err(detail) => Some(diverge("sim", detail, oracle, Outcome::default())),
        Ok(count) if count != oracle.delivered.len() as u64 => {
            let detail = format!(
                "cycle model delivered {count} interrupts, oracle delivered {}",
                oracle.delivered.len()
            );
            let observed = Outcome { delivered: vec![], on: false, sn: false, pir: count };
            Some(diverge("sim", detail, oracle, observed))
        }
        Ok(_) => None,
    }
}

/// Checks one schedule against the protocol and kernel models (and the
/// cycle-level simulator when the schedule is sim-compatible). Returns
/// the first divergence in report order (protocol, kernel, sim),
/// unshrunk.
#[must_use]
pub fn check(schedule: &Schedule) -> Option<Divergence> {
    check_with(schedule, CheckOptions::default())
}

/// [`check`] with explicit [`CheckOptions`].
#[must_use]
pub fn check_with(schedule: &Schedule, opts: CheckOptions) -> Option<Divergence> {
    match check_untimed(schedule, opts) {
        Err(d) => Some(*d),
        Ok(oracle) if schedule.is_sim_compatible() => check_sim(schedule, &oracle),
        Ok(_) => None,
    }
}

/// Checks a list of timed sends `(at, uv)` toward one running receiver
/// (the schedule [`Schedule::from_timed_sends`] builds) against all
/// three models, and returns the oracle's outcome or the first
/// divergence in report order.
///
/// Unlike [`check`], the sim arm runs even when the schedule is not
/// sim-compatible: the fault-injection suite's conformance rows, whose
/// delayed posts can leave batches closer than
/// [`Schedule::SIM_MIN_GAP`], have always been replayed through the
/// cycle-level simulator and agree with it. At most 16 distinct vectors
/// fit the kernel replay's UITT.
///
/// # Errors
///
/// The first [`Divergence`] (protocol, kernel, then sim).
pub fn check_timed_sends(sends: &[(u64, u8)]) -> Result<Outcome, Box<Divergence>> {
    let schedule = Schedule::from_timed_sends(sends);
    let oracle = check_untimed(&schedule, CheckOptions::default())?;
    match check_sim(&schedule, &oracle) {
        Some(d) => Err(Box::new(d)),
        None => Ok(oracle),
    }
}

/// Shrinks a diverging schedule with ddmin over its event list: repeated
/// chunk deletion at halving granularity until no single event can be
/// removed without losing the divergence. Totality of the event
/// semantics guarantees every candidate subsequence is replayable, so
/// no re-legalization pass is needed.
#[must_use]
pub fn shrink(schedule: &Schedule) -> Schedule {
    shrink_with(schedule, CheckOptions::default())
}

/// [`shrink`] with explicit [`CheckOptions`] (the predicate must match
/// the one the divergence was found with).
#[must_use]
pub fn shrink_with(schedule: &Schedule, opts: CheckOptions) -> Schedule {
    let mut best = schedule.clone();
    if check_with(&best, opts).is_none() {
        return best;
    }
    let mut chunk = best.events.len().div_ceil(2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < best.events.len() {
            let end = (start + chunk).min(best.events.len());
            let mut candidate = best.clone();
            candidate.events.drain(start..end);
            if check_with(&candidate, opts).is_some() {
                best = candidate;
                progressed = true;
                // Do not advance: the next chunk slid into `start`.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            return best;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Generates, checks and (on divergence) shrinks the schedule for
/// `seed`. `sim_class` selects the sends-only generator whose schedules
/// also replay through the cycle-level simulator.
#[must_use]
pub fn fuzz_one(seed: u64, sim_class: bool) -> Option<Reproducer> {
    let schedule = if sim_class { Schedule::generate_sim(seed) } else { Schedule::generate(seed) };
    check(&schedule)?;
    let minimal = shrink(&schedule);
    let divergence = check(&minimal).expect("shrink preserves divergence");
    Some(Reproducer { schedule: minimal, divergence })
}

/// Renders a reproducer as deterministic pretty JSON (byte-identical
/// for the same divergence, regardless of thread count).
///
/// # Panics
///
/// Panics if serialization fails, which cannot happen for these types.
#[must_use]
pub fn reproducer_json(r: &Reproducer) -> String {
    serde_json::to_string_pretty(r).expect("reproducer serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ForwardLine;

    #[test]
    fn seeded_full_schedules_agree_across_models() {
        for seed in 0..200u64 {
            let s = Schedule::generate(seed);
            assert!(check(&s).is_none(), "seed {seed} diverged: {:?}", check(&s));
        }
    }

    #[test]
    fn seeded_sim_schedules_agree_across_all_three() {
        for seed in 0..10u64 {
            let s = Schedule::generate_sim(seed);
            assert!(s.is_sim_compatible());
            assert!(check(&s).is_none(), "seed {seed} diverged: {:?}", check(&s));
        }
    }

    #[test]
    fn a_seeded_divergence_shrinks_to_its_core() {
        // Build a wrong oracle on purpose by mutating a good schedule's
        // expected outcome path: a schedule whose delivery the models
        // agree on, then check that shrink keeps only what matters.
        // Since the real models agree with the oracle, synthesize the
        // divergence by shrinking against a predicate instead: remove
        // the only Send and the divergence disappears.
        let s = Schedule {
            seed: 0,
            cores: 2,
            send_vectors: vec![5],
            timer_vector: None,
            forwarded: vec![ForwardLine { vector: 32, uv: 9 }],
            events: vec![
                Event::Stui,
                Event::AdvanceTime { dt: 500 },
                Event::Send { uv: 5 },
                Event::Schedule { core: 1 },
                Event::Deliver,
                Event::Deschedule,
            ],
        };
        // No real divergence: shrink must be the identity.
        assert!(check(&s).is_none());
        assert_eq!(shrink(&s), s);
    }

    #[test]
    fn shared_table_schedule_agrees_across_models() {
        let s = Schedule {
            seed: 0,
            cores: 2,
            send_vectors: vec![3, 7],
            timer_vector: None,
            forwarded: vec![],
            events: vec![
                Event::RegisterUntilEnospc,
                Event::ShareUitt { uv: 3 },
                Event::Schedule { core: 1 },
                Event::Deliver,
                Event::TeardownShared,
                Event::ShareUitt { uv: 7 },
                Event::RegisterUntilEnospc,
                Event::Deliver,
                Event::TeardownShared,
            ],
        };
        assert!(check(&s).is_none(), "diverged: {:?}", check(&s));
    }

    #[test]
    fn mispacked_nc_is_caught_by_the_byte_differ_and_shrinks() {
        // A deliberately mis-packed UintrNc (SN rendered at bit 2) must
        // be caught by the per-step ABI byte compare on essentially any
        // schedule (the post-setup state has SN set), and ddmin must
        // shrink the reproducer to the bone.
        let opts = CheckOptions { mispack_nc: true };
        let s = Schedule::generate(1);
        let d = check_with(&s, opts).expect("mis-packed NC must diverge");
        assert!(d.detail.contains("ABI bytes"), "unexpected detail: {}", d.detail);
        assert!(d.detail.contains("byte 0"), "SN lives in byte 0: {}", d.detail);
        let minimal = shrink_with(&s, opts);
        assert!(
            minimal.events.len() <= 2,
            "ddmin should shrink to one or two events, got {:?}",
            minimal.events
        );
        let d = check_with(&minimal, opts).expect("shrink preserves the divergence");
        assert!(d.detail.contains("ABI bytes"));
        // The production differ sees nothing wrong with the same
        // schedule: the divergence is the injected mis-pack, not a
        // model bug.
        assert!(check(&minimal).is_none());
    }

    #[test]
    fn shrunk_reproducer_parses_back_and_replays_to_the_same_divergence() {
        let opts = CheckOptions { mispack_nc: true };
        let schedule = shrink_with(&Schedule::generate(1), opts);
        let divergence = check_with(&schedule, opts).expect("mis-packed NC must diverge");
        let r = Reproducer { schedule, divergence };
        let parsed: Reproducer =
            serde_json::from_str(&reproducer_json(&r)).expect("reproducer parses back");
        assert_eq!(parsed, r);
        assert_eq!(check_with(&parsed.schedule, opts), Some(r.divergence));
    }

    #[test]
    fn timed_sends_agree_across_all_three_and_deliver_in_time_order() {
        let out = check_timed_sends(&[(2_000, 5), (6_000, 7)]).expect("models agree");
        assert_eq!(out.delivered, vec![5, 7]);
        assert_eq!(out.pir, 0, "everything drains");
    }

    #[test]
    fn timed_same_cycle_duplicates_coalesce_in_every_model() {
        // What a duplicate-every-post fault leaves: each send posted
        // twice in its cycle. Four sends, two deliveries.
        let out = check_timed_sends(&[(2_000, 5), (2_000, 5), (6_000, 7), (6_000, 7)])
            .expect("models agree");
        assert_eq!(out.delivered, vec![5, 7]);
    }

    #[test]
    fn timed_sends_with_a_dropped_post_deliver_the_survivors() {
        // The middle send of (2 000, 5), (6 000, 7), (10 000, 3) dropped.
        let out = check_timed_sends(&[(2_000, 5), (10_000, 3)]).expect("models agree");
        assert_eq!(out.delivered, vec![5, 3]);
    }

    #[test]
    fn timed_same_cycle_batch_delivers_highest_vector_first() {
        let out = check_timed_sends(&[(3_000, 2), (3_000, 9)]).expect("models agree");
        assert_eq!(out.delivered, vec![9, 2]);
    }

    #[test]
    fn no_timed_sends_deliver_nothing() {
        let out = check_timed_sends(&[]).expect("models agree");
        assert!(out.delivered.is_empty());
    }

    #[test]
    fn timed_sends_closer_than_the_sim_gap_still_replay_in_full() {
        // A 1 000-cycle delayed post leaves a batch gap below
        // SIM_MIN_GAP, so `check` would skip the sim arm; this entry
        // replays it anyway and every model delivers all three.
        let sends = [(2_000, 5), (3_000, 7), (6_000, 9), (6_000, 1)];
        assert!(!Schedule::from_timed_sends(&sends).is_sim_compatible());
        let out = check_timed_sends(&sends).expect("models agree");
        assert_eq!(out.delivered, vec![5, 7, 9, 1]);
    }

    #[test]
    fn reproducer_json_is_deterministic() {
        let r = Reproducer {
            schedule: Schedule::generate(3),
            divergence: Divergence {
                model: "protocol".into(),
                detail: "synthetic".into(),
                oracle: Outcome { delivered: vec![1], on: false, sn: false, pir: 0 },
                observed: Outcome::default(),
            },
        };
        let json = reproducer_json(&r);
        assert_eq!(json, reproducer_json(&r.clone()));
        assert!(json.contains("\"model\": \"protocol\""));
        assert!(json.contains("\"seed\": 3"));
    }
}
