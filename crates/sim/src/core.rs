//! The cycle-level out-of-order core model.
//!
//! One [`Core`] implements a decoupled front-end (fetch + branch
//! prediction + MSROM sequencing), an out-of-order backend (ROB, issue
//! queue, functional units, load/store queues), and the three interrupt
//! delivery strategies of §3.5/§4.2: **flush**, **drain**, and xUI
//! **tracking**, plus hardware safepoint gating (§4.4).
//!
//! The scheduler never rescans the ROB. Each producer heads an intrusive
//! wake-up list of the consumers waiting on it (no allocation per µop),
//! and bit sets over ROB slots hold the Ready, unresolved-branch and
//! live-microcode µops. A tick that changes nothing reports the first
//! cycle at which the core can change on its own ([`Core::wake_at`]):
//! until then every tick is a no-op, so [`crate::System`] jumps its clock
//! over those cycles instead of ticking them.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::branch::BranchPredictor;
use crate::config::{CoreConfig, DeliveryStrategy};
use crate::isa::{AluKind, Inst, Op, Operand, Pc, Program, Reg, SetTimerMode, MSROM_BASE, REG_COUNT};
use crate::mem::MemorySystem;
use crate::microcode::{MicroOp, Msrom, Routine};
use crate::trace::{TraceEvent, TraceKind};

/// Functional-unit classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fu {
    /// Integer ALU.
    #[default]
    Int,
    /// Integer multiplier.
    Mult,
    /// Floating point.
    Fp,
    /// Load port.
    Load,
    /// Store port.
    Store,
}

/// Internal µop kinds (post-decode). A kind's wide operand — an
/// immediate, an address offset, a target or return PC, a UITT index —
/// lives in [`Uop::imm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    #[default]
    Int,
    /// `dst = src op b`, `b` the immediate if `imm`, else the second source.
    Alu { kind: AluKind, imm: bool },
    /// `dst = imm`.
    Li,
    /// Loads the word at `src + imm`.
    Load,
    /// Stores the second source to `src + imm`.
    Store,
    /// Microcode push of the interrupted PC (`imm`) to `SP + PUSH_PC_OFFSET`.
    PushPcU,
    /// Conditional branch to `imm`, falling through to `pc + 1`.
    Branch { on_zero: bool, predicted: bool },
    Testui,
    CluiU,
    StuiU,
    /// Arms the KB_Timer for `imm` cycles.
    SetTimerU { periodic: bool },
    ClearTimerU,
    SendUipiMarker,
    /// Reads UITT entry `imm`.
    UittLoadU,
    /// Posts through UITT entry `imm`.
    UpidPostU,
    IcrWriteU,
    UpidDrainU,
    DeliverTakeU,
    DeliverCluiU,
    /// Enters the handler; the interrupted PC (`imm`) is pushed as its
    /// frame at commit.
    JumpHandlerU,
    UiretU,
    HaltU,
}

/// Where delivery's PushPc stores the interrupted PC, below SP.
const PUSH_PC_OFFSET: i64 = -16;

/// A decoded µop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Uop {
    kind: Kind,
    fu: Fu,
    srcs: [Option<Reg>; 2],
    dst: Option<Reg>,
    from_interrupt: bool,
    is_program: bool,
    /// True for MSROM-sourced µops: microcode is sequenced serially, so
    /// each such µop implicitly depends on the previous one.
    micro: bool,
    latency: u32,
    pc: u32,
    /// The kind's wide operand (see [`Kind`]).
    imm: u64,
}

impl Uop {
    fn pc(self) -> Pc {
        self.pc as Pc
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Ready,
    /// In the in-flight list, which holds its completion cycle.
    Executing,
    #[default]
    Done,
}

/// A link in a producer's wake-up list: a consumer's sequence number
/// and which of its three dependence slots waits, packed as `seq * 4 +
/// slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter(u64);

impl Waiter {
    /// The end of a list.
    const NONE: Self = Self(u64::MAX);

    fn new(seq: u64, slot: usize) -> Self {
        Self(seq << 2 | slot as u64)
    }

    fn get(self) -> Option<(u64, usize)> {
        (self != Self::NONE).then_some((self.0 >> 2, (self.0 & 3) as usize))
    }
}

impl Default for Waiter {
    fn default() -> Self {
        Self::NONE
    }
}

/// A dependence slot that waits on nothing.
const NO_DEP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RobEntry {
    seq: u64,
    uop: Uop,
    /// The producer each dependence slot waits on (two sources, then the
    /// previous microcode µop), or [`NO_DEP`].
    deps: [u64; 3],
    src_vals: [u64; 2],
    deps_remaining: u8,
    state: EntryState,
    result: u64,
    /// The youngest consumer waiting on this µop's result.
    waiters: Waiter,
    /// For each pending dependence slot: the next older consumer
    /// waiting on the same producer.
    next_waiter: [Waiter; 3],
}

impl RobEntry {
    /// A store's address and the data it writes (valid once its
    /// sources are in); `None` for any other µop.
    fn store(&self) -> Option<(u64, u64)> {
        let (offset, data) = match self.uop.kind {
            Kind::Store => (self.uop.imm as i64, self.src_vals[1]),
            Kind::PushPcU => (PUSH_PC_OFFSET, self.uop.imm),
            _ => return None,
        };
        Some((self.src_vals[0].wrapping_add_signed(offset), data))
    }

    /// A branch's direction and the PC it leads to (valid once its
    /// condition is in).
    fn branch_outcome(&self) -> (bool, Pc) {
        let on_zero = matches!(self.uop.kind, Kind::Branch { on_zero: true, .. });
        let taken = (self.src_vals[0] == 0) == on_zero;
        (taken, if taken { self.uop.imm as Pc } else { self.uop.pc() + 1 })
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Fetched {
    uop: Uop,
    ready_at: u64,
}

/// The slot count of a ring or set holding up to `capacity` elements: a
/// power of two, so a position maps to its slot with a mask, and at
/// least one 64-bit word of [`SeqSet`] bits.
fn slot_count(capacity: usize) -> usize {
    capacity.next_power_of_two().max(64)
}

/// A fixed ring addressed by absolute position: the live elements are
/// the positions `head..tail`, and position `p` sits in slot `p & mask`.
/// The ROB's positions are its µops' sequence numbers. Slots outside the
/// live window hold stale elements, which equality and `Debug` ignore.
#[derive(Clone)]
struct Ring<T> {
    slots: Vec<T>,
    mask: u64,
    head: u64,
    tail: u64,
}

impl<T: Copy + Default> Ring<T> {
    fn new(capacity: usize) -> Self {
        let slots = slot_count(capacity);
        Self {
            slots: vec![T::default(); slots],
            mask: slots as u64 - 1,
            head: 0,
            tail: 0,
        }
    }

    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    fn get(&self, pos: u64) -> Option<&T> {
        (self.head..self.tail).contains(&pos).then(|| &self.slots[(pos & self.mask) as usize])
    }

    fn front(&self) -> Option<&T> {
        self.get(self.head)
    }

    fn back(&self) -> Option<&T> {
        self.tail.checked_sub(1).and_then(|pos| self.get(pos))
    }

    /// Writes `value` at the tail, in its slot, and returns its position.
    fn push_back(&mut self, value: T) -> u64 {
        assert!(self.len() < self.slots.len(), "ring overflow");
        let pos = self.tail;
        self.slots[(pos & self.mask) as usize] = value;
        self.tail += 1;
        pos
    }

    fn pop_front(&mut self) -> Option<T> {
        let value = *self.front()?;
        self.head += 1;
        Some(value)
    }

    fn pop_back(&mut self) -> Option<T> {
        let value = *self.back()?;
        self.tail -= 1;
        Some(value)
    }

    fn clear(&mut self) {
        self.head = self.tail;
    }

    /// The live elements, oldest first.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        (self.head..self.tail).map(move |pos| &self.slots[(pos & self.mask) as usize])
    }
}

impl<T> Index<u64> for Ring<T> {
    type Output = T;

    fn index(&self, pos: u64) -> &T {
        debug_assert!((self.head..self.tail).contains(&pos), "position {pos} not live");
        &self.slots[(pos & self.mask) as usize]
    }
}

impl<T> IndexMut<u64> for Ring<T> {
    fn index_mut(&mut self, pos: u64) -> &mut T {
        debug_assert!((self.head..self.tail).contains(&pos), "position {pos} not live");
        &mut self.slots[(pos & self.mask) as usize]
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for Ring<T> {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.tail == other.tail && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("head", &self.head)
            .field("live", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// A set of in-ROB sequence numbers, one bit per ROB slot (`seq &
/// mask`, the ROB ring's slots). The ROB holds at most `rob_size <=
/// slots` consecutive sequence numbers, so no two live µops share a
/// slot, and a circular scan from a live µop's slot meets the younger
/// members in age order.
#[derive(Debug, Clone, PartialEq)]
struct SeqSet {
    words: Vec<u64>,
    mask: u64,
    len: usize,
}

impl SeqSet {
    /// An empty set over `slots` slots, a power of two and a multiple of
    /// 64 (see [`slot_count`]).
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= 64);
        Self {
            words: vec![0; slots / 64],
            mask: slots as u64 - 1,
            len: 0,
        }
    }

    fn bit(&self, seq: u64) -> (usize, u64) {
        let slot = seq & self.mask;
        ((slot / 64) as usize, 1 << (slot % 64))
    }

    /// Adds `seq`, which must not be a member.
    fn insert(&mut self, seq: u64) {
        let (w, b) = self.bit(seq);
        debug_assert!(self.words[w] & b == 0, "seq {seq} inserted twice");
        self.words[w] |= b;
        self.len += 1;
    }

    /// Removes `seq`, which must be a member.
    fn remove(&mut self, seq: u64) {
        let (w, b) = self.bit(seq);
        debug_assert!(self.words[w] & b != 0, "seq {seq} removed but absent");
        self.words[w] &= !b;
        self.len -= 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The oldest member in `from..end`, for `from..end` inside the
    /// ROB's sequence window.
    fn first_in(&self, from: u64, end: u64) -> Option<u64> {
        if self.len == 0 || from >= end {
            return None;
        }
        let span = end - from;
        let start = from & self.mask;
        let mut w = (start / 64) as usize;
        let mut bits = self.words[w] & (!0u64 << (start % 64));
        // Each later word starts 64 slots further from `start`; stop once
        // a word starts past `end`. A member older than `from` (and no
        // older than the ROB head) lies at least `slots - (from - head)`
        // >= `span` slots on, so it maps past `end` and is not returned.
        let mut word_start = 64 - start % 64;
        loop {
            if bits != 0 {
                let slot = w as u64 * 64 + u64::from(bits.trailing_zeros());
                let seq = from + (slot.wrapping_sub(start) & self.mask);
                return (seq < end).then_some(seq);
            }
            if word_start >= span {
                return None;
            }
            word_start += 64;
            w = if w + 1 == self.words.len() { 0 } else { w + 1 };
            bits = self.words[w];
        }
    }
}

/// Which reception routine an accepted interrupt needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IrqKind {
    /// UIPI notification: notification processing + delivery.
    Notif,
    /// KB_Timer / forwarded device: delivery only.
    DeliverOnly,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IrqState {
    Idle,
    FlushSquashing { kind: IrqKind },
    Draining { kind: IrqKind },
    WaitSafepoint { kind: IrqKind },
    Injected { committed: bool },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Recovery {
    branch_seq: u64,
    redirect_pc: Pc,
}

/// A UITT entry as configured into a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimUittEntry {
    /// Destination thread's UPID address in simulated memory.
    pub upid_addr: u64,
    /// The 6-bit user vector to post.
    pub user_vector: u8,
}

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Committed program instructions (µops from MSROM excluded).
    pub committed_insts: u64,
    /// Committed µops (program + microcode).
    pub committed_uops: u64,
    /// µops squashed by mispredictions or interrupt flushes.
    pub squashed_uops: u64,
    /// User interrupts delivered (JumpHandler commits).
    pub interrupts_delivered: u64,
    /// `uiret` commits.
    pub uirets: u64,
    /// Branch mispredictions recovered.
    pub mispredict_recoveries: u64,
    /// Interrupt-flush events (flush strategy only).
    pub irq_flushes: u64,
    /// Tracked-interrupt re-injections after misprediction flushes.
    pub irq_reinjections: u64,
    /// Cycle the core halted, if it has.
    pub halted_at: Option<u64>,
}

/// Per-delivered-interrupt timing record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrqTiming {
    /// Cycle the interrupt was accepted by the core.
    pub accepted_at: u64,
    /// Cycle the microcode was injected into the µop stream.
    pub injected_at: u64,
    /// Cycle the handler was entered (JumpHandler commit).
    pub handler_at: u64,
    /// Cycle the matching `uiret` committed (0 until it does).
    pub uiret_at: u64,
}

/// UPID field layout within the two 64-bit words at `upid_addr`,
/// re-derived from the single bit-accurate source in [`xui_uipi_abi`]:
/// low word bit 0 = ON, bit 1 = SN, bits 32.. = NDST; high word = PIR.
pub mod upid_words {
    use core::mem::offset_of;

    /// ON bit in the low word.
    pub const ON: u64 = xui_uipi_abi::nc::ON as u64;
    /// SN bit in the low word.
    pub const SN: u64 = xui_uipi_abi::nc::SN as u64;
    /// Shift of the NDST field in the low word (byte offset of the
    /// packed `ndst` field, in bits).
    pub const NDST_SHIFT: u32 = 8 * offset_of!(xui_uipi_abi::UintrNc, ndst) as u32;

    // The simulator's word bridge and the packed ABI form must agree.
    const _: () = assert!(ON == 1 && SN == 2 && NDST_SHIFT == 32);
}

/// One simulated out-of-order core.
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    /// Core index (== its APIC id in the simulated system).
    pub id: usize,
    cfg: CoreConfig,
    strategy: DeliveryStrategy,
    program: Program,
    msrom: Msrom,

    // ---- front end ----
    fetch_pc: Pc,
    fetch_enabled: bool,
    fetch_stall_until: u64,
    fetch_buffer: Ring<Fetched>,
    predictor: BranchPredictor,
    msrom_return: Pc,
    msrom_arg: usize,
    irq: IrqState,
    irq_kind_pending: Option<IrqKind>,
    irq_return_pc: Pc,
    frame_stack_spec: Vec<Pc>,
    /// Safepoint-only delivery mode (§4.4).
    pub safepoint_mode: bool,

    // ---- backend ----
    /// The ROB: a ring over sequence numbers, `rob.head` the oldest
    /// µop's and `rob.tail` the next to dispatch.
    rob: Ring<RobEntry>,
    // Scheduler state, kept in step with the ROB where entries change
    // state (dispatch, issue, complete, squash) so no stage rescans it.
    /// Entries in `Ready`.
    ready: SeqSet,
    /// `(done_at, seq)` of every `Executing` entry.
    in_flight: Vec<(u64, u64)>,
    /// Branches not yet `Done`.
    unresolved_branches: SeqSet,
    /// Microcode µops not yet `Done`, and how many came from an
    /// interrupt.
    live_micro: SeqSet,
    live_irq_micro: usize,
    /// Sequence numbers of the ROB's stores, oldest first: the store
    /// queue.
    stores: Ring<u64>,
    /// Scratch buffer for one cycle's completions.
    due: Vec<u64>,
    rename: [Option<u64>; REG_COUNT],
    regs: [u64; REG_COUNT],
    iq_count: usize,
    lq_count: usize,
    recovery: Option<Recovery>,
    next_commit_pc: Pc,
    halted: bool,
    /// See [`Core::wake_at`].
    wake_at: u64,
    last_micro_seq: Option<u64>,
    /// True while the micro-sequencer owns the front-end: set when a
    /// routine's final µop is fetched, cleared when the routine's serial
    /// chain finishes executing. Normal fetch is blocked meanwhile —
    /// this is what makes microcode sequencing cost front-end bandwidth.
    msrom_wait: bool,

    // ---- architectural user-interrupt state ----
    uif: bool,
    uirr: u64,
    last_taken_vector: u64,
    /// This thread's UPID address in simulated memory.
    pub upid_addr: u64,
    /// Registered user handler entry PC.
    pub handler_pc: Pc,
    uitt: Vec<SimUittEntry>,
    frames: Vec<Pc>,
    pending_notif: bool,
    ipi_flag: Option<usize>, // dest core decided by UpidPost
    pending_ipi: Option<usize>, // dest core of an ICR write this cycle

    // ---- KB timer ----
    kbt_enabled: bool,
    kbt_vector: u8,
    kbt_deadline: Option<u64>,
    kbt_period: Option<u64>,

    // ---- measurement ----
    /// Execution statistics.
    pub stats: CoreStats,
    /// Per-interrupt timing records.
    pub irq_timings: Vec<IrqTiming>,
    current_irq: IrqTiming,
    /// Trace events (cycle, kind), recorded when `trace_enabled`.
    pub trace: Vec<TraceEvent>,
    /// Enables per-event tracing (Fig 2 timeline).
    pub trace_enabled: bool,
}

impl Core {
    /// Creates a core running `program` with the given strategy.
    #[must_use]
    pub fn new(
        id: usize,
        cfg: CoreConfig,
        strategy: DeliveryStrategy,
        program: Program,
    ) -> Self {
        let mut regs = [0u64; REG_COUNT];
        regs[Reg::SP.index()] = 0x0100_0000 + (id as u64) * 0x1_0000;
        let rob = Ring::new(cfg.rob_size);
        let slots = rob.slots.len();
        let fetch_buffer = Ring::new(cfg.fetch_queue_size);
        let stores = Ring::new(cfg.sq_size);
        Self {
            id,
            cfg,
            strategy,
            program,
            msrom: Msrom::new(),
            fetch_pc: 0,
            fetch_enabled: true,
            fetch_stall_until: 0,
            fetch_buffer,
            predictor: BranchPredictor::new(),
            msrom_return: 0,
            msrom_arg: 0,
            irq: IrqState::Idle,
            irq_kind_pending: None,
            irq_return_pc: 0,
            frame_stack_spec: Vec::new(),
            safepoint_mode: false,
            stores,
            rob,
            ready: SeqSet::new(slots),
            in_flight: Vec::new(),
            unresolved_branches: SeqSet::new(slots),
            live_micro: SeqSet::new(slots),
            live_irq_micro: 0,
            due: Vec::new(),
            rename: [None; REG_COUNT],
            regs,
            iq_count: 0,
            lq_count: 0,
            recovery: None,
            next_commit_pc: 0,
            halted: false,
            wake_at: 0,
            last_micro_seq: None,
            msrom_wait: false,
            uif: true,
            uirr: 0,
            last_taken_vector: 0,
            upid_addr: 0x2000_0000 + (id as u64) * 64,
            handler_pc: 0,
            uitt: Vec::new(),
            frames: Vec::new(),
            pending_notif: false,
            ipi_flag: None,
            pending_ipi: None,
            kbt_enabled: false,
            kbt_vector: 0,
            kbt_deadline: None,
            kbt_period: None,
            stats: CoreStats::default(),
            irq_timings: Vec::new(),
            current_irq: IrqTiming::default(),
            trace: Vec::new(),
            trace_enabled: false,
        }
    }

    /// Registers the user-interrupt handler entry point.
    pub fn set_handler(&mut self, pc: Pc) {
        self.handler_pc = pc;
    }

    /// Adds a UITT entry, returning its index for `senduipi`.
    pub fn add_uitt_entry(&mut self, entry: SimUittEntry) -> usize {
        self.uitt.push(entry);
        self.uitt.len() - 1
    }

    /// Sets an architectural register (workload setup).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs[reg.index()] = value;
    }

    /// Reads an architectural register (post-run inspection).
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.index()]
    }

    /// Enables the KB_Timer with a user vector (kernel-side
    /// `enable_kb_timer()`).
    pub fn enable_kb_timer(&mut self, vector: u8) {
        self.kbt_enabled = true;
        self.kbt_vector = vector & 63;
    }

    /// True once the core has committed `Halt` and drained.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The first cycle at which [`Core::tick`] can change the core's
    /// state without outside input (a posted interrupt, a notification,
    /// a setter call): the cycle after the last tick if that tick changed
    /// anything; after a tick that changed nothing, the earliest pending
    /// completion, front-end arrival, fetch-stall end or KB_Timer
    /// deadline; `u64::MAX` once halted. Every tick before it is a no-op.
    #[must_use]
    pub fn wake_at(&self) -> u64 {
        self.wake_at
    }

    /// Posts a forwarded device interrupt / timer vector straight into
    /// UIRR (the xUI fast path: no UPID involved, §4.5).
    pub fn post_direct(&mut self, user_vector: u8) {
        self.uirr |= 1u64 << (user_vector & 63);
    }

    /// Signals arrival of a conventional IPI on the UIPI notification
    /// vector (§3.3 step 3).
    pub fn post_notification(&mut self, now: u64) {
        self.pending_notif = true;
        self.trace_event(now, TraceKind::IpiArrive);
    }

    /// Pending user-interrupt request bits (diagnostics).
    #[must_use]
    pub fn uirr(&self) -> u64 {
        self.uirr
    }

    fn trace_event(&mut self, cycle: u64, kind: TraceKind) {
        if self.trace_enabled {
            self.trace.push(TraceEvent {
                cycle,
                core: self.id,
                kind,
            });
        }
    }

    // ------------------------------------------------------------------
    // Decode
    // ------------------------------------------------------------------

    fn uop_common(kind: Kind, fu: Fu, latency: u64, pc: Pc) -> Uop {
        Uop {
            kind,
            fu,
            latency: u32::try_from(latency).expect("µop latency fits in 32 bits"),
            pc: u32::try_from(pc).expect("PC fits in 32 bits"),
            ..Uop::default()
        }
    }

    /// `dst = src op op2` on unit `fu`, taking `latency` cycles.
    fn alu_uop(op: (AluKind, Fu, u64), pc: Pc, dst: Reg, src: Reg, op2: Operand) -> Uop {
        let (kind, fu, latency) = op;
        let (imm, src2) = match op2 {
            Operand::Imm(i) => (Some(i as u64), None),
            Operand::Reg(r) => (None, Some(r)),
        };
        let mut u = Self::uop_common(Kind::Alu { kind, imm: imm.is_some() }, fu, latency, pc);
        u.imm = imm.unwrap_or(0);
        u.srcs = [Some(src), src2];
        u.dst = Some(dst);
        u
    }

    /// Decodes one program instruction into a µop and computes the next
    /// fetch PC (with branch prediction). Returns `None` for pure
    /// redirects.
    fn decode_program(&mut self, inst: Inst, pc: Pc) -> Option<Uop> {
        let mut next = pc + 1;
        let uop = match inst.op {
            Op::Nop => Some(Self::uop_common(Kind::Int, Fu::Int, 1, pc)),
            Op::Alu { kind, dst, src, op2 } => {
                Some(Self::alu_uop((kind, Fu::Int, 1), pc, dst, src, op2))
            }
            Op::Li { dst, imm } => {
                let mut u = Self::uop_common(Kind::Li, Fu::Int, 1, pc);
                u.imm = imm;
                u.dst = Some(dst);
                Some(u)
            }
            Op::Mul { dst, src, op2 } => Some(Self::alu_uop(
                (AluKind::Add, Fu::Mult, self.cfg.mult_latency),
                pc,
                dst,
                src,
                op2,
            )),
            Op::Fp { dst, src, op2 } => Some(Self::alu_uop(
                (AluKind::Add, Fu::Fp, self.cfg.fp_latency),
                pc,
                dst,
                src,
                op2,
            )),
            Op::Load { dst, base, offset } => {
                let mut u = Self::uop_common(Kind::Load, Fu::Load, 0, pc);
                u.imm = offset as u64;
                u.srcs = [Some(base), None];
                u.dst = Some(dst);
                Some(u)
            }
            Op::Store { src, base, offset } => {
                let mut u = Self::uop_common(Kind::Store, Fu::Store, 1, pc);
                u.imm = offset as u64;
                u.srcs = [Some(base), Some(src)];
                Some(u)
            }
            Op::Beqz { src, target } | Op::Bnez { src, target } => {
                let on_zero = matches!(inst.op, Op::Beqz { .. });
                let predicted = self.predictor.predict(pc);
                next = if predicted { target } else { pc + 1 };
                let mut u = Self::uop_common(Kind::Branch { on_zero, predicted }, Fu::Int, 1, pc);
                u.imm = target as u64;
                u.srcs = [Some(src), None];
                Some(u)
            }
            Op::Jmp { target } => {
                next = target;
                Some(Self::uop_common(Kind::Int, Fu::Int, 1, pc))
            }
            Op::SendUipi { index } => {
                // Call into the MSROM routine; 57 µops follow.
                self.msrom_return = pc + 1;
                self.msrom_arg = index;
                next = MSROM_BASE + self.msrom.senduipi.start;
                Some(Self::uop_common(Kind::SendUipiMarker, Fu::Int, 1, pc))
            }
            Op::Uiret => {
                next = self.frame_stack_spec.pop().unwrap_or(pc + 1);
                Some(Self::uop_common(Kind::UiretU, Fu::Int, self.cfg.uiret_latency, pc))
            }
            Op::Clui => {
                // clui/stui manipulate the UIF MSR: modeled as
                // pipeline-owning µops so their measured costs (Table 2:
                // 2 and 32 cycles) appear even in high-slack code.
                let mut u = Self::uop_common(Kind::CluiU, Fu::Int, self.cfg.clui_latency, pc);
                u.micro = true;
                Some(u)
            }
            Op::Stui => {
                let mut u = Self::uop_common(Kind::StuiU, Fu::Int, self.cfg.stui_latency, pc);
                u.micro = true;
                Some(u)
            }
            Op::Testui { dst } => {
                let mut u = Self::uop_common(Kind::Testui, Fu::Int, 1, pc);
                u.dst = Some(dst);
                Some(u)
            }
            Op::SetTimer { cycles, mode } => {
                let periodic = matches!(mode, SetTimerMode::Periodic);
                let mut u = Self::uop_common(Kind::SetTimerU { periodic }, Fu::Int, 4, pc);
                u.imm = cycles;
                Some(u)
            }
            Op::ClearTimer => Some(Self::uop_common(Kind::ClearTimerU, Fu::Int, 4, pc)),
            Op::Halt => {
                self.fetch_enabled = false;
                Some(Self::uop_common(Kind::HaltU, Fu::Int, 1, pc))
            }
        };
        self.fetch_pc = next;
        uop.map(|mut u| {
            u.is_program = true;
            u
        })
    }

    /// Decodes one MSROM µop; returns `None` for pure sequencer
    /// redirects. The serializing MSR writes (UpidPost, IcrWrite) need
    /// no flag of their own: the micro chain plus their long latency
    /// pause the whole pipeline while microcode runs.
    fn decode_msrom(&mut self, mop: MicroOp, pc: Pc, from_interrupt: bool) -> Option<Uop> {
        let mut next = pc + 1;
        let uop = match mop {
            MicroOp::Seq { latency } | MicroOp::MsrAccess { latency } => {
                Some(Self::uop_common(Kind::Int, Fu::Int, u64::from(latency), pc))
            }
            MicroOp::UittLoad | MicroOp::UpidPost => {
                let kind = if mop == MicroOp::UittLoad { Kind::UittLoadU } else { Kind::UpidPostU };
                let mut u = Self::uop_common(kind, Fu::Load, 0, pc);
                u.imm = self.msrom_arg as u64;
                Some(u)
            }
            MicroOp::IcrWrite => Some(Self::uop_common(
                Kind::IcrWriteU,
                Fu::Int,
                self.cfg.msr_write_latency,
                pc,
            )),
            MicroOp::UpidDrain => {
                let mut u = Self::uop_common(Kind::UpidDrainU, Fu::Load, 0, pc);
                u.dst = Some(Reg::UT0);
                Some(u)
            }
            MicroOp::DeliverTake => {
                let mut u = Self::uop_common(Kind::DeliverTakeU, Fu::Int, 1, pc);
                u.srcs = [Some(Reg::UT0), None];
                u.dst = Some(Reg::UT1);
                Some(u)
            }
            MicroOp::PushSp => {
                let mut u = Self::uop_common(Kind::Store, Fu::Store, 1, pc);
                u.imm = -8i64 as u64;
                u.srcs = [Some(Reg::SP), Some(Reg::SP)];
                Some(u)
            }
            MicroOp::PushPc => {
                let mut u = Self::uop_common(Kind::PushPcU, Fu::Store, 1, pc);
                u.imm = self.irq_return_pc as u64;
                u.srcs = [Some(Reg::SP), None];
                Some(u)
            }
            MicroOp::PushVec => {
                let mut u = Self::uop_common(Kind::Store, Fu::Store, 1, pc);
                u.imm = -24i64 as u64;
                u.srcs = [Some(Reg::SP), Some(Reg::UT1)];
                Some(u)
            }
            MicroOp::DeliverClui => Some(Self::uop_common(Kind::DeliverCluiU, Fu::Int, 1, pc)),
            MicroOp::JumpHandler => {
                next = self.handler_pc;
                self.msrom_wait = true;
                let mut u = Self::uop_common(Kind::JumpHandlerU, Fu::Int, 1, pc);
                u.imm = self.irq_return_pc as u64;
                Some(u)
            }
            MicroOp::MsromRet => {
                next = self.msrom_return;
                self.msrom_wait = true;
                None
            }
        };
        self.fetch_pc = next;
        uop.map(|mut u| {
            u.from_interrupt = from_interrupt;
            u.micro = true;
            u
        })
    }

    // ------------------------------------------------------------------
    // Interrupt acceptance & injection
    // ------------------------------------------------------------------

    fn irq_pending_kind(&self) -> Option<IrqKind> {
        if self.pending_notif {
            Some(IrqKind::Notif)
        } else if self.uirr != 0 {
            Some(IrqKind::DeliverOnly)
        } else {
            None
        }
    }

    /// Returns true if it changed any state.
    fn accept_interrupts(&mut self, now: u64, mem: &MemorySystem) -> bool {
        if self.irq != IrqState::Idle || !self.uif || self.recovery.is_some() || self.halted {
            return false;
        }
        let Some(kind) = self.irq_pending_kind() else {
            return false;
        };
        if matches!(kind, IrqKind::Notif) {
            self.pending_notif = false;
            // Spurious notification: an earlier drain already collected
            // this IPI's posted vector (it raced with the post). The
            // recognition microcode finds nothing pending and delivers
            // nothing.
            if mem.peek(self.upid_addr + 8) == 0 && self.uirr == 0 {
                return true;
            }
        }
        self.current_irq = IrqTiming {
            accepted_at: now,
            ..IrqTiming::default()
        };
        self.trace_event(now, TraceKind::IrqAccepted);
        match self.strategy {
            DeliveryStrategy::Tracked => {
                if self.safepoint_mode {
                    self.irq = IrqState::WaitSafepoint { kind };
                } else {
                    self.inject(kind, self.fetch_pc, now);
                }
            }
            DeliveryStrategy::Flush => {
                self.stats.irq_flushes += 1;
                self.fetch_buffer.clear();
                self.irq = IrqState::FlushSquashing { kind };
            }
            DeliveryStrategy::Drain => {
                self.irq = IrqState::Draining { kind };
            }
        }
        true
    }

    fn routine_for(&self, kind: IrqKind) -> Routine {
        match kind {
            IrqKind::Notif => self.msrom.notif_deliver,
            IrqKind::DeliverOnly => self.msrom.deliver_only,
        }
    }

    fn inject(&mut self, kind: IrqKind, return_pc: Pc, now: u64) {
        self.irq_return_pc = return_pc;
        self.frame_stack_spec.push(return_pc);
        let routine = self.routine_for(kind);
        self.fetch_pc = MSROM_BASE + routine.start;
        // A wrong-path Halt may have stopped fetch; injection always
        // restarts it (the microcode + handler must run).
        self.fetch_enabled = true;
        self.fetch_stall_until = self
            .fetch_stall_until
            .max(now + self.cfg.delivery_msrom_latency());
        self.irq = IrqState::Injected { committed: false };
        self.irq_kind_pending = Some(kind);
        self.current_irq.injected_at = now;
        self.trace_event(now, TraceKind::IrqInjected);
    }

    // ------------------------------------------------------------------
    // Squash machinery
    // ------------------------------------------------------------------

    fn squash_tail_one(&mut self) {
        if let Some(entry) = self.rob.pop_back() {
            debug_assert!(entry.waiters == Waiter::NONE, "squashed µop has live waiters");
            match entry.state {
                EntryState::Waiting => {
                    self.iq_count -= 1;
                    // Younger µops are squashed first, so this consumer
                    // heads the wake-up list of each producer it waits
                    // on; undo dispatch's links in reverse order.
                    for s in (0..3).rev() {
                        let prod = entry.deps[s];
                        if prod != NO_DEP {
                            let p = &mut self.rob[prod];
                            debug_assert!(
                                p.waiters == Waiter::new(entry.seq, s),
                                "squashed consumer heads its list"
                            );
                            p.waiters = entry.next_waiter[s];
                        }
                    }
                }
                EntryState::Ready => {
                    self.iq_count -= 1;
                    self.ready.remove(entry.seq);
                }
                EntryState::Executing => {
                    let pos = self
                        .in_flight
                        .iter()
                        .position(|&(_, seq)| seq == entry.seq)
                        .expect("executing entry is in flight");
                    self.in_flight.swap_remove(pos);
                }
                EntryState::Done => {}
            }
            if !matches!(entry.state, EntryState::Done) {
                self.forget_live(entry.seq, entry.uop);
            }
            match entry.uop.fu {
                Fu::Load => self.lq_count -= 1,
                Fu::Store => {
                    self.stores.pop_back();
                }
                _ => {}
            }
            self.stats.squashed_uops += 1;
        }
    }

    fn rebuild_rename(&mut self) {
        self.rename = [None; REG_COUNT];
        self.last_micro_seq = None;
        for e in self.rob.iter() {
            if let Some(dst) = e.uop.dst {
                self.rename[dst.index()] = Some(e.seq);
            }
            if e.uop.micro {
                self.last_micro_seq = Some(e.seq);
            }
        }
    }

    /// Advances misprediction recovery; returns true if fetch must stay
    /// stalled.
    fn step_recovery(&mut self, now: u64) -> bool {
        let Some(rec) = self.recovery else {
            return false;
        };
        let mut budget = self.cfg.squash_width;
        while budget > 0 {
            match self.rob.back() {
                Some(e) if e.seq > rec.branch_seq => {
                    self.squash_tail_one();
                    budget -= 1;
                }
                _ => break,
            }
        }
        let done = self
            .rob
            .back()
            .is_none_or(|e| e.seq <= rec.branch_seq);
        if !done {
            return true;
        }
        // Squash complete: rebuild and redirect.
        self.rebuild_rename();
        self.recovery = None;
        self.msrom_wait = false;
        self.stats.mispredict_recoveries += 1;
        self.trace_event(now, TraceKind::MispredictRecovered);

        let irq_uops_survive = self.rob.iter().any(|e| e.uop.from_interrupt);
        let reinject = matches!(self.irq, IrqState::Injected { committed: false })
            && !irq_uops_survive;
        // Restore the speculative frame stack from committed state.
        self.frame_stack_spec = self.frames.clone();
        if reinject {
            let kind = self.irq_kind_pending.unwrap_or(IrqKind::DeliverOnly);
            if self.safepoint_mode {
                // §4.4: the safepoint was on the misspeculated path; wait
                // for the next one on the correct path.
                self.irq = IrqState::WaitSafepoint { kind };
                self.fetch_pc = rec.redirect_pc;
            } else {
                self.stats.irq_reinjections += 1;
                self.inject(kind, rec.redirect_pc, now);
            }
        } else {
            self.fetch_pc = rec.redirect_pc;
        }
        self.fetch_stall_until = self.fetch_stall_until.max(now + 1);
        self.fetch_enabled = true;
        false
    }

    /// Advances an interrupt-triggered full flush; returns true if fetch
    /// must stay stalled.
    fn step_irq_flush(&mut self, now: u64) -> bool {
        let IrqState::FlushSquashing { kind } = self.irq else {
            return false;
        };
        let mut budget = self.cfg.squash_width;
        while budget > 0 && !self.rob.is_empty() {
            self.squash_tail_one();
            budget -= 1;
        }
        if self.rob.is_empty() {
            self.rebuild_rename();
            self.frame_stack_spec = self.frames.clone();
            self.inject(kind, self.next_commit_pc, now);
            // Flush-path delivery pays the full microcode-assist startup
            // (Fig 2's 424-cycle flush+refill anatomy).
            self.fetch_stall_until = self
                .fetch_stall_until
                .max(now + self.cfg.delivery_flush_latency());
            return false;
        }
        true
    }

    // ------------------------------------------------------------------
    // The per-cycle tick
    // ------------------------------------------------------------------

    /// Advances the core by one cycle against the shared memory system.
    /// Outgoing IPIs are retrieved afterwards with
    /// [`Core::take_pending_ipi`]; [`Core::wake_at`] then tells when the
    /// next tick can change anything.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        if self.halted {
            return;
        }
        // Misprediction recovery and an interrupt flush squash or finish
        // on every cycle they are active.
        let mut changed =
            self.recovery.is_some() || matches!(self.irq, IrqState::FlushSquashing { .. });

        changed |= self.poll_kb_timer(now);
        changed |= self.complete(now);
        changed |= self.commit(now, mem);

        let recovery_stall = self.step_recovery(now);
        let flush_stall = self.step_irq_flush(now);

        changed |= self.accept_interrupts(now, mem);

        changed |= self.issue(now, mem);

        // Drain strategy: inject once the pipeline is empty.
        if let IrqState::Draining { kind } = self.irq {
            if self.rob.is_empty() && self.fetch_buffer.is_empty() {
                self.inject(kind, self.next_commit_pc, now);
                // Stock gem5's artificial post-drain stall (§5.2).
                self.fetch_stall_until = self
                    .fetch_stall_until
                    .max(now + self.cfg.delivery_drain_penalty());
                changed = true;
            }
        }

        if self.msrom_wait {
            let chain_busy = self
                .last_micro_seq
                .and_then(|seq| self.rob.get(seq))
                .is_some_and(|e| !matches!(e.state, EntryState::Done))
                || self
                    .fetch_buffer
                    .iter()
                    .any(|f| f.uop.micro);
            if !chain_busy {
                self.msrom_wait = false;
                changed = true;
            }
        }

        let flush_active = matches!(self.irq, IrqState::FlushSquashing { .. });
        if !flush_active && self.recovery.is_none() {
            changed |= self.dispatch(now);
        }

        let draining = matches!(self.irq, IrqState::Draining { .. });
        if !recovery_stall && !flush_stall && !flush_active && !draining && self.recovery.is_none()
        {
            changed |= self.fetch(now);
        }

        // Halt once the last µop has committed — but never while an
        // interrupt is mid-delivery (its microcode still has to run).
        // An interrupt still *waiting for a safepoint* does not block
        // halting: the program ended without reaching another safepoint,
        // so the pending preemption is moot (the thread is leaving user
        // execution anyway).
        if !self.fetch_enabled
            && self.rob.is_empty()
            && self.fetch_buffer.is_empty()
            && matches!(self.irq, IrqState::Idle | IrqState::WaitSafepoint { .. })
            && !self.halted
        {
            self.halted = true;
            self.stats.halted_at = Some(now);
            self.wake_at = u64::MAX;
            return;
        }

        self.wake_at = if changed { now + 1 } else { self.next_timed_event(now) };
    }

    /// After a tick at `now` that changed nothing, the state is the same
    /// on the next cycle, and so is the tick, until a stage's comparison
    /// against the clock flips: an in-flight µop completes, the oldest
    /// fetched µop reaches dispatch, a fetch stall ends or the KB_Timer
    /// fires. Returns the first such cycle.
    fn next_timed_event(&self, now: u64) -> u64 {
        let completion = self.in_flight.iter().map(|&(done_at, _)| done_at).min();
        let arrival = self.fetch_buffer.front().map(|f| f.ready_at);
        let stall_end = Some(self.fetch_stall_until);
        let timer = self.kbt_deadline.filter(|_| self.kbt_enabled);
        [completion, arrival, stall_end, timer]
            .into_iter()
            .flatten()
            .filter(|&t| t > now)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Returns true if the timer fired.
    fn poll_kb_timer(&mut self, now: u64) -> bool {
        if !self.kbt_enabled {
            return false;
        }
        if let Some(deadline) = self.kbt_deadline {
            if now >= deadline {
                self.uirr |= 1u64 << self.kbt_vector;
                self.trace_event(now, TraceKind::KbTimerFired);
                match self.kbt_period {
                    Some(p) => {
                        let p = p.max(1);
                        let missed = (now - deadline) / p + 1;
                        self.kbt_deadline = Some(deadline + missed * p);
                    }
                    None => self.kbt_deadline = None,
                }
                return true;
            }
        }
        false
    }

    /// Returns true if any µop completed.
    fn complete(&mut self, now: u64) -> bool {
        let mut due = std::mem::take(&mut self.due);
        self.in_flight.retain(|&(done_at, seq)| {
            let waiting = done_at > now;
            if !waiting {
                due.push(seq);
            }
            waiting
        });
        // Same-cycle completions are processed oldest first, so the
        // branch predictor trains in program order.
        due.sort_unstable();
        for &seq in &due {
            let e = &mut self.rob[seq];
            e.state = EntryState::Done;
            let (uop, result) = (e.uop, e.result);
            let mut waiter = std::mem::replace(&mut e.waiters, Waiter::NONE);
            self.forget_live(seq, uop);
            // Branch resolution happens at completion.
            self.resolve_branch_if_any(seq, now);
            while let Some((dep_seq, s)) = waiter.get() {
                let d = &mut self.rob[dep_seq];
                debug_assert_eq!(d.deps[s], seq, "wake-up list link");
                waiter = d.next_waiter[s];
                d.deps[s] = NO_DEP;
                if s < 2 {
                    d.src_vals[s] = result;
                }
                d.deps_remaining -= 1;
                if d.deps_remaining == 0 {
                    d.state = EntryState::Ready;
                    self.ready.insert(dep_seq);
                }
            }
        }
        let completed = !due.is_empty();
        due.clear();
        self.due = due;
        completed
    }

    /// Drops a µop that is no longer live (it completed or was squashed)
    /// from the unresolved-branch and live-microcode sets.
    fn forget_live(&mut self, seq: u64, uop: Uop) {
        if matches!(uop.kind, Kind::Branch { .. }) {
            self.unresolved_branches.remove(seq);
        }
        if uop.micro {
            self.live_micro.remove(seq);
            if uop.from_interrupt {
                self.live_irq_micro -= 1;
            }
        }
    }

    fn oldest_unresolved_branch(&self) -> Option<u64> {
        self.unresolved_branches.first_in(self.rob.head, self.rob.tail)
    }

    /// True while microcode owns the pipeline: some live microcode µop
    /// came from an interrupt, or is older than every unresolved branch.
    fn micro_engaged(&self, oldest_unresolved_branch: Option<u64>) -> bool {
        self.live_irq_micro > 0
            || self
                .live_micro
                .first_in(self.rob.head, self.rob.tail)
                .is_some_and(|m| oldest_unresolved_branch.is_none_or(|b| m < b))
    }

    /// True if an older store keeps the load `seq` of `word` from
    /// issuing: its address is unknown, or it writes the same word and
    /// has not completed (the load forwards from it once it has).
    fn load_blocked(&self, seq: u64, word: u64) -> bool {
        self.stores.iter().take_while(|&&s| s < seq).any(|&s| {
            let e = &self.rob[s];
            if matches!(e.state, EntryState::Done) {
                return false;
            }
            if e.deps[0] != NO_DEP {
                return true; // address unknown: conservative
            }
            e.store().is_some_and(|(addr, _)| addr & !7 == word)
        })
    }

    fn resolve_branch_if_any(&mut self, seq: u64, now: u64) {
        let e = &self.rob[seq];
        let Kind::Branch { predicted, .. } = e.uop.kind else {
            return;
        };
        let (taken, redirect) = e.branch_outcome();
        self.predictor.resolve(e.uop.pc(), taken, predicted);
        if taken != predicted {
            let replace = match self.recovery {
                None => true,
                Some(r) => seq < r.branch_seq,
            };
            // Ignore mispredicts while an interrupt flush is squashing
            // everything anyway.
            if replace && !matches!(self.irq, IrqState::FlushSquashing { .. }) {
                self.recovery = Some(Recovery {
                    branch_seq: seq,
                    redirect_pc: redirect,
                });
                self.fetch_buffer.clear();
                self.trace_event(now, TraceKind::MispredictDetected);
            }
        }
    }

    /// Returns true if any µop issued.
    fn issue(&mut self, now: u64, mem: &mut MemorySystem) -> bool {
        let mut budget = self.cfg.issue_width;
        let mut int_used = 0;
        let mut mult_used = 0;
        let mut fp_used = 0;
        let mut load_used = 0;
        let mut store_used = 0;
        // Microcode owns the pipeline while it runs: the routine's MSR
        // accesses are serializing, so no ordinary µop enters execution
        // until the micro chain completes (§3.4/§3.5 — this is where the
        // measured receiver costs come from).
        //
        // Program-initiated microcode (senduipi/clui/stui) must not
        // execute speculatively: it stalls until every older branch has
        // resolved, and while stalled it does NOT yet own the pipeline —
        // otherwise the branch it waits for could never issue.
        let oldest_unresolved_branch = self.oldest_unresolved_branch();
        let nonspeculative = |seq: u64| oldest_unresolved_branch.is_none_or(|b| seq < b);
        let micro_engaged = self.micro_engaged(oldest_unresolved_branch);
        let mut issued_any = false;
        // Progress guarantee: when microcode owns the pipeline but cannot
        // itself proceed (e.g. delivery's PushSp waits on a stack pointer
        // produced by a blocked program chain — the §6.1 pathology) and
        // nothing is executing, let the oldest ready program µop through.
        let mut breaker_budget = if micro_engaged && self.in_flight.is_empty() { 1usize } else { 0 };
        // Oldest first over the Ready entries only: an entry is never
        // Waiting with no dependences left (dispatch and complete both
        // promote it), so these are all the µops that could issue.
        let mut cursor = self.rob.head;
        let mut unvisited = self.ready.len();
        while budget > 0 && unvisited > 0 {
            let Some(seq) = self.ready.first_in(cursor, self.rob.tail) else {
                break;
            };
            cursor = seq + 1;
            unvisited -= 1;
            let uop = self.rob[seq].uop;
            if micro_engaged && !uop.micro {
                if issued_any || breaker_budget == 0 {
                    continue;
                }
                breaker_budget -= 1;
            }
            if uop.micro && !uop.from_interrupt && !nonspeculative(seq) {
                continue;
            }
            let fu_ok = match uop.fu {
                Fu::Int => int_used < self.cfg.int_alu_units,
                Fu::Mult => mult_used < self.cfg.int_mult_units,
                Fu::Fp => fp_used < self.cfg.fp_units,
                Fu::Load => load_used < self.cfg.load_ports,
                Fu::Store => store_used < self.cfg.store_ports,
            };
            if !fu_ok {
                continue;
            }
            // Memory disambiguation: a load may not issue past an older
            // store whose address is unknown, or one to the same word
            // whose data is not yet ready (it will forward once Done).
            if uop.kind == Kind::Load {
                let word = self.rob[seq].src_vals[0].wrapping_add_signed(uop.imm as i64) & !7;
                if self.load_blocked(seq, word) {
                    continue;
                }
            }
            // Issue it.
            let (latency, result) = self.execute_uop(seq, now, mem);
            let done_at = now + latency.max(1);
            let e = &mut self.rob[seq];
            e.result = result;
            e.state = EntryState::Executing;
            self.ready.remove(seq);
            self.in_flight.push((done_at, seq));
            self.iq_count -= 1;
            budget -= 1;
            issued_any = true;
            match uop.fu {
                Fu::Int => int_used += 1,
                Fu::Mult => mult_used += 1,
                Fu::Fp => fp_used += 1,
                Fu::Load => load_used += 1,
                Fu::Store => store_used += 1,
            }
        }
        issued_any
    }

    /// Computes a µop's latency and result, applying execute-time side
    /// effects (memory reads, UPID RMWs, ICR writes).
    fn execute_uop(&mut self, seq: u64, now: u64, mem: &mut MemorySystem) -> (u64, u64) {
        let RobEntry { uop, src_vals: sv, .. } = self.rob[seq];
        let latency = u64::from(uop.latency);
        match uop.kind {
            Kind::Int | Kind::SendUipiMarker | Kind::HaltU | Kind::CluiU | Kind::StuiU
            | Kind::DeliverCluiU | Kind::SetTimerU { .. } | Kind::ClearTimerU
            | Kind::UiretU | Kind::Store | Kind::PushPcU | Kind::Branch { .. } => (latency, 0),
            Kind::JumpHandlerU => {
                // The handler starts *executing* here (speculatively, like
                // an rdtsc in a real handler); commit finalizes the
                // record. Re-execution after a squash overwrites the
                // stamp, keeping the last pre-commit execution.
                self.current_irq.handler_at = now;
                (latency, 0)
            }
            Kind::Alu { kind, imm } => {
                let b = if imm { uop.imm } else { sv[1] };
                (latency, kind.eval(sv[0], b))
            }
            Kind::Li => (latency, uop.imm),
            Kind::Load => {
                let addr = sv[0].wrapping_add_signed(uop.imm as i64);
                // Store-to-load forwarding: the youngest older store to
                // the same word supplies the data at L1 speed.
                let word = addr & !7;
                let forwarded = self.stores.iter().rev().skip_while(|&&s| s > seq).find_map(|&s| {
                    let e = &self.rob[s];
                    let (addr, data) = e.store()?;
                    let hit = matches!(e.state, EntryState::Done) && addr & !7 == word;
                    hit.then_some(data)
                });
                match forwarded {
                    Some(val) => (4, val),
                    None => mem.read(self.id, addr),
                }
            }
            Kind::Testui => (latency, u64::from(self.uif)),
            Kind::UittLoadU => {
                // The UITT entry line: model as a load from a per-core
                // table address (hot in L1 after first use).
                let addr = 0x3000_0000 + (self.id as u64) * 4096 + uop.imm * 16;
                let (lat, _) = mem.read(self.id, addr);
                (lat, 0)
            }
            Kind::UpidPostU => {
                let Some(entry) = self.uitt.get(uop.imm as usize).copied() else {
                    return (1, 0);
                };
                let (lat1, low) = mem.read(self.id, entry.upid_addr);
                let (_, pir) = mem.read(self.id, entry.upid_addr + 8);
                let new_pir = pir | (1u64 << (entry.user_vector & 63));
                mem.write(self.id, entry.upid_addr + 8, new_pir);
                let sn = low & upid_words::SN != 0;
                let on = low & upid_words::ON != 0;
                if !sn && !on {
                    mem.write(self.id, entry.upid_addr, low | upid_words::ON);
                    let dest = (low >> upid_words::NDST_SHIFT) as usize;
                    self.ipi_flag = Some(dest);
                }
                self.trace_event(now, TraceKind::UpidPosted);
                (lat1 + 4, 0)
            }
            Kind::IcrWriteU => {
                if let Some(dest) = self.ipi_flag.take() {
                    self.trace_event(now, TraceKind::IcrWrite);
                    // The system adds bus latency; record intent in the
                    // pending outbox (flushed by tick's caller).
                    self.pending_ipi = Some(dest);
                }
                (latency, 0)
            }
            Kind::UpidDrainU => {
                let (lat, low) = mem.read(self.id, self.upid_addr);
                let (_, pir) = mem.read(self.id, self.upid_addr + 8);
                mem.write(self.id, self.upid_addr, low & !upid_words::ON);
                mem.write(self.id, self.upid_addr + 8, 0);
                self.uirr |= pir;
                self.trace_event(now, TraceKind::UpidDrained);
                (lat + 4, pir)
            }
            Kind::DeliverTakeU => {
                let v = if self.uirr == 0 {
                    self.last_taken_vector
                } else {
                    let v = 63 - self.uirr.leading_zeros() as u64;
                    self.uirr &= !(1u64 << v);
                    self.last_taken_vector = v;
                    v
                };
                (latency, v)
            }
        }
    }

    /// Returns true if any µop entered the ROB.
    fn dispatch(&mut self, now: u64) -> bool {
        let mut budget = self.cfg.decode_width;
        while budget > 0 {
            let Some(front) = self.fetch_buffer.front() else {
                break;
            };
            if front.ready_at > now || self.rob.len() >= self.cfg.rob_size {
                break;
            }
            if self.iq_count >= self.cfg.iq_size {
                break;
            }
            let uop = front.uop;
            match uop.fu {
                Fu::Load if self.lq_count >= self.cfg.lq_size => break,
                Fu::Store if self.stores.len() >= self.cfg.sq_size => break,
                _ => {}
            }
            self.fetch_buffer.pop_front();
            let seq = self.rob.tail;
            let mut deps = [NO_DEP; 3];
            let mut next_waiter = [Waiter::NONE; 3];
            let mut src_vals = [0u64, 0];
            let mut deps_remaining = 0u8;
            for s in 0..2 {
                if let Some(reg) = uop.srcs[s] {
                    match self.rename[reg.index()] {
                        Some(prod_seq) => {
                            assert!(
                                self.rob.get(prod_seq).is_some(),
                                "rename points outside ROB: core={} now={} reg={} prod_seq={} head_seq={} next_seq={} uop={:?} irq={:?} recovery={:?}",
                                self.id, now, reg.0, prod_seq, self.rob.head,
                                self.rob.tail, uop.kind, self.irq, self.recovery
                            );
                            let p = &mut self.rob[prod_seq];
                            if matches!(p.state, EntryState::Done) {
                                src_vals[s] = p.result;
                            } else {
                                deps[s] = prod_seq;
                                deps_remaining += 1;
                                next_waiter[s] =
                                    std::mem::replace(&mut p.waiters, Waiter::new(seq, s));
                            }
                        }
                        None => src_vals[s] = self.regs[reg.index()],
                    }
                }
            }
            // Microcode sequencing: MSROM µops issue in order, each
            // waiting for its predecessor — the serial micro-sequencer
            // that makes delivery cost what it costs (§3.4).
            if uop.micro {
                if let Some(prev) = self.last_micro_seq {
                    if self.rob.get(prev).is_some() {
                        let p = &mut self.rob[prev];
                        if !matches!(p.state, EntryState::Done) {
                            deps[2] = prev;
                            deps_remaining += 1;
                            next_waiter[2] = std::mem::replace(&mut p.waiters, Waiter::new(seq, 2));
                        }
                    }
                }
                self.last_micro_seq = Some(seq);
            }
            if let Some(dst) = uop.dst {
                self.rename[dst.index()] = Some(seq);
            }
            let state = if deps_remaining == 0 {
                EntryState::Ready
            } else {
                EntryState::Waiting
            };
            self.iq_count += 1;
            match uop.fu {
                Fu::Load => self.lq_count += 1,
                Fu::Store => {
                    self.stores.push_back(seq);
                }
                _ => {}
            }
            if state == EntryState::Ready {
                self.ready.insert(seq);
            }
            if matches!(uop.kind, Kind::Branch { .. }) {
                self.unresolved_branches.insert(seq);
            }
            if uop.micro {
                self.live_micro.insert(seq);
                if uop.from_interrupt {
                    self.live_irq_micro += 1;
                }
            }
            self.rob.push_back(RobEntry {
                seq,
                uop,
                deps,
                src_vals,
                deps_remaining,
                state,
                result: 0,
                waiters: Waiter::NONE,
                next_waiter,
            });
            budget -= 1;
        }
        budget < self.cfg.decode_width
    }

    /// Returns true if fetch ran: it may then have changed state even
    /// when it fetched nothing.
    fn fetch(&mut self, now: u64) -> bool {
        if !self.fetch_enabled
            || now < self.fetch_stall_until
            || self.msrom_wait
            || self.fetch_buffer.len() >= self.cfg.fetch_queue_size
        {
            return false;
        }
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.msrom_wait || self.fetch_buffer.len() >= self.cfg.fetch_queue_size {
                break;
            }
            let pc = self.fetch_pc;
            let from_interrupt = matches!(self.irq, IrqState::Injected { committed: false })
                && pc >= MSROM_BASE;
            let decoded = if pc >= MSROM_BASE {
                let Some(mop) = self.msrom.get(pc - MSROM_BASE) else {
                    break;
                };
                self.decode_msrom(mop, pc, from_interrupt)
            } else {
                let Some(inst) = self.program.get(pc).copied() else {
                    self.fetch_enabled = false;
                    break;
                };
                // Safepoint gating: inject *before* the marked
                // instruction (§4.4).
                if let IrqState::WaitSafepoint { kind } = self.irq {
                    if inst.safepoint {
                        self.trace_event(now, TraceKind::SafepointHit);
                        self.inject(kind, pc, now);
                        break;
                    }
                }
                self.decode_program(inst, pc)
            };
            if let Some(uop) = decoded {
                self.fetch_buffer.push_back(Fetched {
                    uop,
                    ready_at: now + self.cfg.frontend_depth,
                });
                budget -= 1;
            }
            if !self.fetch_enabled || now < self.fetch_stall_until {
                break;
            }
            // A redirect into/out of MSROM still consumes the cycle's
            // remaining fetch slots naturally via the loop.
        }
        true
    }

    /// Returns true if any µop retired.
    fn commit(&mut self, now: u64, mem: &mut MemorySystem) -> bool {
        // An interrupt flush stops retirement (everything uncommitted is
        // being squashed).
        if matches!(self.irq, IrqState::FlushSquashing { .. }) {
            return false;
        }
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            let Some(head) = self.rob.front() else {
                break;
            };
            if !matches!(head.state, EntryState::Done) {
                break;
            }
            // Never retire past a mispredicted branch awaiting recovery:
            // everything younger is wrong-path.
            if let Some(rec) = self.recovery {
                if head.seq > rec.branch_seq {
                    break;
                }
            }
            let entry = self.rob.pop_front().expect("head exists");
            match entry.uop.fu {
                Fu::Load => self.lq_count -= 1,
                Fu::Store => {
                    self.stores.pop_front();
                }
                _ => {}
            }
            self.apply_commit(&entry, now, mem);
            budget -= 1;
        }
        budget < self.cfg.retire_width
    }

    fn apply_commit(&mut self, entry: &RobEntry, now: u64, mem: &mut MemorySystem) {
        let uop = entry.uop;
        self.stats.committed_uops += 1;
        if uop.is_program {
            self.stats.committed_insts += 1;
            self.next_commit_pc = match uop.kind {
                Kind::Branch { .. } => entry.branch_outcome().1,
                _ => match self.program.get(uop.pc()).map(|i| i.op) {
                    Some(Op::Jmp { target }) => target,
                    _ => uop.pc() + 1,
                },
            };
        }
        if uop.from_interrupt {
            if let IrqState::Injected { committed: false } = self.irq {
                self.irq = IrqState::Injected { committed: true };
            }
        }
        if let Some(dst) = uop.dst {
            self.regs[dst.index()] = entry.result;
            if self.rename[dst.index()] == Some(entry.seq) {
                self.rename[dst.index()] = None;
            }
        }
        if let Some((addr, data)) = entry.store() {
            mem.write(self.id, addr, data);
        }
        match uop.kind {
            Kind::CluiU | Kind::DeliverCluiU => self.uif = false,
            Kind::StuiU => self.uif = true,
            Kind::UiretU => {
                // Architectural control transfer: execution resumes at
                // the frame's return PC — a later interrupt flush must
                // use it, not the handler-side next_commit_pc.
                if let Some(return_pc) = self.frames.pop() {
                    self.next_commit_pc = return_pc;
                }
                self.uif = true;
                self.stats.uirets += 1;
                self.current_irq.uiret_at = now;
                if let Some(last) = self.irq_timings.last_mut() {
                    if last.uiret_at == 0 {
                        last.uiret_at = now;
                    }
                }
                self.trace_event(now, TraceKind::UiretCommitted);
            }
            Kind::JumpHandlerU => {
                self.frames.push(uop.imm as Pc);
                self.next_commit_pc = self.handler_pc;
                self.stats.interrupts_delivered += 1;
                if self.current_irq.handler_at == 0 {
                    self.current_irq.handler_at = now;
                }
                self.irq_timings.push(self.current_irq);
                self.irq = IrqState::Idle;
                self.irq_kind_pending = None;
                self.trace_event(now, TraceKind::HandlerEntered);
            }
            Kind::SetTimerU { periodic }
                if self.kbt_enabled => {
                    let cycles = uop.imm;
                    if periodic {
                        self.kbt_deadline = Some(now + cycles.max(1));
                        self.kbt_period = Some(cycles.max(1));
                    } else {
                        self.kbt_deadline = Some(now + cycles);
                        self.kbt_period = None;
                    }
                }
            Kind::ClearTimerU => {
                self.kbt_deadline = None;
                self.kbt_period = None;
            }
            Kind::SendUipiMarker => {
                self.trace_event(now, TraceKind::SendUipiStart);
            }
            _ => {}
        }
    }

    /// Takes the IPI produced this cycle, if any (the system puts it on
    /// the bus).
    pub fn take_pending_ipi(&mut self) -> Option<usize> {
        self.pending_ipi.take()
    }

    /// Current reorder-buffer occupancy (diagnostics).
    #[must_use]
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Rebuilds the scheduler state — the Ready set, the in-flight list,
    /// the unresolved branches and oldest of them, the live microcode
    /// and `micro_engaged`, the store queue, the queue counts and the
    /// wake-up lists — from a full ROB scan, and panics if the
    /// maintained state disagrees. For tests; `tick` never calls it.
    #[doc(hidden)]
    pub fn check_scheduler_invariants(&self) {
        let (head, end) = (self.rob.head, self.rob.tail);
        assert!(head <= end && self.rob.len() <= self.cfg.rob_size, "ROB sequence window");
        let live = |e: &RobEntry| e.state != EntryState::Done;
        let deps = |e: &RobEntry| e.deps.iter().filter(|&&d| d != NO_DEP).count();
        // What the scheduler state must hold, from one ROB scan.
        let (mut ready, mut executing, mut branches, mut micro, mut stores) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut irq_micro, mut queued, mut loads, mut pending) = (0, 0, 0, 0);
        let mut engaged = false;
        for seq in head..end {
            let e = &self.rob.slots[(seq & self.rob.mask) as usize];
            assert_eq!(e.seq, seq, "live seq {seq} is not at slot seq & mask");
            assert_eq!(usize::from(e.deps_remaining), deps(e), "seq {seq} dependence count");
            match e.state {
                EntryState::Waiting => assert!(e.deps_remaining > 0, "seq {seq} Waiting on nothing"),
                EntryState::Ready => {
                    assert!(e.deps_remaining == 0, "seq {seq} Ready with dependences");
                    ready.push(seq);
                }
                EntryState::Executing => executing.push(seq),
                EntryState::Done => {}
            }
            if live(e) && matches!(e.uop.kind, Kind::Branch { .. }) {
                branches.push(seq);
            }
            if live(e) && e.uop.micro {
                micro.push(seq);
                irq_micro += usize::from(e.uop.from_interrupt);
                // Interrupt microcode, or microcode older than every
                // unresolved branch (the scan meets those first).
                engaged |= e.uop.from_interrupt || branches.is_empty();
            }
            match e.uop.fu {
                Fu::Store => stores.push(seq),
                Fu::Load => loads += 1,
                _ => {}
            }
            queued += usize::from(matches!(e.state, EntryState::Waiting | EntryState::Ready));
            pending += deps(e);
        }
        let members = |set: &SeqSet, what: &str| {
            assert_eq!(set.mask, self.rob.mask, "{what}: slot mask");
            let popcount: usize = set.words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(set.len(), popcount, "{what}: member count");
            let mut out = Vec::new();
            let mut cursor = head;
            while let Some(seq) = set.first_in(cursor, end) {
                out.push(seq);
                cursor = seq + 1;
            }
            assert_eq!(out.len(), popcount, "{what}: member outside the ROB");
            out
        };
        assert_eq!(members(&self.ready, "Ready set"), ready, "Ready set");
        let mut in_flight: Vec<u64> = self.in_flight.iter().map(|&(_, seq)| seq).collect();
        in_flight.sort_unstable();
        assert_eq!(in_flight, executing, "in-flight list");
        let listed = members(&self.unresolved_branches, "unresolved branches");
        assert_eq!(listed, branches, "unresolved branches");
        assert_eq!(members(&self.live_micro, "live microcode"), micro, "live microcode");
        assert_eq!(self.live_irq_micro, irq_micro, "live interrupt microcode");
        let oldest = branches.first().copied();
        assert_eq!(self.oldest_unresolved_branch(), oldest, "oldest unresolved branch");
        assert_eq!(self.micro_engaged(oldest), engaged, "micro_engaged");
        assert!(self.stores.iter().copied().eq(stores), "store queue");
        assert_eq!(self.iq_count, queued, "issue-queue count");
        assert_eq!(self.lq_count, loads, "load-queue count");
        // Wake-up lists: each link reaches a Waiting consumer whose slot
        // waits on the list's producer, no link is reached twice, and
        // there are as many links as pending dependences — so each
        // pending `(producer, slot)` is linked exactly once.
        let mut linked = vec![0u8; self.rob.slots.len()];
        let mut links = 0;
        for p in self.rob.iter() {
            let mut link = p.waiters;
            if link != Waiter::NONE {
                assert!(live(p), "seq {} is Done with waiters", p.seq);
            }
            while let Some((c, s)) = link.get() {
                let e = self.rob.get(c).unwrap_or_else(|| {
                    panic!("seq {}'s wake-up list reaches squashed seq {c}", p.seq)
                });
                assert!(
                    e.state == EntryState::Waiting && e.deps[s] == p.seq,
                    "seq {}'s wake-up list reaches seq {c} slot {s}, which does not wait on it",
                    p.seq
                );
                let seen = &mut linked[(c & self.rob.mask) as usize];
                assert!(*seen & 1 << s == 0, "seq {c} slot {s} linked twice");
                *seen |= 1 << s;
                links += 1;
                link = e.next_waiter[s];
            }
        }
        assert_eq!(links, pending, "pending dependences missing from the wake-up lists");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, VecDeque};

    use proptest::prelude::*;

    use super::*;

    /// The three ROB sizes the properties run at: half, once and four
    /// times the Table 3 ROB, so the slot count is 256, 512 and 2048.
    const ROB_SIZES: [usize; 3] = [192, 384, 1536];

    #[test]
    fn slots_round_up_to_a_power_of_two() {
        for (rob_size, slots) in [(0, 64), (1, 64), (64, 64), (65, 128), (192, 256), (384, 512), (1536, 2048)] {
            assert_eq!(slot_count(rob_size), slots, "rob_size {rob_size}");
            assert_eq!(Ring::<u64>::new(rob_size).mask, slots as u64 - 1);
        }
        assert!(std::mem::size_of::<RobEntry>() <= 128, "a ROB entry fits two cache lines");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Slides a ROB-like window of sequence numbers across the ring
        /// (dispatch at the tail, commit at the head, squash at the
        /// tail), starting anywhere, so windows wrap the slot space;
        /// `first_in` over any sub-window must find what a scan of the
        /// members finds.
        #[test]
        fn seq_set_first_in_matches_a_naive_scan(
            size in 0usize..3,
            start in 0u64..1 << 48,
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..400),
        ) {
            let rob_size = ROB_SIZES[size];
            let mut set = SeqSet::new(slot_count(rob_size));
            let mut model = BTreeSet::new();
            let (mut head, mut tail) = (start, start);
            for (op, r) in ops {
                match op {
                    0 => {
                        for i in 0..r % 96 {
                            if tail - head == rob_size as u64 {
                                break;
                            }
                            if r >> (8 + i % 48) & 1 == 1 {
                                set.insert(tail);
                                model.insert(tail);
                            }
                            tail += 1;
                        }
                    }
                    1 | 2 => {
                        for _ in 0..r % 64 {
                            if head == tail {
                                break;
                            }
                            let seq = if op == 1 { head } else { tail - 1 };
                            if model.remove(&seq) {
                                set.remove(seq);
                            }
                            if op == 1 { head += 1 } else { tail -= 1 }
                        }
                    }
                    _ => {
                        let from = head + r % (tail - head + 1);
                        let end = from + (r >> 32) % (tail - from + 1);
                        let naive = model.range(from..end).next().copied();
                        prop_assert_eq!(set.first_in(from, end), naive, "first_in({}, {})", from, end);
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                let naive = model.range(head..tail).next().copied();
                prop_assert_eq!(set.first_in(head, tail), naive, "first_in(head {}, tail {})", head, tail);
            }
        }

        /// The ring's push, pop, index, window and iteration agree with
        /// a `VecDeque` holding the live elements, and equality ignores
        /// what the stale slots hold.
        #[test]
        fn ring_matches_a_vecdeque_model(
            size in 0usize..3,
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..600),
        ) {
            let capacity = ROB_SIZES[size];
            let mut ring = Ring::<u64>::new(capacity);
            let mut model = VecDeque::new();
            let mut head = 0u64;
            for (op, r) in ops {
                match op {
                    0 | 1 => {
                        for i in 0..r % 80 {
                            if model.len() == capacity {
                                break;
                            }
                            let pos = ring.push_back(r.wrapping_add(i));
                            prop_assert_eq!(pos, head + model.len() as u64);
                            model.push_back(r.wrapping_add(i));
                        }
                    }
                    2 => {
                        for _ in 0..r % 64 {
                            let popped = model.pop_front();
                            prop_assert_eq!(ring.pop_front(), popped);
                            head += u64::from(popped.is_some());
                        }
                    }
                    3 => {
                        for _ in 0..r % 64 {
                            prop_assert_eq!(ring.pop_back(), model.pop_back());
                        }
                    }
                    4 => {
                        ring.clear();
                        head += model.len() as u64;
                        model.clear();
                    }
                    _ => {
                        // Any position: live ones index, others miss.
                        let pos = head.saturating_sub(8) + r % (model.len() as u64 + 16);
                        let live = pos.checked_sub(head).and_then(|i| model.get(i as usize));
                        prop_assert_eq!(ring.get(pos), live);
                        if let Some(v) = live {
                            prop_assert_eq!(ring[pos], *v);
                        }
                    }
                }
                prop_assert_eq!((ring.head, ring.len(), ring.is_empty()), (head, model.len(), model.is_empty()));
                prop_assert_eq!(ring.front(), model.front());
                prop_assert_eq!(ring.back(), model.back());
                prop_assert!(ring.iter().eq(model.iter()));
                prop_assert!(ring.iter().rev().eq(model.iter().rev()));
                // The same live window over different stale slots.
                let mut fresh = Ring::<u64>::new(capacity);
                fresh.head = head;
                fresh.tail = head;
                for &v in &model {
                    fresh.push_back(v);
                }
                prop_assert!(fresh == ring, "equality must see live slots only");
                prop_assert_eq!(format!("{fresh:?}"), format!("{ring:?}"));
            }
        }
    }
}
