//! An executable, untimed reference model of the complete UIPI + xUI
//! system: threads, cores, the kernel's bookkeeping (SN bit, slow path,
//! migration, timer and forwarding multiplexing), and delivery.
//!
//! This model captures the *protocol* — who updates which descriptor when —
//! with no notion of cycles. The cycle-level simulator (`xui-sim`) and the
//! OS model (`xui-kernel`) implement the same transitions with timing; the
//! property tests here establish that the protocol itself never loses or
//! invents interrupts across arbitrary interleavings of sends, context
//! switches, migrations and deliveries.

use serde::{Deserialize, Serialize};
use xui_uipi_abi::Upid;

use crate::error::XuiError;
use crate::forwarding::{ApicForwarding, Dupid, ForwardDecision, VectorBitmap};
use crate::kb_timer::{KbTimer, TimerMode};
use crate::receiver::{notification_processing, ReceiverState};
use crate::recycle::Recycled;
use crate::sender::{senduipi, MapUpidMemory};
use crate::uitt::{Uitt, UittIndex, UpidAddr};
use crate::vectors::{ApicId, UserVector, Vector};

/// Identifier of a thread in the protocol model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ThreadId(pub usize);

/// Identifier of a core in the protocol model.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct CoreId(pub usize);

#[derive(Debug, Clone, Default, PartialEq)]
struct ThreadState {
    upid_addr: Option<UpidAddr>,
    receiver: ReceiverState,
    uitt: Uitt,
    running_on: Option<CoreId>,
    dupid: Dupid,
    saved_active: VectorBitmap,
    saved_timer: Option<crate::kb_timer::KbTimerState>,
    kb_timer_enabled: Option<UserVector>,
    delivered: Vec<UserVector>,
}

impl ThreadState {
    /// A new, unscheduled thread with no handler and an empty UITT;
    /// buffers keep their capacity.
    fn reset(&mut self) {
        let Self {
            upid_addr,
            receiver,
            uitt,
            running_on,
            dupid,
            saved_active,
            saved_timer,
            kb_timer_enabled,
            delivered,
        } = self;
        *upid_addr = None;
        receiver.reset(0);
        uitt.clear();
        *running_on = None;
        *dupid = Dupid::new();
        *saved_active = VectorBitmap::new();
        *saved_timer = None;
        *kb_timer_enabled = None;
        delivered.clear();
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct CoreState {
    apic_id: ApicId,
    current: Option<ThreadId>,
    forwarding: ApicForwarding,
    kb_timer: KbTimer,
}

impl CoreState {
    /// Idle core `index`: nothing forwarded, timer disabled.
    fn reset(&mut self, index: usize) {
        let Self { apic_id, current, forwarding, kb_timer } = self;
        *apic_id = ApicId::new(index as u32);
        *current = None;
        forwarding.reset();
        *kb_timer = KbTimer::new();
    }
}

/// The whole-system protocol model.
///
/// # Examples
///
/// ```
/// use xui_core::model::ProtocolModel;
/// use xui_core::vectors::UserVector;
///
/// let mut sys = ProtocolModel::new(2);
/// let sender = sys.create_thread();
/// let receiver = sys.create_thread();
/// sys.register_handler(receiver, 0x4000)?;
/// let idx = sys.register_sender(sender, receiver, UserVector::new(3)?)?;
///
/// sys.schedule(receiver, xui_core::model::CoreId(1))?;
/// sys.schedule(sender, xui_core::model::CoreId(0))?;
/// sys.senduipi(sender, idx)?;
/// let delivered = sys.run_pending(receiver)?;
/// assert_eq!(delivered, vec![UserVector::new(3)?]);
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolModel {
    mem: MapUpidMemory,
    threads: Recycled<ThreadState>,
    cores: Recycled<CoreState>,
    next_upid_addr: u64,
    /// The conventional vector the kernel assigned for UIPI notifications
    /// (the `UINV` MSR value).
    pub uinv: Vector,
    /// The thread registered for each forwarded `(core, vector)`, sorted
    /// by key: at most a few lines per core.
    forward_owner: Vec<((usize, u8), ThreadId)>,
    now: u64,
}

impl ProtocolModel {
    /// Creates a model with `core_count` idle cores.
    #[must_use]
    pub fn new(core_count: usize) -> Self {
        let mut model = Self {
            mem: MapUpidMemory::new(),
            threads: Recycled::new(),
            cores: Recycled::new(),
            next_upid_addr: 0,
            uinv: Vector::new(0),
            forward_owner: Vec::new(),
            now: 0,
        };
        model.reset(core_count);
        model
    }

    /// Returns the model to the state [`ProtocolModel::new`] builds for
    /// `core_count` cores: no threads, no descriptors, nothing forwarded,
    /// time zero. Every buffer keeps its capacity, so rebuilding the same
    /// set-up after a reset allocates nothing.
    pub fn reset(&mut self, core_count: usize) {
        let Self { mem, threads, cores, next_upid_addr, uinv, forward_owner, now } = self;
        mem.clear();
        threads.clear();
        cores.clear();
        for i in 0..core_count {
            cores.push_reset(|c| c.reset(i));
        }
        *next_upid_addr = 0x1000;
        *uinv = Vector::new(0xec);
        forward_owner.clear();
        *now = 0;
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Current model time (advanced by [`ProtocolModel::advance_time`]).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Creates a new, unscheduled thread.
    pub fn create_thread(&mut self) -> ThreadId {
        self.threads.push_reset(ThreadState::reset);
        ThreadId(self.threads.len() - 1)
    }

    fn thread(&self, tid: ThreadId) -> Result<&ThreadState, XuiError> {
        self.threads
            .get(tid.0)
            .ok_or(XuiError::UnknownThread { thread: tid.0 })
    }

    fn thread_mut(&mut self, tid: ThreadId) -> Result<&mut ThreadState, XuiError> {
        self.threads
            .get_mut(tid.0)
            .ok_or(XuiError::UnknownThread { thread: tid.0 })
    }

    fn core(&self, core: CoreId) -> Result<&CoreState, XuiError> {
        self.cores
            .get(core.0)
            .ok_or(XuiError::UnknownCore { core: core.0 })
    }

    /// `register_handler(...)` system call (§3.2): allocates a UPID, wires
    /// the handler entry point, and enables user-interrupt reception
    /// (`stui`). The UPID starts with `SN` set because the thread is not
    /// yet running.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn register_handler(&mut self, tid: ThreadId, handler: u64) -> Result<UpidAddr, XuiError> {
        let addr = UpidAddr(self.next_upid_addr);
        self.next_upid_addr += 64; // one cache line per descriptor
        self.register_handler_at(tid, handler, addr)?;
        Ok(addr)
    }

    /// Like [`ProtocolModel::register_handler`], but the caller supplies
    /// the descriptor address — the entry point for a kernel that places
    /// UPIDs through a bitmap slot allocator instead of this model's
    /// bump pointer. Writing to an address that already holds a UPID
    /// replaces it (slot reuse).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn register_handler_at(
        &mut self,
        tid: ThreadId,
        handler: u64,
        addr: UpidAddr,
    ) -> Result<(), XuiError> {
        let uinv = self.uinv;
        let running = self.thread(tid)?.running_on;
        let apic = match running {
            Some(core) => self.core(core)?.apic_id,
            None => ApicId::new(0),
        };
        let mut upid = Upid::new();
        upid.nc.nv = uinv.as_u8();
        upid.nc.ndst = apic.as_u32();
        upid.nc.set_sn(running.is_none());
        self.mem.insert(addr, upid);
        let thread = self.thread_mut(tid)?;
        thread.upid_addr = Some(addr);
        thread.receiver.reset(handler);
        thread.receiver.uif.stui();
        Ok(())
    }

    /// `register_sender(...)` system call (§3.2): adds a UITT entry in the
    /// sender's table pointing at the receiver's UPID.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::HandlerNotRegistered`] if the receiver has no
    /// UPID yet, or [`XuiError::UnknownThread`] for bad ids.
    pub fn register_sender(
        &mut self,
        sender: ThreadId,
        receiver: ThreadId,
        vector: UserVector,
    ) -> Result<UittIndex, XuiError> {
        let upid_addr = self
            .thread(receiver)?
            .upid_addr
            .ok_or(XuiError::HandlerNotRegistered { thread: receiver.0 })?;
        Ok(self.thread_mut(sender)?.uitt.register(upid_addr, vector))
    }

    /// Like [`ProtocolModel::register_sender`], but writes the entry at a
    /// caller-chosen UITT slot — the entry point for a kernel whose
    /// bitmap allocator picks the slot (so freed entries are reused
    /// instead of the table growing forever).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::HandlerNotRegistered`] if the receiver has no
    /// UPID yet, or [`XuiError::UnknownThread`] for bad ids.
    pub fn register_sender_at(
        &mut self,
        sender: ThreadId,
        receiver: ThreadId,
        vector: UserVector,
        index: UittIndex,
    ) -> Result<(), XuiError> {
        let upid_addr = self
            .thread(receiver)?
            .upid_addr
            .ok_or(XuiError::HandlerNotRegistered { thread: receiver.0 })?;
        self.thread_mut(sender)?.uitt.register_at(index, upid_addr, vector);
        Ok(())
    }

    /// Invalidates one of `sender`'s UITT entries (route teardown);
    /// subsequent `senduipi` through this index faults.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::InvalidUittIndex`] if the index is out of
    /// range, or [`XuiError::UnknownThread`] for a bad id.
    pub fn invalidate_sender(&mut self, sender: ThreadId, index: UittIndex) -> Result<(), XuiError> {
        self.thread_mut(sender)?.uitt.invalidate(index)
    }

    /// The address of `tid`'s UPID, if a handler has been registered.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn upid_addr_of(&self, tid: ThreadId) -> Result<Option<UpidAddr>, XuiError> {
        Ok(self.thread(tid)?.upid_addr)
    }

    /// Schedules `tid` onto `core` (kernel context-switch-in, §3.2 &
    /// §4.3 & §4.5):
    ///
    /// - clears `SN` and rewrites `NDST` (handles migration);
    /// - reposts any vectors that were parked in `PIR`/`DUPID` while the
    ///   thread was out (the kernel's slow-path self-repost);
    /// - restores KB_Timer state and the forwarded-active bitmap.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::CoreBusy`] if the core already runs a thread.
    pub fn schedule(&mut self, tid: ThreadId, core: CoreId) -> Result<(), XuiError> {
        if let Some(cur) = self.core(core)?.current {
            if cur != tid {
                return Err(XuiError::CoreBusy { core: core.0 });
            }
            return Ok(());
        }
        self.thread(tid)?; // validate
        let apic = self.core(core)?.apic_id;

        // Descriptor bookkeeping.
        let (upid_addr, parked_dupid, saved_active, saved_timer, kb_enabled) = {
            let thread = self.thread_mut(tid)?;
            thread.running_on = Some(core);
            (
                thread.upid_addr,
                thread.dupid.take(),
                thread.saved_active,
                thread.saved_timer.take(),
                thread.kb_timer_enabled,
            )
        };

        let mut reposted = 0u64;
        if let Some(addr) = upid_addr {
            let upid = self.mem.get_mut(addr)?;
            upid.nc.set_sn(false);
            upid.nc.ndst = apic.as_u32();
            upid.nc.set_on(false);
            reposted = upid.take_puir();
        }
        {
            let thread = self.thread_mut(tid)?;
            thread.receiver.uirr.merge_pir(reposted);
            thread.receiver.uirr.merge_pir(parked_dupid);
        }

        let core_state = &mut self.cores[core.0];
        core_state.current = Some(tid);
        core_state.forwarding.load_active(saved_active);
        match kb_enabled {
            Some(vector) => {
                core_state.kb_timer.enable(vector);
                if let Some(state) = saved_timer {
                    core_state.kb_timer.restore_state(state)?;
                }
            }
            None => core_state.kb_timer.disable(),
        }
        Ok(())
    }

    /// Removes the current thread from `core` (kernel context-switch-out):
    /// sets `SN`, saves KB_Timer state and the forwarded-active bitmap.
    ///
    /// Returns the descheduled thread, if the core was busy.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownCore`] for a bad core id.
    pub fn deschedule(&mut self, core: CoreId) -> Result<Option<ThreadId>, XuiError> {
        let Some(tid) = self.core(core)?.current else {
            return Ok(None);
        };
        let upid_addr = self.thread(tid)?.upid_addr;
        if let Some(addr) = upid_addr {
            self.mem.get_mut(addr)?.nc.set_sn(true);
        }
        let core_state = &mut self.cores[core.0];
        let saved_active = core_state.forwarding.save_active();
        // No thread is in context: every forwarded vector must fall back
        // to the slow path until the owner resumes (§4.5).
        core_state.forwarding.load_active(VectorBitmap::new());
        let saved_timer = core_state.kb_timer.save_state();
        core_state.kb_timer.clear_timer();
        core_state.current = None;
        let thread = self.thread_mut(tid)?;
        thread.running_on = None;
        thread.saved_active = saved_active;
        thread.saved_timer = saved_timer;
        Ok(Some(tid))
    }

    /// Executes `senduipi` on behalf of `sender` (§3.3 steps (1)–(4)).
    ///
    /// Because the model is untimed, the notification IPI "arrives"
    /// immediately: if the destination thread is in context on the
    /// destination core, notification processing runs (PIR drains into its
    /// UIRR). Otherwise the vector stays posted in the UPID for the
    /// kernel's resume-time repost.
    ///
    /// # Errors
    ///
    /// Propagates UITT/UPID lookup failures.
    pub fn senduipi(&mut self, sender: ThreadId, index: UittIndex) -> Result<(), XuiError> {
        // `threads` and `mem` are disjoint fields: borrow the sender's
        // table in place rather than cloning it per send.
        let uitt = &self
            .threads
            .get(sender.0)
            .ok_or(XuiError::UnknownThread { thread: sender.0 })?
            .uitt;
        let outcome = senduipi(uitt, &mut self.mem, index)?;
        let Some(ipi) = outcome.ipi else {
            return Ok(());
        };
        // The IPI lands on the core named by NDST. If that core currently
        // runs a thread whose UPID matches, notification processing moves
        // PIR → UIRR; otherwise the kernel captures it (slow path) and the
        // vector is reposted when the thread next runs.
        let entry_upid = UpidAddr(uitt.lookup(index)?.target_upid_addr);
        let dest_core = self
            .cores
            .iter()
            .position(|c| c.apic_id == ipi.dest)
            .map(CoreId);
        if let Some(core) = dest_core {
            if let Some(cur) = self.cores[core.0].current {
                if self.threads[cur.0].upid_addr == Some(entry_upid) {
                    let mut uirr = self.threads[cur.0].receiver.uirr;
                    notification_processing(&mut self.mem, entry_upid, &mut uirr)?;
                    self.threads[cur.0].receiver.uirr = uirr;
                }
            }
        }
        Ok(())
    }

    /// Kernel side: enables the KB_Timer feature for a thread and assigns
    /// its delivery vector (`enable_kb_timer()` syscall, §4.3).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn enable_kb_timer(&mut self, tid: ThreadId, vector: UserVector) -> Result<(), XuiError> {
        let running = self.thread(tid)?.running_on;
        self.thread_mut(tid)?.kb_timer_enabled = Some(vector);
        if let Some(core) = running {
            self.cores[core.0].kb_timer.enable(vector);
        }
        Ok(())
    }

    /// User side: `set_timer(cycles, mode)` on the thread's current core.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::ThreadNotRunning`] if the thread is out of
    /// context, or [`XuiError::KbTimerDisabled`] if the kernel has not
    /// enabled the feature.
    pub fn set_timer(
        &mut self,
        tid: ThreadId,
        cycles: u64,
        mode: TimerMode,
    ) -> Result<(), XuiError> {
        let core = self
            .thread(tid)?
            .running_on
            .ok_or(XuiError::ThreadNotRunning { thread: tid.0 })?;
        let now = self.now;
        self.cores[core.0].kb_timer.set_timer(cycles, mode, now)
    }

    /// Registers `tid` to receive forwarded device interrupts arriving on
    /// `vector` at `core`, returning the assigned user vector (§4.5).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::VectorAlreadyForwarded`] if the conventional
    /// vector is taken on that core.
    pub fn register_forwarding(
        &mut self,
        tid: ThreadId,
        core: CoreId,
        vector: Vector,
        uv: UserVector,
    ) -> Result<(), XuiError> {
        self.thread(tid)?;
        let core_state = self
            .cores
            .get_mut(core.0)
            .ok_or(XuiError::UnknownCore { core: core.0 })?;
        core_state.forwarding.map(vector, uv)?;
        let key = (core.0, vector.as_u8());
        match self.forward_owner.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.forward_owner[i].1 = tid,
            Err(i) => self.forward_owner.insert(i, (key, tid)),
        }
        // If the registering thread is currently running there, its
        // active bit is set immediately; otherwise it is loaded from the
        // saved bitmap on its next resume.
        if core_state.current == Some(tid) {
            core_state.forwarding.activate(vector);
        } else {
            let mut saved = self.threads[tid.0].saved_active;
            saved.set(vector);
            self.threads[tid.0].saved_active = saved;
        }
        Ok(())
    }

    /// A device interrupt arrives at `core` on conventional `vector`
    /// (§4.5 worked example). Fast path posts to the running thread's
    /// UIRR; slow path parks in the registered thread's DUPID.
    ///
    /// Returns the routing decision for inspection.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownCore`] for a bad core id.
    pub fn device_interrupt(
        &mut self,
        core: CoreId,
        vector: Vector,
    ) -> Result<ForwardDecision, XuiError> {
        let decision = self.core(core)?.forwarding.route(vector);
        match decision {
            ForwardDecision::Legacy => {}
            ForwardDecision::FastPath(uv) => {
                let tid = self.cores[core.0]
                    .current
                    .expect("fast path requires a running thread");
                self.threads[tid.0].receiver.uirr.post(uv);
            }
            ForwardDecision::SlowPath(uv) => {
                let key = (core.0, vector.as_u8());
                if let Ok(i) = self.forward_owner.binary_search_by_key(&key, |&(k, _)| k) {
                    let tid = self.forward_owner[i].1;
                    self.threads[tid.0].dupid.post(uv);
                }
            }
        }
        Ok(decision)
    }

    /// Advances model time, firing any KB_Timer whose deadline passed and
    /// posting its vector to the thread running on that core.
    pub fn advance_time(&mut self, to: u64) {
        self.now = self.now.max(to);
        for core in self.cores.iter_mut() {
            if let (Some(tid), Some(uv)) = (core.current, core.kb_timer.poll(self.now)) {
                self.threads[tid.0].receiver.uirr.post(uv);
            }
        }
    }

    /// Delivers every deliverable pending user interrupt on `tid`
    /// (handler modelled as instantaneous: deliver → log → `uiret`).
    /// Returns the vectors this call delivered, in delivery order: the
    /// tail it appended to [`ProtocolModel::delivered_log`].
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::ThreadNotRunning`] if the thread is out of
    /// context — delivery only happens to running threads.
    pub fn run_pending(&mut self, tid: ThreadId) -> Result<&[UserVector], XuiError> {
        if self.thread(tid)?.running_on.is_none() {
            return Err(XuiError::ThreadNotRunning { thread: tid.0 });
        }
        let thread = self.thread_mut(tid)?;
        let start = thread.delivered.len();
        while let Some(d) = thread.receiver.try_deliver(0, 0) {
            thread.delivered.push(d.frame.vector);
            thread.receiver.uiret();
        }
        Ok(&thread.delivered[start..])
    }

    /// The `clui` instruction on `tid`: clears UIF, masking user-interrupt
    /// delivery until `stui` (§3.3).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn clui(&mut self, tid: ThreadId) -> Result<(), XuiError> {
        self.thread_mut(tid)?.receiver.uif.clui();
        Ok(())
    }

    /// The `stui` instruction on `tid`: sets UIF, re-enabling delivery.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn stui(&mut self, tid: ThreadId) -> Result<(), XuiError> {
        self.thread_mut(tid)?.receiver.uif.stui();
        Ok(())
    }

    /// The `testui` instruction: reads `tid`'s user-interrupt flag.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn testui(&self, tid: ThreadId) -> Result<bool, XuiError> {
        Ok(self.thread(tid)?.receiver.uif.testui())
    }

    /// The core `tid` is running on, if it is in context.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn running_on(&self, tid: ThreadId) -> Result<Option<CoreId>, XuiError> {
        Ok(self.thread(tid)?.running_on)
    }

    /// All vectors ever delivered to `tid`, in order.
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::UnknownThread`] for a bad id.
    pub fn delivered_log(&self, tid: ThreadId) -> Result<&[UserVector], XuiError> {
        Ok(&self.thread(tid)?.delivered)
    }

    /// Direct read of a thread's UPID (test/diagnostic aid).
    ///
    /// # Errors
    ///
    /// Returns [`XuiError::HandlerNotRegistered`] if the thread has no
    /// UPID.
    pub fn upid_of(&self, tid: ThreadId) -> Result<Upid, XuiError> {
        let addr = self
            .thread(tid)?
            .upid_addr
            .ok_or(XuiError::HandlerNotRegistered { thread: tid.0 })?;
        self.mem.get(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    fn two_thread_setup() -> (ProtocolModel, ThreadId, ThreadId, UittIndex) {
        let mut sys = ProtocolModel::new(2);
        let sender = sys.create_thread();
        let receiver = sys.create_thread();
        sys.register_handler(receiver, 0x4000).unwrap();
        let idx = sys.register_sender(sender, receiver, uv(3)).unwrap();
        sys.schedule(sender, CoreId(0)).unwrap();
        (sys, sender, receiver, idx)
    }

    #[test]
    fn fast_path_send_and_deliver() {
        let (mut sys, sender, receiver, idx) = two_thread_setup();
        sys.schedule(receiver, CoreId(1)).unwrap();
        sys.senduipi(sender, idx).unwrap();
        assert_eq!(sys.run_pending(receiver).unwrap(), vec![uv(3)]);
        // UPID is fully drained afterwards.
        let upid = sys.upid_of(receiver).unwrap();
        assert!(!upid.nc.on());
        assert_eq!(upid.puir, 0);
    }

    #[test]
    fn slow_path_delivers_on_resume() {
        let (mut sys, sender, receiver, idx) = two_thread_setup();
        // Receiver not scheduled: SN is set, send posts without IPI.
        sys.senduipi(sender, idx).unwrap();
        let upid = sys.upid_of(receiver).unwrap();
        assert!(upid.nc.sn());
        assert_eq!(upid.puir, 1 << 3);
        // Resume: kernel reposts.
        sys.schedule(receiver, CoreId(1)).unwrap();
        assert_eq!(sys.run_pending(receiver).unwrap(), vec![uv(3)]);
    }

    #[test]
    fn migration_updates_ndst() {
        let (mut sys, sender, receiver, idx) = two_thread_setup();
        sys.schedule(receiver, CoreId(1)).unwrap();
        assert_eq!(sys.upid_of(receiver).unwrap().nc.ndst, 1);
        sys.deschedule(CoreId(1)).unwrap();
        sys.deschedule(CoreId(0)).unwrap();
        sys.schedule(receiver, CoreId(0)).unwrap();
        assert_eq!(sys.upid_of(receiver).unwrap().nc.ndst, 0);
        sys.schedule(sender, CoreId(1)).unwrap();
        sys.senduipi(sender, idx).unwrap();
        assert_eq!(sys.run_pending(receiver).unwrap(), vec![uv(3)]);
    }

    #[test]
    fn deschedule_sets_sn() {
        let (mut sys, _, receiver, _) = two_thread_setup();
        sys.schedule(receiver, CoreId(1)).unwrap();
        assert!(!sys.upid_of(receiver).unwrap().nc.sn());
        let out = sys.deschedule(CoreId(1)).unwrap();
        assert_eq!(out, Some(receiver));
        assert!(sys.upid_of(receiver).unwrap().nc.sn());
    }

    #[test]
    fn core_busy_rejected() {
        let (mut sys, _, receiver, _) = two_thread_setup();
        assert_eq!(
            sys.schedule(receiver, CoreId(0)),
            Err(XuiError::CoreBusy { core: 0 })
        );
    }

    #[test]
    fn kb_timer_fires_for_running_thread_and_multiplexes() {
        let mut sys = ProtocolModel::new(1);
        let a = sys.create_thread();
        let b = sys.create_thread();
        sys.register_handler(a, 0x1).unwrap();
        sys.register_handler(b, 0x2).unwrap();
        sys.enable_kb_timer(a, uv(1)).unwrap();
        sys.enable_kb_timer(b, uv(2)).unwrap();

        sys.schedule(a, CoreId(0)).unwrap();
        sys.set_timer(a, 1_000, TimerMode::Periodic).unwrap();
        sys.advance_time(1_000);
        assert_eq!(sys.run_pending(a).unwrap(), vec![uv(1)]);

        // Switch to b: a's timer state is saved; b has no armed timer.
        sys.deschedule(CoreId(0)).unwrap();
        sys.schedule(b, CoreId(0)).unwrap();
        sys.advance_time(2_500);
        assert_eq!(sys.run_pending(b).unwrap(), Vec::<UserVector>::new());

        // Back to a: its periodic timer resumes from the saved deadline.
        sys.deschedule(CoreId(0)).unwrap();
        sys.schedule(a, CoreId(0)).unwrap();
        sys.advance_time(2_600);
        assert_eq!(sys.run_pending(a).unwrap(), vec![uv(1)]);
    }

    #[test]
    fn forwarding_fast_and_slow_paths() {
        let mut sys = ProtocolModel::new(1);
        let t = sys.create_thread();
        sys.register_handler(t, 0x1).unwrap();
        sys.register_forwarding(t, CoreId(0), Vector::new(8), uv(4))
            .unwrap();

        // Not running → slow path parks in DUPID.
        let d = sys.device_interrupt(CoreId(0), Vector::new(8)).unwrap();
        assert_eq!(d, ForwardDecision::SlowPath(uv(4)));

        // Resume → DUPID reposts, pending delivers.
        sys.schedule(t, CoreId(0)).unwrap();
        assert_eq!(sys.run_pending(t).unwrap(), vec![uv(4)]);

        // Running → fast path.
        let d = sys.device_interrupt(CoreId(0), Vector::new(8)).unwrap();
        assert_eq!(d, ForwardDecision::FastPath(uv(4)));
        assert_eq!(sys.run_pending(t).unwrap(), vec![uv(4)]);
    }

    #[test]
    fn unmapped_device_vector_is_legacy() {
        let mut sys = ProtocolModel::new(1);
        let d = sys.device_interrupt(CoreId(0), Vector::new(9)).unwrap();
        assert_eq!(d, ForwardDecision::Legacy);
    }

    /// The oracle differ's set-up: a receiver, send lanes, a KB_Timer
    /// and a forwarded line on every core.
    fn differ_setup(sys: &mut ProtocolModel, cores: usize) {
        let sender = sys.create_thread();
        let receiver = sys.create_thread();
        sys.register_handler(receiver, 0x4000).unwrap();
        for v in [3, 7, 12] {
            sys.register_sender(sender, receiver, uv(v)).unwrap();
        }
        sys.enable_kb_timer(receiver, uv(1)).unwrap();
        for core in 0..cores {
            sys.register_forwarding(receiver, CoreId(core), Vector::new(40), uv(20)).unwrap();
        }
        sys.schedule(sender, CoreId(0)).unwrap();
    }

    #[test]
    fn setup_after_reset_equals_a_fresh_model() {
        let mut sys = ProtocolModel::new(4);
        // A history that leaves something behind in every field.
        differ_setup(&mut sys, 4);
        let extra = sys.create_thread();
        sys.register_handler(extra, 0x10).unwrap();
        sys.uinv = Vector::new(0x20);
        sys.schedule(ThreadId(1), CoreId(2)).unwrap();
        sys.set_timer(ThreadId(1), 100, TimerMode::Periodic).unwrap();
        sys.advance_time(1_000);
        sys.senduipi(ThreadId(0), UittIndex(1)).unwrap();
        sys.run_pending(ThreadId(1)).unwrap();
        sys.deschedule(CoreId(2)).unwrap();
        sys.device_interrupt(CoreId(3), Vector::new(40)).unwrap();
        for cores in [2, 4] {
            sys.reset(cores);
            assert_eq!(sys, ProtocolModel::new(cores));
            differ_setup(&mut sys, cores);
            let mut fresh = ProtocolModel::new(cores);
            differ_setup(&mut fresh, cores);
            assert_eq!(sys, fresh);
            assert_eq!(format!("{sys:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn send_to_thread_running_elsewhere_is_captured_not_lost() {
        // Receiver scheduled on core 1, then migrates to core 0 while ON
        // is outstanding: the resume-time repost still delivers.
        let (mut sys, sender, receiver, idx) = two_thread_setup();
        sys.schedule(receiver, CoreId(1)).unwrap();
        sys.deschedule(CoreId(1)).unwrap();
        sys.senduipi(sender, idx).unwrap(); // SN set: posted, no IPI
        sys.schedule(receiver, CoreId(1)).unwrap();
        assert_eq!(sys.run_pending(receiver).unwrap(), vec![uv(3)]);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Send(u8),
        DescheduleReceiver,
        ScheduleReceiver(bool), // core choice
        Deliver,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..8).prop_map(Op::Send),
            Just(Op::DescheduleReceiver),
            any::<bool>().prop_map(Op::ScheduleReceiver),
            Just(Op::Deliver),
        ]
    }

    proptest! {
        /// Across arbitrary interleavings of sends, context switches,
        /// migrations and deliveries, after quiescing:
        /// - every vector that was ever sent has been delivered at least
        ///   once after its send (nothing lost);
        /// - nothing is delivered that was never sent (nothing invented);
        /// - per-vector delivery count never exceeds send count
        ///   (coalescing only merges, never amplifies).
        #[test]
        fn no_interrupt_lost_or_invented(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut sys = ProtocolModel::new(3);
            let sender = sys.create_thread();
            let receiver = sys.create_thread();
            sys.register_handler(receiver, 0x4000).unwrap();
            let mut idx_by_uv = Vec::new();
            for raw in 0..8u8 {
                idx_by_uv.push(sys.register_sender(sender, receiver, uv(raw)).unwrap());
            }
            sys.schedule(sender, CoreId(0)).unwrap();

            let mut sent = [0u32; 8];
            let mut receiver_core: Option<CoreId> = None;

            for op in ops {
                match op {
                    Op::Send(raw) => {
                        sys.senduipi(sender, idx_by_uv[raw as usize]).unwrap();
                        sent[raw as usize] += 1;
                    }
                    Op::DescheduleReceiver => {
                        if let Some(core) = receiver_core.take() {
                            sys.deschedule(core).unwrap();
                        }
                    }
                    Op::ScheduleReceiver(second) => {
                        if receiver_core.is_none() {
                            let core = if second { CoreId(2) } else { CoreId(1) };
                            sys.schedule(receiver, core).unwrap();
                            receiver_core = Some(core);
                        }
                    }
                    Op::Deliver => {
                        if receiver_core.is_some() {
                            sys.run_pending(receiver).unwrap();
                        }
                    }
                }
            }

            // Quiesce: make sure the receiver runs and drains everything.
            if receiver_core.is_none() {
                sys.schedule(receiver, CoreId(1)).unwrap();
            }
            sys.run_pending(receiver).unwrap();

            let mut delivered = [0u32; 8];
            for v in sys.delivered_log(receiver).unwrap() {
                delivered[v.index()] += 1;
            }
            for raw in 0..8usize {
                prop_assert!(delivered[raw] <= sent[raw],
                    "vector {raw}: delivered {} > sent {}", delivered[raw], sent[raw]);
                if sent[raw] > 0 {
                    prop_assert!(delivered[raw] >= 1,
                        "vector {raw}: sent {} times but never delivered", sent[raw]);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum FwdOp {
        DeviceIrq(u8),       // which of 4 forwarded conventional vectors fires
        TimerAdvance(u64),   // advance time (the KB_Timer may fire)
        Deschedule,
        Schedule,
        Deliver,
    }

    fn fwd_op_strategy() -> impl Strategy<Value = FwdOp> {
        prop_oneof![
            (0u8..4).prop_map(FwdOp::DeviceIrq),
            (100u64..5_000).prop_map(FwdOp::TimerAdvance),
            Just(FwdOp::Deschedule),
            Just(FwdOp::Schedule),
            Just(FwdOp::Deliver),
        ]
    }

    proptest! {
        /// Forwarded device interrupts and KB_Timer firings across
        /// arbitrary context-switch interleavings: fast path while the
        /// thread runs, DUPID parking while it doesn't — never losing a
        /// vector that fired at least once, never inventing one.
        #[test]
        fn forwarding_and_timers_never_lose_interrupts(
            ops in proptest::collection::vec(fwd_op_strategy(), 1..80),
        ) {
            let mut sys = ProtocolModel::new(1);
            let t = sys.create_thread();
            sys.register_handler(t, 0x100).unwrap();
            // Four forwarded device vectors (8..12 → uv 10..14) and a
            // periodic KB_Timer on uv 1.
            for i in 0u8..4 {
                sys.register_forwarding(t, CoreId(0), Vector::new(8 + i), uv(10 + i)).unwrap();
            }
            sys.enable_kb_timer(t, uv(1)).unwrap();
            sys.schedule(t, CoreId(0)).unwrap();
            sys.set_timer(t, 1_000, TimerMode::Periodic).unwrap();
            let mut running = true;
            let mut fired = [0u32; 64];
            let mut now = sys.now();

            for op in ops {
                match op {
                    FwdOp::DeviceIrq(i) => {
                        let d = sys.device_interrupt(CoreId(0), Vector::new(8 + i)).unwrap();
                        prop_assert_ne!(d, ForwardDecision::Legacy, "registered vector");
                        fired[(10 + i) as usize] += 1;
                    }
                    FwdOp::TimerAdvance(dt) => {
                        now += dt;
                        sys.advance_time(now);
                        // The timer posts only while its thread runs.
                    }
                    FwdOp::Deschedule => {
                        if running {
                            sys.deschedule(CoreId(0)).unwrap();
                            running = false;
                        }
                    }
                    FwdOp::Schedule => {
                        if !running {
                            sys.schedule(t, CoreId(0)).unwrap();
                            running = true;
                        }
                    }
                    FwdOp::Deliver => {
                        if running {
                            sys.run_pending(t).unwrap();
                        }
                    }
                }
            }
            if !running {
                sys.schedule(t, CoreId(0)).unwrap();
            }
            sys.run_pending(t).unwrap();

            let mut delivered = [0u32; 64];
            for v in sys.delivered_log(t).unwrap() {
                delivered[v.index()] += 1;
            }
            for raw in 10..14usize {
                prop_assert!(delivered[raw] <= fired[raw]);
                if fired[raw] > 0 {
                    prop_assert!(delivered[raw] >= 1,
                        "forwarded vector {raw} fired {} times but never delivered", fired[raw]);
                }
            }
            // Timer deliveries only on uv 1 and never on unfired vectors.
            for raw in (0..64).filter(|r| !(10..14).contains(r) && *r != 1) {
                prop_assert_eq!(delivered[raw], 0, "vector {} was never sourced", raw);
            }
        }
    }
}
