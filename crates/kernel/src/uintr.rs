//! The UIPI/xUI kernel interface (§3.2, §4.3, §4.5): system calls that
//! set up routes, multiplex the KB_Timer, and manage threads — wrapping
//! the architectural [`ProtocolModel`] with syscall/context-switch cost
//! accounting.
//!
//! The point the paper's design makes is visible directly in the
//! accounting: *setup* goes through the kernel and costs syscalls, but
//! the *data path* (`senduipi`, delivery, `uiret`, `set_timer`) never
//! enters the kernel and charges nothing here.
//!
//! All entry points return typed [`KernelError`]s: architectural
//! failures are wrapped, and the kernel itself rejects double handler
//! registration and any operation on a torn-down thread. Senders that
//! must survive transient delivery faults use
//! [`UintrKernel::senduipi_with_retry`] with a [`RetryPolicy`].

use serde::{Deserialize, Serialize};

use xui_core::kb_timer::TimerMode;
use xui_core::model::{CoreId, ProtocolModel, ThreadId};
use xui_core::recycle::Recycled;
use xui_core::uitt::{UittIndex, UpidAddr};
use xui_core::vectors::{UserVector, Vector};
use xui_uipi_abi::IndexAllocator;

use crate::costs::OsCosts;
use crate::error::{KernelError, RetryPolicy};

/// Base address of the kernel's UPID pool; slot `n` lives at
/// `UPID_POOL_BASE + 64 * n` (one cache line per descriptor, matching
/// `xui_uipi_abi::upid::UPID_BYTES`).
pub const UPID_POOL_BASE: u64 = 0x1000;

/// Default UPID-pool capacity (receiver registrations).
pub const DEFAULT_UPID_SLOTS: usize = 64;

/// Default per-table UITT capacity (sender registrations).
pub const DEFAULT_UITT_SLOTS: usize = 64;

/// Per-syscall CPU costs (cycles @ 2 GHz): a kernel entry/exit plus the
/// table/descriptor work each call performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyscallCosts {
    /// `register_handler(...)`: allocate a UPID, wire the handler.
    pub register_handler: u64,
    /// `register_sender(...)`: append a UITT entry.
    pub register_sender: u64,
    /// `enable_kb_timer()` / `disable_kb_timer()`.
    pub enable_kb_timer: u64,
    /// Registering a forwarded device vector (§4.5).
    pub register_forwarding: u64,
    /// `teardown_thread(...)`: tear down routes and free the UPID.
    pub teardown_thread: u64,
}

impl SyscallCosts {
    /// Plausible Linux-like costs at 2 GHz.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            register_handler: 3_000,
            register_sender: 2_400,
            enable_kb_timer: 1_800,
            register_forwarding: 2_600,
            teardown_thread: 2_200,
        }
    }
}

impl Default for SyscallCosts {
    fn default() -> Self {
        Self::paper()
    }
}

/// Where charged cycles went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UintrAccounting {
    /// Cycles spent in setup system calls.
    pub syscall_cycles: u64,
    /// Cycles spent on kernel context switches (SN/NDST/timer/forwarding
    /// bookkeeping rides along for free on the switch).
    pub switch_cycles: u64,
    /// Number of system calls made.
    pub syscalls: u64,
    /// Number of context switches performed.
    pub switches: u64,
    /// User-level data-path operations that cost the kernel nothing.
    pub kernel_free_ops: u64,
    /// Send attempts that hit a transient failure and were retried.
    pub send_retries: u64,
    /// Cycles spent backing off between retried sends (user-level spin,
    /// not kernel time — tracked separately from `syscall_cycles`).
    pub backoff_cycles: u64,
}

/// Outcome of a successful [`UintrKernel::senduipi_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendOutcome {
    /// Attempts made, including the successful one (≥ 1).
    pub attempts: u32,
    /// Total backoff cycles spent before success.
    pub backoff_cycles: u64,
}

/// The kernel interface over the architectural model.
///
/// # Examples
///
/// ```
/// use xui_kernel::uintr::UintrKernel;
/// use xui_core::model::CoreId;
/// use xui_core::vectors::UserVector;
///
/// let mut k = UintrKernel::new(2);
/// let a = k.create_thread();
/// let b = k.create_thread();
/// k.register_handler(b, 0x4000)?;
/// let idx = k.register_sender(a, b, UserVector::new(3)?)?;
/// k.schedule(a, CoreId(0))?;
/// k.schedule(b, CoreId(1))?;
/// k.senduipi(a, idx)?; // user level: charges no kernel cycles
/// assert_eq!(k.run_pending(b)?.len(), 1);
/// assert!(k.accounting().syscall_cycles > 0);
/// # Ok::<(), xui_kernel::KernelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UintrKernel {
    model: ProtocolModel,
    costs: SyscallCosts,
    os: OsCosts,
    acct: UintrAccounting,
    /// The kernel's own record of each thread, indexed by `ThreadId`.
    threads: Vec<KernelThread>,
    /// Kernel's own run-queue view: which thread occupies each core.
    running: Vec<Option<ThreadId>>,
    /// Bitmap allocator over the UPID pool (receiver-side slots).
    upid_alloc: IndexAllocator,
    /// Per-table UITT capacity used when a thread's table is created.
    uitt_slots: usize,
    /// Every UITT the kernel manages; refcounted by `members`.
    tables: Recycled<SharedUitt>,
}

/// What the kernel records about one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct KernelThread {
    /// Has `register_handler` run (and not been torn down)?
    handler_registered: bool,
    /// Has the thread been torn down?
    torn_down: bool,
    /// The UPID-pool slot backing its descriptor.
    upid_slot: Option<usize>,
    /// Index into `tables` of the UITT it uses, if any.
    table: Option<usize>,
}

/// One registered route in a (possibly shared) UITT. Routes whose
/// receiver has been torn down are kept as tombstones — their allocator
/// slot is freed and the entry invalidated, but the send path still
/// reports [`KernelError::ThreadTornDown`] until the slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    receiver: ThreadId,
    vector: UserVector,
}

/// A refcounted UITT shared by every thread in `members`: the bitmap
/// allocator hands out slots, and registrations are mirrored into each
/// member's architectural table at the same index. `routes` has one
/// entry per slot: the live route, a tombstone, or `None`.
#[derive(Debug, Clone, Default, PartialEq)]
struct SharedUitt {
    alloc: IndexAllocator,
    members: Vec<ThreadId>,
    routes: Vec<Option<Route>>,
}

impl SharedUitt {
    /// An empty table of `slots` entries, keeping the buffers' capacity.
    fn reset(&mut self, slots: usize) {
        let Self { alloc, members, routes } = self;
        alloc.reset(slots);
        members.clear();
        routes.clear();
        routes.resize(slots, None);
    }
}

impl UintrKernel {
    /// Creates a kernel over `cores` idle cores with the default table
    /// capacities ([`DEFAULT_UPID_SLOTS`], [`DEFAULT_UITT_SLOTS`]).
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self::with_capacities(cores, DEFAULT_UPID_SLOTS, DEFAULT_UITT_SLOTS)
    }

    /// Creates a kernel with explicit UPID-pool and per-UITT capacities
    /// (the `ENOSPC` paths trigger when either fills up).
    #[must_use]
    pub fn with_capacities(cores: usize, upid_slots: usize, uitt_slots: usize) -> Self {
        let mut kernel = Self {
            model: ProtocolModel::new(0),
            costs: SyscallCosts::paper(),
            os: OsCosts::paper(),
            acct: UintrAccounting::default(),
            threads: Vec::new(),
            running: Vec::new(),
            upid_alloc: IndexAllocator::new(upid_slots),
            uitt_slots,
            tables: Recycled::new(),
        };
        kernel.reset(cores);
        kernel
    }

    /// Returns the kernel to the state [`UintrKernel::with_capacities`]
    /// builds for `cores` cores, with the UPID-pool and UITT capacities
    /// and the costs it was built with: no threads, no tables, nothing
    /// charged. Every buffer keeps its capacity, so rebuilding the same
    /// set-up after a reset allocates nothing.
    pub fn reset(&mut self, cores: usize) {
        let Self {
            model,
            costs: _,
            os: _,
            acct,
            threads,
            running,
            upid_alloc,
            uitt_slots: _,
            tables,
        } = self;
        model.reset(cores);
        *acct = UintrAccounting::default();
        threads.clear();
        running.clear();
        running.resize(cores, None);
        upid_alloc.reset(upid_alloc.capacity());
        tables.clear();
    }

    /// The cycle accounting so far.
    #[must_use]
    pub fn accounting(&self) -> UintrAccounting {
        self.acct
    }

    /// Direct access to the underlying architectural model.
    #[must_use]
    pub fn model(&self) -> &ProtocolModel {
        &self.model
    }

    fn syscall(&mut self, cost: u64) {
        self.acct.syscalls += 1;
        self.acct.syscall_cycles += cost;
    }

    fn check_live(&self, tid: ThreadId) -> Result<(), KernelError> {
        if self.is_torn_down(tid) {
            return Err(KernelError::ThreadTornDown { thread: tid.0 });
        }
        Ok(())
    }

    /// The table `tid` uses, if any.
    fn table_of(&self, tid: ThreadId) -> Option<usize> {
        self.threads.get(tid.0).and_then(|t| t.table)
    }

    /// Creates a thread (no syscall charged: part of thread spawn).
    pub fn create_thread(&mut self) -> ThreadId {
        let tid = self.model.create_thread();
        if self.threads.len() <= tid.0 {
            self.threads.resize(tid.0 + 1, KernelThread::default());
        }
        tid
    }

    /// The table `tid` uses, creating an empty one when it has none yet.
    fn table_for(&mut self, tid: ThreadId) -> usize {
        if let Some(t) = self.table_of(tid) {
            return t;
        }
        let slots = self.uitt_slots;
        self.tables.push_reset(|table| table.reset(slots)).members.push(tid);
        let t = self.tables.len() - 1;
        self.threads[tid.0].table = Some(t);
        t
    }

    /// Receiver behind `sender`'s route at `index`, if one is recorded
    /// (live or tombstoned).
    fn route_receiver(&self, sender: ThreadId, index: UittIndex) -> Option<ThreadId> {
        let t = self.table_of(sender)?;
        self.tables[t].routes.get(index.0).copied().flatten().map(|r| r.receiver)
    }

    /// `register_handler(...)` system call: picks a UPID-pool slot with
    /// the bitmap allocator (slot `n` → `UPID_POOL_BASE + 64n`) and
    /// wires the descriptor through the architectural model.
    ///
    /// # Errors
    ///
    /// [`KernelError::HandlerAlreadyRegistered`] on a second call for
    /// the same live thread, [`KernelError::ThreadTornDown`] after
    /// teardown, [`KernelError::UpidPoolFull`] when every descriptor
    /// slot is taken (`ENOSPC`); architectural failures are wrapped.
    pub fn register_handler(&mut self, tid: ThreadId, handler: u64) -> Result<(), KernelError> {
        self.check_live(tid)?;
        if self.threads.get(tid.0).is_some_and(|t| t.handler_registered) {
            return Err(KernelError::HandlerAlreadyRegistered { thread: tid.0 });
        }
        let Some(slot) = self.upid_alloc.allocate() else {
            return Err(KernelError::UpidPoolFull { capacity: self.upid_alloc.capacity() });
        };
        self.syscall(self.costs.register_handler);
        let addr = UpidAddr(UPID_POOL_BASE + 64 * slot as u64);
        if let Err(e) = self.model.register_handler_at(tid, handler, addr) {
            self.upid_alloc.release(slot);
            return Err(e.into());
        }
        self.threads[tid.0].upid_slot = Some(slot);
        self.threads[tid.0].handler_registered = true;
        Ok(())
    }

    /// `register_sender(...)` system call: allocates a slot in the
    /// caller's (possibly shared) UITT and mirrors the entry into every
    /// member's architectural table at the same index.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] if either side was torn down,
    /// [`KernelError::UittFull`] when the table has no free entry
    /// (`ENOSPC`); architectural failures (e.g. receiver has no
    /// handler) wrapped.
    pub fn register_sender(
        &mut self,
        sender: ThreadId,
        receiver: ThreadId,
        uv: UserVector,
    ) -> Result<UittIndex, KernelError> {
        self.check_live(sender)?;
        self.check_live(receiver)?;
        // Precheck the receiver so a failed registration cannot leak a
        // table slot.
        self.model.upid_addr_of(receiver)?.ok_or(KernelError::Arch(
            xui_core::XuiError::HandlerNotRegistered { thread: receiver.0 },
        ))?;
        let t = self.table_for(sender);
        let Some(slot) = self.tables[t].alloc.allocate() else {
            return Err(KernelError::UittFull { capacity: self.tables[t].alloc.capacity() });
        };
        self.syscall(self.costs.register_sender);
        let idx = UittIndex(slot);
        // A reused slot replaces any tombstone left by a torn-down
        // receiver.
        self.tables[t].routes[slot] = None;
        for &m in &self.tables[t].members {
            self.model.register_sender_at(m, receiver, uv, idx)?;
        }
        self.tables[t].routes[slot] = Some(Route { receiver, vector: uv });
        Ok(idx)
    }

    /// `share_uitt(...)` system call: `joiner` attaches to `owner`'s
    /// UITT (created empty if `owner` has none). Existing routes are
    /// cloned into `joiner`'s architectural table at the same indices,
    /// and future registrations by any member are visible to all —
    /// the refcounted-table model of a multithreaded sender process.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] if either side was torn down,
    /// [`KernelError::AlreadyHasUitt`] if `joiner` already uses a table
    /// (its own or a previously joined one) or `owner == joiner`;
    /// architectural failures wrapped.
    pub fn share_uitt(&mut self, owner: ThreadId, joiner: ThreadId) -> Result<(), KernelError> {
        self.check_live(owner)?;
        self.check_live(joiner)?;
        if owner == joiner || self.table_of(joiner).is_some() {
            return Err(KernelError::AlreadyHasUitt { thread: joiner.0 });
        }
        let t = self.table_for(owner);
        self.syscall(self.costs.register_sender);
        // Clone-on-register: mirror the live routes (tombstones have
        // their slot freed and are skipped) into the joiner's table.
        let table = &self.tables[t];
        for (slot, route) in table.routes.iter().enumerate() {
            if let (Some(r), true) = (route, table.alloc.is_allocated(slot)) {
                self.model.register_sender_at(joiner, r.receiver, r.vector, UittIndex(slot))?;
            }
        }
        self.tables[t].members.push(joiner);
        self.threads[joiner.0].table = Some(t);
        Ok(())
    }

    /// `unregister_sender(...)` system call: invalidates the route at
    /// `index` in the caller's (possibly shared) UITT and returns the
    /// slot to the allocator for reuse.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; wrapped
    /// [`XuiError::InvalidUittIndex`](xui_core::XuiError) if the caller
    /// has no table or the slot is not currently allocated.
    pub fn unregister_sender(
        &mut self,
        sender: ThreadId,
        index: UittIndex,
    ) -> Result<(), KernelError> {
        self.check_live(sender)?;
        let t = self
            .table_of(sender)
            .filter(|&t| self.tables[t].alloc.is_allocated(index.0))
            .ok_or(KernelError::Arch(xui_core::XuiError::InvalidUittIndex {
                index: index.0,
            }))?;
        self.syscall(self.costs.register_sender);
        for &m in &self.tables[t].members {
            self.model.invalidate_sender(m, index)?;
        }
        self.tables[t].alloc.release(index.0);
        self.tables[t].routes[index.0] = None;
        Ok(())
    }

    /// `enable_kb_timer()` system call (§4.3).
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn enable_kb_timer(&mut self, tid: ThreadId, uv: UserVector) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.syscall(self.costs.enable_kb_timer);
        self.model.enable_kb_timer(tid, uv)?;
        Ok(())
    }

    /// Device-interrupt forwarding registration (§4.5).
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn register_forwarding(
        &mut self,
        tid: ThreadId,
        core: CoreId,
        vector: Vector,
        uv: UserVector,
    ) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.syscall(self.costs.register_forwarding);
        self.model.register_forwarding(tid, core, vector, uv)?;
        Ok(())
    }

    /// Kernel context switch in: charges a kthread switch; the UIPI
    /// bookkeeping (clear SN, rewrite NDST, repost, restore timer and
    /// forwarding state) rides along.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn schedule(&mut self, tid: ThreadId, core: CoreId) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.acct.switches += 1;
        self.acct.switch_cycles += self.os.kthread_switch;
        self.model.schedule(tid, core)?;
        if let Some(slot) = self.running.get_mut(core.0) {
            *slot = Some(tid);
        }
        Ok(())
    }

    /// Kernel context switch out (sets SN, saves timer/forwarding
    /// state). Switch cost is charged on the resume side only.
    ///
    /// # Errors
    ///
    /// Architectural failures wrapped.
    pub fn deschedule(&mut self, core: CoreId) -> Result<Option<ThreadId>, KernelError> {
        let out = self.model.deschedule(core)?;
        if let Some(slot) = self.running.get_mut(core.0) {
            *slot = None;
        }
        Ok(out)
    }

    /// Tears down a thread: removes it from its core (if running) and
    /// invalidates every route to or from it. Subsequent operations on
    /// the thread — including `senduipi` over a route that targets it —
    /// fail with [`KernelError::ThreadTornDown`].
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] if already torn down;
    /// architectural failures wrapped.
    pub fn teardown_thread(&mut self, tid: ThreadId) -> Result<(), KernelError> {
        self.check_live(tid)?;
        if tid.0 >= self.threads.len() {
            return Err(KernelError::Arch(xui_core::XuiError::UnknownThread { thread: tid.0 }));
        }
        self.syscall(self.costs.teardown_thread);
        if let Some(core) = self.running.iter().position(|&r| r == Some(tid)) {
            self.model.deschedule(CoreId(core))?;
            self.running[core] = None;
        }
        // Free the thread's UPID-pool slot for reuse.
        if let Some(slot) = self.threads[tid.0].upid_slot.take() {
            self.upid_alloc.release(slot);
        }
        // Invalidate every route targeting the thread, in every table:
        // the slot returns to the allocator, the entries are invalidated
        // in each member's architectural table, and the route stays as a
        // tombstone so sends keep reporting `ThreadTornDown` until the
        // slot is reused.
        for table in self.tables.iter_mut() {
            for (slot, route) in table.routes.iter().enumerate() {
                if route.is_some_and(|r| r.receiver == tid) {
                    table.alloc.release(slot);
                    for &m in &table.members {
                        let _ = self.model.invalidate_sender(m, UittIndex(slot));
                    }
                }
            }
        }
        // Drop the thread's membership in its own table; when the last
        // member leaves, the whole table is recycled.
        if let Some(t) = self.threads[tid.0].table.take() {
            let table = &mut self.tables[t];
            table.members.retain(|&m| m != tid);
            if table.members.is_empty() {
                table.reset(table.alloc.capacity());
            }
        }
        self.threads[tid.0].torn_down = true;
        self.threads[tid.0].handler_registered = false;
        Ok(())
    }

    /// Whether `tid` has been torn down.
    #[must_use]
    pub fn is_torn_down(&self, tid: ThreadId) -> bool {
        self.threads.get(tid.0).is_some_and(|t| t.torn_down)
    }

    /// `senduipi` — pure user level, zero kernel cycles.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] if the sender, or the receiver
    /// behind the route, was torn down; architectural failures wrapped.
    pub fn senduipi(
        &mut self,
        sender: ThreadId,
        index: xui_core::uitt::UittIndex,
    ) -> Result<(), KernelError> {
        self.check_live(sender)?;
        if let Some(receiver) = self.route_receiver(sender, index) {
            self.check_live(receiver)?;
        }
        self.acct.kernel_free_ops += 1;
        self.model.senduipi(sender, index)?;
        Ok(())
    }

    /// `senduipi` with retry/backoff against transient delivery faults.
    ///
    /// `transient_fault(attempt)` reports whether attempt `attempt`
    /// (0-based) hits a transient failure — in production this would be
    /// a NAK/timeout from the fabric; in tests and fault-injection
    /// scenarios it is driven by a deterministic
    /// [`FaultInjector`](https://docs.rs/xui-faults) schedule. Failed
    /// attempts charge exponential backoff per `policy` into the
    /// accounting; permanent (typed) errors abort immediately without
    /// retrying.
    ///
    /// # Errors
    ///
    /// [`KernelError::SendRetriesExhausted`] once `policy.max_attempts`
    /// transient failures occur; teardown and architectural errors
    /// propagate as in [`UintrKernel::senduipi`].
    pub fn senduipi_with_retry(
        &mut self,
        sender: ThreadId,
        index: xui_core::uitt::UittIndex,
        policy: &RetryPolicy,
        transient_fault: &mut dyn FnMut(u32) -> bool,
    ) -> Result<SendOutcome, KernelError> {
        let mut backoff_total = 0u64;
        for attempt in 0..policy.max_attempts.max(1) {
            if transient_fault(attempt) {
                let backoff = policy.backoff(attempt);
                backoff_total += backoff;
                self.acct.send_retries += 1;
                self.acct.backoff_cycles += backoff;
                continue;
            }
            self.senduipi(sender, index)?;
            return Ok(SendOutcome { attempts: attempt + 1, backoff_cycles: backoff_total });
        }
        Err(KernelError::SendRetriesExhausted {
            thread: sender.0,
            attempts: policy.max_attempts.max(1),
        })
    }

    /// `set_timer` — pure user level, zero kernel cycles (§4.3:
    /// "directly programmable from user space").
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn set_timer(
        &mut self,
        tid: ThreadId,
        cycles: u64,
        mode: TimerMode,
    ) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.acct.kernel_free_ops += 1;
        self.model.set_timer(tid, cycles, mode)?;
        Ok(())
    }

    /// `clui` — pure user level, zero kernel cycles.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn clui(&mut self, tid: ThreadId) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.acct.kernel_free_ops += 1;
        self.model.clui(tid)?;
        Ok(())
    }

    /// `stui` — pure user level, zero kernel cycles.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn stui(&mut self, tid: ThreadId) -> Result<(), KernelError> {
        self.check_live(tid)?;
        self.acct.kernel_free_ops += 1;
        self.model.stui(tid)?;
        Ok(())
    }

    /// A device interrupt arriving at `core` (§4.5): pure hardware
    /// path, charges nothing — the whole point of forwarding is that
    /// the kernel is not involved once the route is registered.
    ///
    /// # Errors
    ///
    /// Architectural failures wrapped.
    pub fn device_interrupt(
        &mut self,
        core: CoreId,
        vector: Vector,
    ) -> Result<xui_core::forwarding::ForwardDecision, KernelError> {
        Ok(self.model.device_interrupt(core, vector)?)
    }

    /// Advances time (timers may fire).
    pub fn advance_time(&mut self, to: u64) {
        self.model.advance_time(to);
    }

    /// Delivers pending user interrupts on a running thread — pure user
    /// level.
    ///
    /// # Errors
    ///
    /// [`KernelError::ThreadTornDown`] after teardown; architectural
    /// failures wrapped.
    pub fn run_pending(&mut self, tid: ThreadId) -> Result<Vec<UserVector>, KernelError> {
        self.check_live(tid)?;
        self.acct.kernel_free_ops += 1;
        Ok(self.model.run_pending(tid)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xui_core::XuiError;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    #[test]
    fn setup_costs_syscalls_data_path_is_free() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(b, 0x4000).unwrap();
        let idx = k.register_sender(a, b, uv(3)).unwrap();
        k.schedule(a, CoreId(0)).unwrap();
        k.schedule(b, CoreId(1)).unwrap();
        let setup = k.accounting();
        assert_eq!(setup.syscalls, 2);
        assert_eq!(setup.switches, 2);
        assert!(setup.syscall_cycles > 0);

        // A million sends would charge exactly the same kernel cycles.
        for _ in 0..100 {
            k.senduipi(a, idx).unwrap();
            k.run_pending(b).unwrap();
        }
        let after = k.accounting();
        assert_eq!(after.syscall_cycles, setup.syscall_cycles);
        assert_eq!(after.switch_cycles, setup.switch_cycles);
        assert_eq!(after.kernel_free_ops, 200);
    }

    #[test]
    fn kb_timer_setup_once_then_user_level_rearming() {
        let mut k = UintrKernel::new(1);
        let t = k.create_thread();
        k.register_handler(t, 0x1).unwrap();
        k.enable_kb_timer(t, uv(1)).unwrap();
        k.schedule(t, CoreId(0)).unwrap();
        let setup_syscalls = k.accounting().syscalls;
        // Re-arming the timer every quantum is kernel-free.
        for i in 0..50u64 {
            k.set_timer(t, 1_000, TimerMode::Periodic).unwrap();
            k.advance_time((i + 1) * 1_000);
            k.run_pending(t).unwrap();
        }
        assert_eq!(k.accounting().syscalls, setup_syscalls);
    }

    #[test]
    fn forwarding_registration_is_charged() {
        let mut k = UintrKernel::new(1);
        let t = k.create_thread();
        k.register_handler(t, 0x1).unwrap();
        k.register_forwarding(t, CoreId(0), Vector::new(8), uv(4)).unwrap();
        assert_eq!(k.accounting().syscalls, 2);
        assert!(k.accounting().syscall_cycles >= 5_000);
    }

    #[test]
    fn send_to_unregistered_receiver_is_typed_not_a_panic() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        // No register_handler for b: registering the route fails with the
        // wrapped architectural error.
        let err = k.register_sender(a, b, uv(3)).unwrap_err();
        assert_eq!(
            err,
            KernelError::Arch(XuiError::HandlerNotRegistered { thread: b.0 })
        );
    }

    #[test]
    fn double_register_handler_is_rejected() {
        let mut k = UintrKernel::new(1);
        let t = k.create_thread();
        k.register_handler(t, 0x1000).unwrap();
        let err = k.register_handler(t, 0x2000).unwrap_err();
        assert_eq!(err, KernelError::HandlerAlreadyRegistered { thread: t.0 });
        // The first registration is untouched: the route still works.
        let s = k.create_thread();
        let idx = k.register_sender(s, t, uv(5)).unwrap();
        k.schedule(s, CoreId(0)).unwrap();
        k.senduipi(s, idx).unwrap();
    }

    #[test]
    fn senduipi_after_teardown_is_typed_not_a_panic() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(b, 0x4000).unwrap();
        let idx = k.register_sender(a, b, uv(3)).unwrap();
        k.schedule(a, CoreId(0)).unwrap();
        k.senduipi(a, idx).unwrap(); // route live: fine

        k.teardown_thread(b).unwrap();
        assert!(k.is_torn_down(b));
        let err = k.senduipi(a, idx).unwrap_err();
        assert_eq!(err, KernelError::ThreadTornDown { thread: b.0 });
        // Every other op on the torn-down thread also fails typed.
        assert_eq!(
            k.run_pending(b).unwrap_err(),
            KernelError::ThreadTornDown { thread: b.0 }
        );
        assert_eq!(
            k.register_handler(b, 0x5000).unwrap_err(),
            KernelError::ThreadTornDown { thread: b.0 }
        );
        // Double teardown is also typed.
        assert_eq!(
            k.teardown_thread(b).unwrap_err(),
            KernelError::ThreadTornDown { thread: b.0 }
        );
    }

    #[test]
    fn teardown_of_running_thread_frees_its_core() {
        let mut k = UintrKernel::new(1);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(a, 0x1).unwrap();
        k.register_handler(b, 0x2).unwrap();
        k.schedule(a, CoreId(0)).unwrap();
        k.teardown_thread(a).unwrap();
        // The core is free again: another thread can be scheduled there.
        k.schedule(b, CoreId(0)).unwrap();
        k.run_pending(b).unwrap();
    }

    #[test]
    fn retry_succeeds_after_transient_faults_and_charges_backoff() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(b, 0x4000).unwrap();
        let idx = k.register_sender(a, b, uv(3)).unwrap();
        k.schedule(a, CoreId(0)).unwrap();
        k.schedule(b, CoreId(1)).unwrap();

        let policy = RetryPolicy { max_attempts: 5, base: 100, factor: 2, cap: 10_000 };
        // First two attempts fail transiently, third succeeds.
        let out = k
            .senduipi_with_retry(a, idx, &policy, &mut |attempt| attempt < 2)
            .unwrap();
        assert_eq!(out.attempts, 3);
        assert_eq!(out.backoff_cycles, 100 + 200);
        assert_eq!(k.accounting().send_retries, 2);
        assert_eq!(k.accounting().backoff_cycles, 300);
        assert_eq!(k.run_pending(b).unwrap(), vec![uv(3)]);
    }

    #[test]
    fn retry_exhaustion_is_typed_and_sends_nothing() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(b, 0x4000).unwrap();
        let idx = k.register_sender(a, b, uv(3)).unwrap();
        k.schedule(a, CoreId(0)).unwrap();
        k.schedule(b, CoreId(1)).unwrap();

        let policy = RetryPolicy { max_attempts: 3, base: 100, factor: 2, cap: 10_000 };
        let err = k
            .senduipi_with_retry(a, idx, &policy, &mut |_| true)
            .unwrap_err();
        assert_eq!(err, KernelError::SendRetriesExhausted { thread: a.0, attempts: 3 });
        assert_eq!(k.accounting().send_retries, 3);
        assert_eq!(k.run_pending(b).unwrap(), vec![], "nothing was sent");
    }

    #[test]
    fn register_handler_enospc_when_upid_pool_full_and_slot_reusable() {
        let mut k = UintrKernel::with_capacities(1, 2, 8);
        let a = k.create_thread();
        let b = k.create_thread();
        let c = k.create_thread();
        k.register_handler(a, 0x1).unwrap();
        k.register_handler(b, 0x2).unwrap();
        let err = k.register_handler(c, 0x3).unwrap_err();
        assert_eq!(err, KernelError::UpidPoolFull { capacity: 2 });
        // Teardown frees the slot; the pool is no longer full.
        k.teardown_thread(a).unwrap();
        k.register_handler(c, 0x3).unwrap();
    }

    #[test]
    fn register_sender_enospc_when_uitt_full() {
        let mut k = UintrKernel::with_capacities(1, 8, 1);
        let s = k.create_thread();
        let r1 = k.create_thread();
        let r2 = k.create_thread();
        k.register_handler(r1, 0x1).unwrap();
        k.register_handler(r2, 0x2).unwrap();
        k.register_sender(s, r1, uv(1)).unwrap();
        let err = k.register_sender(s, r2, uv(2)).unwrap_err();
        assert_eq!(err, KernelError::UittFull { capacity: 1 });
    }

    #[test]
    fn freed_uitt_slot_is_reused_after_unregister() {
        let mut k = UintrKernel::new(2);
        let s = k.create_thread();
        let r1 = k.create_thread();
        let r2 = k.create_thread();
        k.register_handler(r1, 0x1).unwrap();
        k.register_handler(r2, 0x2).unwrap();
        let i0 = k.register_sender(s, r1, uv(1)).unwrap();
        let i1 = k.register_sender(s, r2, uv(2)).unwrap();
        assert_eq!((i0, i1), (UittIndex(0), UittIndex(1)));
        k.unregister_sender(s, i0).unwrap();
        // A send over the freed slot faults architecturally.
        assert!(matches!(
            k.schedule(s, CoreId(0)).and_then(|()| k.senduipi(s, i0)),
            Err(KernelError::Arch(XuiError::InvalidUittIndex { index: 0 }))
        ));
        // The allocator hands the freed slot back out (lowest-free-first).
        let again = k.register_sender(s, r2, uv(3)).unwrap();
        assert_eq!(again, UittIndex(0), "freed slot is reused, table does not grow");
        k.schedule(r2, CoreId(1)).unwrap();
        k.senduipi(s, again).unwrap();
        assert_eq!(k.run_pending(r2).unwrap(), vec![uv(3)]);
        // Double unregister of the same slot is a typed fault.
        k.unregister_sender(s, i1).unwrap();
        assert_eq!(
            k.unregister_sender(s, i1).unwrap_err(),
            KernelError::Arch(XuiError::InvalidUittIndex { index: 1 })
        );
    }

    #[test]
    fn freed_uitt_slot_is_reused_after_receiver_teardown() {
        let mut k = UintrKernel::new(2);
        let s = k.create_thread();
        let r1 = k.create_thread();
        let r2 = k.create_thread();
        k.register_handler(r1, 0x1).unwrap();
        k.register_handler(r2, 0x2).unwrap();
        let idx = k.register_sender(s, r1, uv(1)).unwrap();
        k.schedule(s, CoreId(0)).unwrap();
        k.teardown_thread(r1).unwrap();
        // Tombstone: the send still reports the torn-down receiver...
        assert_eq!(
            k.senduipi(s, idx).unwrap_err(),
            KernelError::ThreadTornDown { thread: r1.0 }
        );
        // ...but the slot itself is free and gets reused.
        let again = k.register_sender(s, r2, uv(4)).unwrap();
        assert_eq!(again, idx, "slot freed by receiver teardown is reused");
        k.schedule(r2, CoreId(1)).unwrap();
        k.senduipi(s, again).unwrap();
        assert_eq!(k.run_pending(r2).unwrap(), vec![uv(4)]);
    }

    #[test]
    fn shared_uitt_routes_visible_to_all_members() {
        let mut k = UintrKernel::new(3);
        let s1 = k.create_thread();
        let s2 = k.create_thread();
        let r = k.create_thread();
        k.register_handler(r, 0x1).unwrap();
        // Route registered BEFORE sharing: cloned into the joiner.
        let pre = k.register_sender(s1, r, uv(1)).unwrap();
        k.share_uitt(s1, s2).unwrap();
        // Route registered AFTER sharing, by the joiner: visible to both.
        let post = k.register_sender(s2, r, uv(2)).unwrap();
        assert_eq!((pre, post), (UittIndex(0), UittIndex(1)), "one shared index space");
        k.schedule(s1, CoreId(0)).unwrap();
        k.schedule(s2, CoreId(1)).unwrap();
        k.schedule(r, CoreId(2)).unwrap();
        k.senduipi(s1, post).unwrap();
        k.senduipi(s2, pre).unwrap();
        let mut got = k.run_pending(r).unwrap();
        got.sort();
        assert_eq!(got, vec![uv(1), uv(2)]);
    }

    #[test]
    fn share_uitt_rejects_joiner_with_a_table_and_survives_member_teardown() {
        let mut k = UintrKernel::new(3);
        let s1 = k.create_thread();
        let s2 = k.create_thread();
        let r = k.create_thread();
        k.register_handler(r, 0x1).unwrap();
        let idx = k.register_sender(s1, r, uv(5)).unwrap();
        k.share_uitt(s1, s2).unwrap();
        // s2 is now a member; joining anything again is rejected.
        assert_eq!(
            k.share_uitt(s1, s2).unwrap_err(),
            KernelError::AlreadyHasUitt { thread: s2.0 }
        );
        assert_eq!(
            k.share_uitt(s2, s2).unwrap_err(),
            KernelError::AlreadyHasUitt { thread: s2.0 }
        );
        // The table outlives the original owner.
        k.teardown_thread(s1).unwrap();
        k.schedule(s2, CoreId(0)).unwrap();
        k.schedule(r, CoreId(1)).unwrap();
        k.senduipi(s2, idx).unwrap();
        assert_eq!(k.run_pending(r).unwrap(), vec![uv(5)]);
    }

    #[test]
    fn shared_uitt_survives_a_hundred_enospc_fill_and_free_cycles() {
        const SLOTS: usize = 16;
        let mut k = UintrKernel::with_capacities(3, 8, SLOTS);
        let s = k.create_thread();
        let s2 = k.create_thread();
        let r = k.create_thread();
        k.register_handler(r, 0x1).unwrap();
        let lanes: Vec<(UittIndex, UserVector)> = [1, 2, 3]
            .into_iter()
            .map(|v| (k.register_sender(s, r, uv(v)).unwrap(), uv(v)))
            .collect();
        k.share_uitt(s, s2).unwrap();
        k.schedule(s, CoreId(0)).unwrap();
        k.schedule(s2, CoreId(1)).unwrap();
        k.schedule(r, CoreId(2)).unwrap();
        let allocated = |k: &UintrKernel| k.tables[k.table_of(s).unwrap()].alloc.allocated();
        for cycle in 0..100 {
            let (filler, other) = if cycle % 2 == 0 { (s, s2) } else { (s2, s) };
            // A receiver torn down leaves its route as a tombstone.
            let doomed = k.create_thread();
            k.register_handler(doomed, 0x2).unwrap();
            let tomb = k.register_sender(other, doomed, uv(9)).unwrap();
            assert_eq!(tomb, UittIndex(lanes.len()), "lowest free slot");
            k.teardown_thread(doomed).unwrap();
            for _ in 0..2 {
                for sender in [s, s2] {
                    assert_eq!(
                        k.senduipi(sender, tomb).unwrap_err(),
                        KernelError::ThreadTornDown { thread: doomed.0 },
                        "cycle {cycle}: the tombstone reports until its slot is reused"
                    );
                }
                k.senduipi(s, lanes[0].0).unwrap();
            }
            assert_eq!(allocated(&k), lanes.len());
            // Fill to ENOSPC: the first new route reuses the tombstone.
            let mut extras = Vec::new();
            let err = loop {
                match k.register_sender(filler, r, uv(5)) {
                    Ok(idx) => extras.push(idx),
                    Err(e) => break e,
                }
            };
            assert_eq!(err, KernelError::UittFull { capacity: SLOTS });
            assert_eq!(extras.len(), SLOTS - lanes.len());
            assert_eq!(extras[0], tomb);
            assert_eq!(allocated(&k), SLOTS);
            k.senduipi(other, tomb).unwrap();
            for idx in extras {
                k.unregister_sender(other, idx).unwrap();
            }
            assert_eq!(allocated(&k), lanes.len(), "cycle {cycle}");
            assert_eq!(
                k.senduipi(s, tomb).unwrap_err(),
                KernelError::Arch(XuiError::InvalidUittIndex { index: tomb.0 })
            );
            // Every original lane still delivers, through either member.
            for &(idx, _) in &lanes {
                k.senduipi(filler, idx).unwrap();
            }
            let mut got = k.run_pending(r).unwrap();
            got.sort();
            let mut want: Vec<UserVector> = lanes.iter().map(|&(_, v)| v).collect();
            want.push(uv(5));
            assert_eq!(got, want, "cycle {cycle}");
        }
    }

    /// A kernel in the oracle differ's set-up: a receiver, send lanes, a
    /// co-sender sharing the table, a KB_Timer and forwarded lines.
    fn differ_setup(k: &mut UintrKernel, cores: usize) {
        let sender = k.create_thread();
        let receiver = k.create_thread();
        k.register_handler(receiver, 0x4000).unwrap();
        for v in [3, 7, 12] {
            k.register_sender(sender, receiver, uv(v)).unwrap();
        }
        let co = k.create_thread();
        k.share_uitt(sender, co).unwrap();
        k.enable_kb_timer(receiver, uv(1)).unwrap();
        for core in 0..cores {
            k.register_forwarding(receiver, CoreId(core), Vector::new(40), uv(20)).unwrap();
        }
        k.schedule(sender, CoreId(0)).unwrap();
    }

    #[test]
    fn setup_after_reset_equals_a_fresh_kernel() {
        let mut k = UintrKernel::with_capacities(4, 8, 16);
        // A history that leaves something behind in every field.
        differ_setup(&mut k, 4);
        let extra = k.create_thread();
        k.register_handler(extra, 0x10).unwrap();
        let idx = k.register_sender(ThreadId(0), extra, uv(30)).unwrap();
        k.schedule(ThreadId(1), CoreId(2)).unwrap();
        k.set_timer(ThreadId(1), 100, TimerMode::Periodic).unwrap();
        k.advance_time(1_000);
        k.senduipi(ThreadId(0), idx).unwrap();
        k.teardown_thread(extra).unwrap();
        k.teardown_thread(ThreadId(2)).unwrap();
        k.run_pending(ThreadId(1)).unwrap();
        for cores in [2, 4] {
            k.reset(cores);
            assert_eq!(k, UintrKernel::with_capacities(cores, 8, 16));
            differ_setup(&mut k, cores);
            let mut fresh = UintrKernel::with_capacities(cores, 8, 16);
            differ_setup(&mut fresh, cores);
            assert_eq!(k, fresh);
            assert_eq!(format!("{k:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn retry_does_not_mask_permanent_errors() {
        let mut k = UintrKernel::new(2);
        let a = k.create_thread();
        let b = k.create_thread();
        k.register_handler(b, 0x4000).unwrap();
        let idx = k.register_sender(a, b, uv(3)).unwrap();
        k.teardown_thread(b).unwrap();
        // The transient predicate says "no fault", but the route is dead:
        // the typed teardown error surfaces on the first attempt.
        let err = k
            .senduipi_with_retry(a, idx, &RetryPolicy::paper(), &mut |_| false)
            .unwrap_err();
        assert_eq!(err, KernelError::ThreadTornDown { thread: b.0 });
        assert_eq!(k.accounting().send_retries, 0);
    }
}
