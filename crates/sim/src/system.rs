//! The multi-core system: cores in lockstep, the shared memory system, the
//! IPI bus, and interrupt-source devices.
//!
//! [`System::tick`] advances one cycle. The run loops tick only the
//! cycles on which something can change: after each tick every core
//! reports the first cycle at which it can change on its own
//! ([`Core::wake_at`]; a halted core never can), and the clock jumps to
//! the earliest of those, the next device firing and the next bus
//! arrival. The cycles in between are no-ops for every core, so each
//! simulated count is what ticking them one by one gives.

use serde::{Deserialize, Serialize};

use crate::config::SystemConfig;
use crate::core::{upid_words, Core, SimUittEntry};
use crate::isa::{Pc, Program};
use crate::mem::{MemorySystem, EXTERNAL_WRITER};

/// An interrupt/notification source attached to the system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Device {
    /// Models a dedicated software-timer core sending UIPIs at a fixed
    /// period (the "UIPI SW Timer" configuration of Figure 4): posts into
    /// the destination UPID as a remote agent (invalidating the
    /// receiver's cached copy) and raises the notification IPI after the
    /// sender-side `senduipi` + bus transit time.
    UipiTimer {
        /// Firing period in cycles.
        period: u64,
        /// Next firing time.
        next_fire: u64,
        /// Destination UPID address.
        upid_addr: u64,
        /// User vector to post.
        user_vector: u8,
        /// End-to-end send latency (sender µcode + APIC transit).
        send_latency: u64,
    },
    /// Periodically writes a shared-memory flag — the notification side
    /// of a polling-based preemption scheme (Concord-style, Figure 5).
    FlagWriter {
        /// Firing period in cycles.
        period: u64,
        /// Next firing time.
        next_fire: u64,
        /// Flag address.
        addr: u64,
        /// Value written.
        value: u64,
    },
    /// A device whose interrupts are *forwarded* to the running thread
    /// (xUI fast path, §4.5) — or the per-core KB_Timer being exercised
    /// externally: posts the user vector straight into the core's UIRR.
    DirectIrq {
        /// Firing period in cycles.
        period: u64,
        /// Next firing time.
        next_fire: u64,
        /// Destination core.
        core: usize,
        /// User vector posted.
        user_vector: u8,
    },
}

impl Device {
    /// Next cycle at which this device fires.
    fn next_fire(&self) -> u64 {
        match self {
            Device::UipiTimer { next_fire, .. }
            | Device::FlagWriter { next_fire, .. }
            | Device::DirectIrq { next_fire, .. } => *next_fire,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BusMsg {
    arrive_at: u64,
    dest: usize,
}

/// A complete simulated machine.
#[derive(Debug)]
pub struct System {
    /// System configuration.
    pub cfg: SystemConfig,
    /// The cores, indexed by id (== APIC id).
    pub cores: Vec<Core>,
    /// The shared memory system.
    pub mem: MemorySystem,
    devices: Vec<Device>,
    bus: Vec<BusMsg>,
    cycle: u64,
    /// Earliest `next_fire` across devices (`u64::MAX` when none): lets
    /// `tick` skip the device scan on cycles where nothing can fire.
    next_device_fire: u64,
    /// Earliest `arrive_at` across in-flight bus messages (`u64::MAX`
    /// when the bus is empty): lets `tick` skip the bus scan.
    next_bus_arrive: u64,
    /// Scratch buffer for due bus messages (reused to avoid a per-cycle
    /// allocation; order-preserving like the `retain` it replaces).
    bus_due: Vec<BusMsg>,
}

impl System {
    /// Builds a system with one core per program.
    #[must_use]
    pub fn new(cfg: SystemConfig, programs: Vec<Program>) -> Self {
        let mem = MemorySystem::new(cfg.mem.clone(), programs.len());
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(id, p)| Core::new(id, cfg.core.clone(), cfg.strategy.0, p))
            .collect();
        Self {
            cfg,
            cores,
            mem,
            devices: Vec::new(),
            bus: Vec::new(),
            cycle: 0,
            next_device_fire: u64::MAX,
            next_bus_arrive: u64::MAX,
            bus_due: Vec::new(),
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.cycle
    }

    /// Registers `core` as a user-interrupt receiver with the given
    /// handler entry point, initializing its UPID in simulated memory.
    pub fn register_receiver(&mut self, core: usize, handler: Pc) {
        let addr = self.cores[core].upid_addr;
        // Low word: ON=0, SN=0, NDST=core. High word: PIR=0.
        self.mem
            .poke(addr, (core as u64) << upid_words::NDST_SHIFT);
        self.mem.poke(addr + 8, 0);
        self.cores[core].set_handler(handler);
    }

    /// Grants `sender` the ability to `senduipi` to `receiver`; returns
    /// the UITT index to use as the instruction operand.
    pub fn connect_sender(&mut self, sender: usize, receiver: usize, user_vector: u8) -> usize {
        let upid_addr = self.cores[receiver].upid_addr;
        self.cores[sender].add_uitt_entry(SimUittEntry {
            upid_addr,
            user_vector,
        })
    }

    /// Attaches a device.
    pub fn add_device(&mut self, device: Device) {
        self.next_device_fire = self.next_device_fire.min(device.next_fire());
        self.devices.push(device);
    }

    fn fire_devices(&mut self) {
        let now = self.cycle;
        if now < self.next_device_fire {
            return;
        }
        for d in &mut self.devices {
            match d {
                Device::UipiTimer {
                    period,
                    next_fire,
                    upid_addr,
                    user_vector,
                    send_latency,
                } => {
                    if now >= *next_fire {
                        let low = self.mem.peek(*upid_addr);
                        let pir = self.mem.peek(*upid_addr + 8);
                        self.mem
                            .write(EXTERNAL_WRITER, *upid_addr + 8, pir | (1 << (*user_vector & 63)));
                        let sn = low & upid_words::SN != 0;
                        let on = low & upid_words::ON != 0;
                        if !sn && !on {
                            self.mem
                                .write(EXTERNAL_WRITER, *upid_addr, low | upid_words::ON);
                            let dest = (low >> upid_words::NDST_SHIFT) as usize;
                            let arrive_at = now + *send_latency;
                            self.bus.push(BusMsg { arrive_at, dest });
                            self.next_bus_arrive = self.next_bus_arrive.min(arrive_at);
                        }
                        *next_fire += (*period).max(1);
                    }
                }
                Device::FlagWriter {
                    period,
                    next_fire,
                    addr,
                    value,
                } => {
                    if now >= *next_fire {
                        self.mem.write(EXTERNAL_WRITER, *addr, *value);
                        *next_fire += (*period).max(1);
                    }
                }
                Device::DirectIrq {
                    period,
                    next_fire,
                    core,
                    user_vector,
                } => {
                    if now >= *next_fire {
                        self.cores[*core].post_direct(*user_vector);
                        *next_fire += (*period).max(1);
                    }
                }
            }
        }
        self.next_device_fire = self
            .devices
            .iter()
            .map(Device::next_fire)
            .min()
            .unwrap_or(u64::MAX);
    }

    fn deliver_bus(&mut self) {
        let now = self.cycle;
        if now < self.next_bus_arrive {
            return;
        }
        // Stable partition into the reusable scratch buffer, preserving
        // delivery order exactly as the old `retain`-based path did.
        let mut due = std::mem::take(&mut self.bus_due);
        due.clear();
        self.bus.retain(|m| {
            if m.arrive_at <= now {
                due.push(*m);
                false
            } else {
                true
            }
        });
        for m in &due {
            if m.dest < self.cores.len() {
                self.cores[m.dest].post_notification(now);
            }
        }
        self.bus_due = due;
        self.next_bus_arrive = self
            .bus
            .iter()
            .map(|m| m.arrive_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Advances the whole system by one cycle.
    pub fn tick(&mut self) {
        self.fire_devices();
        self.deliver_bus();
        let now = self.cycle;
        for core in &mut self.cores {
            core.tick(now, &mut self.mem);
            if let Some(dest) = core.take_pending_ipi() {
                let arrive_at = now + self.cfg.delivery_ipi_latency();
                self.bus.push(BusMsg { arrive_at, dest });
                self.next_bus_arrive = self.next_bus_arrive.min(arrive_at);
            }
        }
        self.cycle += 1;
    }

    /// True when every core has drained and halted.
    fn all_halted(&self) -> bool {
        self.cores.iter().all(Core::is_halted)
    }

    /// Runs until cycle `end` or until `done` holds, ticking only the
    /// cycles on which a core, a device or the bus can change state and
    /// jumping the clock over the rest. Device firings and bus
    /// deliveries still happen on their exact cycles.
    fn run_to(&mut self, end: u64, done: impl Fn(&Self) -> bool) {
        // What the cores reported on their last tick; nothing is known
        // until this loop has ticked them once (they may have been
        // changed from outside since).
        let mut cores_wake = self.cycle;
        while self.cycle < end && !done(self) {
            let wake = cores_wake
                .min(self.next_device_fire)
                .min(self.next_bus_arrive)
                .min(end);
            if wake > self.cycle {
                self.cycle = wake;
                continue;
            }
            self.tick();
            cores_wake = self.cores.iter().map(Core::wake_at).min().unwrap_or(u64::MAX);
        }
    }

    /// Runs for `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        let end = self.cycle.saturating_add(cycles);
        self.run_to(end, |_| false);
    }

    /// Runs until every core halts or `max_cycles` elapse; returns the
    /// cycle count at stop.
    pub fn run_until_halted(&mut self, max_cycles: u64) -> u64 {
        self.run_to(max_cycles, Self::all_halted);
        self.cycle
    }

    /// All cores' trace events merged into one stream, sorted by
    /// `(cycle, core)` — deterministic input for the core-aware lookups
    /// in `trace` and for telemetry export.
    #[must_use]
    pub fn trace_events(&self) -> Vec<crate::trace::TraceEvent> {
        let mut out: Vec<crate::trace::TraceEvent> = self
            .cores
            .iter()
            .flat_map(|c| c.trace.iter().copied())
            .collect();
        out.sort_by_key(|e| (e.cycle, e.core));
        out
    }

    /// The merged trace as telemetry events (see
    /// [`crate::trace::to_telemetry`]), ready for Chrome-trace export.
    #[must_use]
    pub fn telemetry_events(&self) -> Vec<xui_telemetry::Event> {
        crate::trace::to_telemetry(&self.trace_events())
    }

    /// Runs until the given core halts or `max_cycles` elapse; returns
    /// the halt cycle, or `None` on timeout.
    pub fn run_until_core_halted(&mut self, core: usize, max_cycles: u64) -> Option<u64> {
        self.run_to(max_cycles, |sys| sys.cores[core].is_halted());
        // Stopping at `max_cycles` is a timeout even if the last tick
        // halted the core.
        self.cores[core].stats.halted_at.filter(|_| self.cycle < max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::isa::{AluKind, Inst, Op, Operand, Reg};

    fn counting_loop(iters: u64) -> Program {
        // r1 = iters; loop { r1 -= 1 } while r1 != 0; halt
        Program::new(
            "count",
            vec![
                Inst::new(Op::Li { dst: Reg(1), imm: iters }),
                Inst::new(Op::Alu {
                    kind: AluKind::Sub,
                    dst: Reg(1),
                    src: Reg(1),
                    op2: Operand::Imm(1),
                }),
                Inst::new(Op::Bnez { src: Reg(1), target: 1 }),
                Inst::new(Op::Halt),
            ],
        )
    }

    /// `hops` dependent loads, each to a line of its own, so every one
    /// misses to DRAM; the chain's nodes are poked in by [`chase_system`].
    fn pointer_chase(hops: u64) -> Program {
        Program::new(
            "chase",
            vec![
                Inst::new(Op::Li { dst: Reg(1), imm: 0x10_0000 }),
                Inst::new(Op::Li { dst: Reg(2), imm: hops }),
                Inst::new(Op::Load { dst: Reg(1), base: Reg(1), offset: 0 }),
                Inst::new(Op::Alu {
                    kind: AluKind::Sub,
                    dst: Reg(2),
                    src: Reg(2),
                    op2: Operand::Imm(1),
                }),
                Inst::new(Op::Bnez { src: Reg(2), target: 2 }),
                Inst::new(Op::Halt),
            ],
        )
    }

    fn chase_system(hops: u64) -> System {
        let mut sys = System::new(SystemConfig::uipi(), vec![pointer_chase(hops)]);
        for i in 0..hops {
            sys.mem.poke(0x10_0000 + i * 4096, 0x10_0000 + (i + 1) * 4096);
        }
        sys.add_device(Device::FlagWriter {
            period: 700,
            next_fire: 100,
            addr: 0xA000,
            value: 1,
        });
        sys
    }

    #[test]
    fn dead_cycle_skip_matches_per_cycle_ticking() {
        // Two identical systems with a periodic flag writer; one runs via
        // run_cycles (skipping the cycles on which nothing can change),
        // the other ticks every cycle. The core first runs a
        // memory-bound pointer chase, stalled on a DRAM miss most cycles,
        // then halts, leaving only the writer. All state must match
        // mid-chase and at the end.
        let mut fast = chase_system(100);
        let mut slow = chase_system(100);
        for stop in [5_000, 40_000] {
            fast.run_cycles(stop - fast.now());
            while slow.now() < stop {
                slow.tick();
            }
            assert_eq!(fast.now(), slow.now());
            assert!(fast.cores[0] == slow.cores[0], "core state at cycle {stop}");
            assert!(fast.mem == slow.mem, "memory state at cycle {stop}");
            assert_eq!(fast.cores[0].is_halted(), stop == 40_000);
        }
        assert_eq!(fast.mem.peek(0xA000), 1);
        assert_eq!(fast.cores[0].stats.committed_insts, 2 + 3 * 100 + 1);
    }

    #[test]
    fn devices_fire_on_exact_cycles_across_bulk_skip() {
        // A flag writer with a long period: while the (quickly halted)
        // core sleeps, the writer must still fire exactly at its period
        // boundaries, observable right after run_cycles crosses each.
        let mut sys = System::new(SystemConfig::uipi(), vec![counting_loop(1)]);
        sys.add_device(Device::FlagWriter {
            period: 1_000_000,
            next_fire: 5_000,
            addr: 0xB000,
            value: 9,
        });
        sys.run_cycles(5_000); // clock at 5_000: fire cycle not yet ticked
        let before = sys.mem.peek(0xB000);
        sys.run_cycles(1); // executes cycle 5_000 → device fires
        assert_eq!(before, 0);
        assert_eq!(sys.mem.peek(0xB000), 9);
        // The next dead stretch is skipped in bulk, clock still exact.
        sys.run_cycles(3_000_000);
        assert_eq!(sys.now(), 3_005_001);
    }

    #[test]
    fn single_core_counting_loop_halts_with_correct_count() {
        let mut sys = System::new(SystemConfig::uipi(), vec![counting_loop(1000)]);
        let halted = sys.run_until_core_halted(0, 1_000_000);
        assert!(halted.is_some(), "loop must halt");
        assert_eq!(sys.cores[0].reg(Reg(1)), 0);
        // 1000 iterations × 2 insts + li + halt
        assert_eq!(sys.cores[0].stats.committed_insts, 2 + 2 * 1000);
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // A chain of dependent subs can commit at most 1 per cycle.
        let mut sys = System::new(SystemConfig::uipi(), vec![counting_loop(5000)]);
        let halted = sys.run_until_core_halted(0, 1_000_000).expect("halts");
        let insts = sys.cores[0].stats.committed_insts;
        let ipc = insts as f64 / halted as f64;
        // The sub chain serializes; branch executes in parallel → IPC ≲ 2.
        assert!(ipc <= 2.2, "ipc={ipc}");
        assert!(ipc > 0.5, "ipc={ipc}");
    }

    #[test]
    fn store_then_load_round_trips_through_memory() {
        let prog = Program::new(
            "st-ld",
            vec![
                Inst::new(Op::Li { dst: Reg(1), imm: 0x9000 }),
                Inst::new(Op::Li { dst: Reg(2), imm: 77 }),
                Inst::new(Op::Store { src: Reg(2), base: Reg(1), offset: 0 }),
                Inst::new(Op::Halt),
            ],
        );
        let mut sys = System::new(SystemConfig::uipi(), vec![prog]);
        sys.run_until_core_halted(0, 100_000).expect("halts");
        assert_eq!(sys.mem.peek(0x9000), 77);
    }

    #[test]
    fn pointer_chase_follows_values() {
        // mem[0x8000] = 0x8040, mem[0x8040] = 0x8080; two chained loads.
        let prog = Program::new(
            "chase",
            vec![
                Inst::new(Op::Li { dst: Reg(1), imm: 0x8000 }),
                Inst::new(Op::Load { dst: Reg(1), base: Reg(1), offset: 0 }),
                Inst::new(Op::Load { dst: Reg(1), base: Reg(1), offset: 0 }),
                Inst::new(Op::Halt),
            ],
        );
        let mut sys = System::new(SystemConfig::uipi(), vec![prog]);
        sys.mem.poke(0x8000, 0x8040);
        sys.mem.poke(0x8040, 0x8080);
        sys.run_until_core_halted(0, 100_000).expect("halts");
        assert_eq!(sys.cores[0].reg(Reg(1)), 0x8080);
    }

    #[test]
    fn branch_mispredicts_are_recovered_correctly() {
        // Alternating taken/not-taken pattern confuses the predictor but
        // execution must stay architecturally correct: count 100
        // iterations where we take a branch every other iteration.
        // r1: counter down from 200; r2: accumulator of r1&1.
        let prog = Program::new(
            "alt",
            vec![
                Inst::new(Op::Li { dst: Reg(1), imm: 200 }),
                Inst::new(Op::Li { dst: Reg(2), imm: 0 }),
                // loop:
                Inst::new(Op::Alu { kind: AluKind::And, dst: Reg(3), src: Reg(1), op2: Operand::Imm(1) }),
                Inst::new(Op::Beqz { src: Reg(3), target: 5 }),
                Inst::new(Op::Alu { kind: AluKind::Add, dst: Reg(2), src: Reg(2), op2: Operand::Imm(1) }),
                // skip:
                Inst::new(Op::Alu { kind: AluKind::Sub, dst: Reg(1), src: Reg(1), op2: Operand::Imm(1) }),
                Inst::new(Op::Bnez { src: Reg(1), target: 2 }),
                Inst::new(Op::Halt),
            ],
        );
        let mut sys = System::new(SystemConfig::uipi(), vec![prog]);
        sys.run_until_core_halted(0, 1_000_000).expect("halts");
        assert_eq!(sys.cores[0].reg(Reg(2)), 100, "odd iterations counted");
        assert!(sys.cores[0].stats.mispredict_recoveries > 0);
        assert!(sys.cores[0].stats.squashed_uops > 0);
    }
}
