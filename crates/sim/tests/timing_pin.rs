//! Frozen cycle-level timing: FNV-1a digests of `format!("{:?}")` of
//! every core's `CoreStats`, `irq_timings`, `MemStats` and final
//! registers, over the paper's sim programs (matmul, base64, fib,
//! pointer chase; memops and a clui/stui critical section where the
//! ablations use them), every delivery strategy (baseline, flush, drain,
//! tracked, safepoint), every interrupt source (UIPI SW timer, KB_Timer,
//! forwarded device, poll flag), an interference config, the 192- and
//! 1536-entry ROB configs of `ablation_window`, and a 2-core `senduipi`
//! system.
//!
//! `differential.rs` checks only architectural state, so a scheduler
//! change that shifts a single µop by a cycle passes it; this pin does
//! not. Any change to the pipeline model that is meant to be
//! cycle-exact must leave every digest unchanged.

use xui_sim::config::{InterferenceConfig, SystemConfig};
use xui_sim::isa::{AluKind, Inst, Op, Operand, Program, Reg, REG_COUNT};
use xui_sim::system::Device;
use xui_sim::System;
use xui_workloads::programs::{
    base64, critical_section_loop, fib, matmul, memops, pointer_chase, send_loop, spin_receiver,
    Instrument, Workload, POLL_FLAG_ADDR, SPIN_HANDLER_PC,
};

const MAX_CYCLES: u64 = 50_000_000;

#[derive(Clone, Copy)]
enum Source {
    None,
    SwTimer(u64),
    KbTimer(u64),
    Forwarded(u64),
    PollFlag(u64),
}

/// Runs `w` on core 0 with the device wiring of
/// `xui_workloads::harness::run_workload_with`, returning the system.
fn run_single(cfg: SystemConfig, w: &Workload, source: Source, safepoint_mode: bool) -> System {
    let mut sys = System::new(cfg, vec![w.program.clone()]);
    sys.cores[0].safepoint_mode = safepoint_mode;
    w.install(&mut sys, 0);
    sys.register_receiver(0, w.handler_pc);
    match source {
        Source::None => {}
        Source::SwTimer(period) => {
            let upid_addr = sys.cores[0].upid_addr;
            sys.add_device(Device::UipiTimer {
                period,
                next_fire: period,
                upid_addr,
                user_vector: 1,
                send_latency: 380,
            });
        }
        Source::KbTimer(period) => {
            sys.cores[0].enable_kb_timer(1);
            sys.add_device(Device::DirectIrq { period, next_fire: period, core: 0, user_vector: 1 });
        }
        Source::Forwarded(period) => {
            sys.add_device(Device::DirectIrq { period, next_fire: period, core: 0, user_vector: 2 });
        }
        Source::PollFlag(period) => {
            sys.add_device(Device::FlagWriter {
                period,
                next_fire: period,
                addr: POLL_FLAG_ADDR,
                value: 1,
            });
        }
    }
    sys.run_until_core_halted(0, MAX_CYCLES)
        .unwrap_or_else(|| panic!("{} did not halt", w.program.name));
    sys
}

/// `ablation_window`'s scaled core: ROB, IQ, LQ, SQ and fetch queue
/// all scaled from the Table 3 sizes.
fn scaled(mut cfg: SystemConfig, scale: f64) -> SystemConfig {
    let c = &mut cfg.core;
    c.rob_size = (384.0 * scale) as usize;
    c.iq_size = (168.0 * scale) as usize;
    c.lq_size = (128.0 * scale) as usize;
    c.sq_size = (72.0 * scale) as usize;
    c.fetch_queue_size = (64.0 * scale) as usize;
    cfg
}

fn interfered(mut cfg: SystemConfig) -> SystemConfig {
    cfg.core.interference = InterferenceConfig { cache_pct: 50, pipeline_pct: 100 };
    cfg
}

/// Everything timing-dependent the run left behind, in core order.
fn digest(sys: &System) -> u64 {
    let mut text = String::new();
    for (i, core) in sys.cores.iter().enumerate() {
        let regs: Vec<u64> = (0..REG_COUNT as u8).map(|r| core.reg(Reg(r))).collect();
        text.push_str(&format!(
            "{:?}|{:?}|{:?}|{:?}\n",
            core.stats,
            core.irq_timings,
            sys.mem.stats(i),
            regs
        ));
    }
    fnv1a(text.as_bytes())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Builds a workload with the given back-edge instrumentation.
type Build = fn(Instrument) -> Workload;

/// Every cell, in a fixed order, as `(label, system after the run)`.
fn cells() -> Vec<(String, System)> {
    let programs: [(&str, Build, u64); 4] = [
        ("matmul", |i| matmul(4_000, i, 0), 4_000),
        ("base64", |i| base64(1_500, i, 0), 4_000),
        ("fib", |i| fib(8_000, i), 3_000),
        ("pointer_chase", |i| pointer_chase(4_096, 400, i), 12_000),
    ];
    let mut out = Vec::new();
    for (name, build, period) in programs {
        let plain = build(Instrument::None);
        let runs = [
            ("baseline", SystemConfig::uipi(), Source::None),
            ("flush/sw_timer", SystemConfig::uipi(), Source::SwTimer(period)),
            ("drain/sw_timer", SystemConfig::drain(), Source::SwTimer(period)),
            ("tracked/sw_timer", SystemConfig::xui(), Source::SwTimer(period)),
            ("tracked/kb_timer", SystemConfig::xui(), Source::KbTimer(period)),
            ("tracked/forwarded", SystemConfig::xui(), Source::Forwarded(period)),
            ("flush/forwarded", SystemConfig::uipi(), Source::Forwarded(period)),
            ("drain/forwarded", SystemConfig::drain(), Source::Forwarded(period)),
        ];
        for (label, cfg, source) in runs {
            out.push((format!("{name}/{label}"), run_single(cfg, &plain, source, false)));
        }
        let safep = build(Instrument::Safepoint);
        out.push((
            format!("{name}/safepoint/kb_timer"),
            run_single(SystemConfig::xui(), &safep, Source::KbTimer(period), true),
        ));
        let polled = build(Instrument::Poll { flag_addr: POLL_FLAG_ADDR });
        out.push((
            format!("{name}/poll/poll_flag"),
            run_single(SystemConfig::uipi(), &polled, Source::PollFlag(period), false),
        ));
    }

    // Co-located interference inflating the delivery paths.
    let w = matmul(4_000, Instrument::None, 0);
    for (label, cfg) in [
        ("flush", SystemConfig::uipi()),
        ("drain", SystemConfig::drain()),
        ("tracked", SystemConfig::xui()),
    ] {
        out.push((
            format!("interference/{label}/sw_timer"),
            run_single(interfered(cfg), &w, Source::SwTimer(4_000), false),
        ));
    }

    // ablation_window's smallest and largest speculation windows.
    let w = memops(10_000, Instrument::None);
    for scale in [0.5, 4.0] {
        let rob = (384.0 * scale) as usize;
        for (label, cfg, source) in [
            ("baseline", SystemConfig::uipi(), Source::None),
            ("flush", SystemConfig::uipi(), Source::SwTimer(4_000)),
            ("tracked", SystemConfig::xui(), Source::SwTimer(4_000)),
        ] {
            out.push((
                format!("rob{rob}/{label}"),
                run_single(scaled(cfg, scale), &w, source, false),
            ));
        }
    }

    // Program-initiated microcode (clui/stui) under interrupts: the
    // nonspeculative gate and the UIF mask.
    let mut cs = critical_section_loop(1_500, true, 6);
    let handler_pc = cs.len();
    cs.code.push(Inst::new(Op::Alu {
        kind: AluKind::Add,
        dst: Reg(20),
        src: Reg(20),
        op2: Operand::Imm(1),
    }));
    cs.code.push(Inst::new(Op::Uiret));
    let cs = Workload { program: cs, handler_pc, mem_init: vec![], reg_init: vec![] };
    for (label, cfg) in [("flush", SystemConfig::uipi()), ("tracked", SystemConfig::xui())] {
        out.push((
            format!("clui_stui/{label}/kb_timer"),
            run_single(cfg, &cs, Source::KbTimer(2_000), false),
        ));
    }

    // Store-to-load traffic in a four-word arena: a store whose address
    // waits on a multiply, a load that may alias it (memory
    // disambiguation) and a load of the store's own word (forwarding),
    // behind a missing load that holds retirement back so several
    // completed stores to one word wait in the ROB at once.
    let alu = |kind, dst, src, imm| Inst::new(Op::Alu { kind, dst, src, op2: Operand::Imm(imm) });
    let mut code = vec![
        Inst::new(Op::Li { dst: Reg(9), imm: 2_000 }),
        Inst::new(Op::Li { dst: Reg(8), imm: 0x50_0000 }),
        Inst::new(Op::Li { dst: Reg(3), imm: 1 }),
        Inst::new(Op::Load { dst: Reg(7), base: Reg(8), offset: 0 }),
        alu(AluKind::Add, Reg(8), Reg(8), 4_096),
        Inst::new(Op::Mul { dst: Reg(2), src: Reg(1), op2: Operand::Imm(1) }),
        alu(AluKind::And, Reg(2), Reg(2), 0x18),
        alu(AluKind::And, Reg(5), Reg(1), 0x38),
        Inst::new(Op::Store { src: Reg(3), base: Reg(2), offset: 0x9000 }),
        Inst::new(Op::Load { dst: Reg(4), base: Reg(5), offset: 0x9000 }),
        Inst::new(Op::Alu { kind: AluKind::Add, dst: Reg(3), src: Reg(3), op2: Operand::Reg(Reg(4)) }),
        Inst::new(Op::Load { dst: Reg(6), base: Reg(2), offset: 0x9000 }),
        Inst::new(Op::Alu { kind: AluKind::Add, dst: Reg(3), src: Reg(3), op2: Operand::Reg(Reg(6)) }),
        alu(AluKind::Add, Reg(1), Reg(1), 8),
        alu(AluKind::Sub, Reg(9), Reg(9), 1),
        Inst::new(Op::Bnez { src: Reg(9), target: 3 }),
        Inst::new(Op::Halt),
    ];
    let handler_pc = code.len();
    code.push(alu(AluKind::Add, Reg(20), Reg(20), 1));
    code.push(Inst::new(Op::Uiret));
    let mem_dep = Workload {
        program: Program::new("mem_dependence", code),
        handler_pc,
        mem_init: vec![],
        reg_init: vec![],
    };
    for (label, cfg, source) in [
        ("baseline", SystemConfig::uipi(), Source::None),
        ("flush/sw_timer", SystemConfig::uipi(), Source::SwTimer(3_000)),
        ("tracked/sw_timer", SystemConfig::xui(), Source::SwTimer(3_000)),
    ] {
        out.push((format!("mem_dependence/{label}"), run_single(cfg, &mem_dep, source, false)));
    }

    // Two cores: a senduipi loop on core 0 notifying a spinning
    // receiver on core 1 (the sender routine, UPID post, ICR write, bus
    // and the receiver's notification processing).
    for (label, cfg) in [
        ("flush", SystemConfig::uipi()),
        ("drain", SystemConfig::drain()),
        ("tracked", SystemConfig::xui()),
    ] {
        let mut sys =
            System::new(cfg, vec![send_loop(12, true), spin_receiver(20_000, true)]);
        sys.register_receiver(1, SPIN_HANDLER_PC);
        sys.connect_sender(0, 1, 5);
        sys.run_until_halted(MAX_CYCLES);
        assert!(sys.cores.iter().all(xui_sim::Core::is_halted), "2-core {label} halts");
        out.push((format!("senduipi_2core/{label}"), sys));
    }
    out
}

/// Cell digests in `cells()` order, with each cell's run length and
/// interrupt count as frozen.
const PINNED: [u64; 57] = [
    0xd6c3859b79a64488, // matmul/baseline: 19686 cycles, 0 delivered
    0x3244d24302fd8c13, // matmul/flush/sw_timer: 22923 cycles, 5 delivered
    0xe3412d57b5be5efc, // matmul/drain/sw_timer: 21525 cycles, 5 delivered
    0xa077af86e8925d03, // matmul/tracked/sw_timer: 20663 cycles, 5 delivered
    0x8ffcf2debbcc2e07, // matmul/tracked/kb_timer: 19905 cycles, 4 delivered
    0xae6a4d94f726fb80, // matmul/tracked/forwarded: 19905 cycles, 4 delivered
    0x56158e77de1d7df6, // matmul/flush/forwarded: 22376 cycles, 5 delivered
    0xc386f370849e18a9, // matmul/drain/forwarded: 20877 cycles, 5 delivered
    0x7342fb527e6d71bf, // matmul/safepoint/kb_timer: 19923 cycles, 4 delivered
    0xff81f114981b1b34, // matmul/poll/poll_flag: 22003 cycles, 0 delivered
    0xdcac0a0cade8ca20, // base64/baseline: 18942 cycles, 0 delivered
    0xa37f67e0f1a1e73d, // base64/flush/sw_timer: 21954 cycles, 5 delivered
    0xd79b44962cdcf7ca, // base64/drain/sw_timer: 20276 cycles, 4 delivered
    0x6bcf247fa7e4e7e1, // base64/tracked/sw_timer: 19822 cycles, 4 delivered
    0x3b51e134d5831d20, // base64/tracked/kb_timer: 19280 cycles, 4 delivered
    0xc2c8f56b0d5166a7, // base64/tracked/forwarded: 19280 cycles, 4 delivered
    0xd39ce69455e96be4, // base64/flush/forwarded: 21564 cycles, 5 delivered
    0x314f6c51f606b2e7, // base64/drain/forwarded: 19907 cycles, 4 delivered
    0x7425094b9b641498, // base64/safepoint/kb_timer: 19333 cycles, 4 delivered
    0xc147b410f42d0233, // base64/poll/poll_flag: 19869 cycles, 0 delivered
    0x2feacfc4430832be, // fib/baseline: 64023 cycles, 0 delivered
    0xffa801203d13d1bb, // fib/flush/sw_timer: 80065 cycles, 26 delivered
    0x37abf15057eb3cdf, // fib/drain/sw_timer: 70279 cycles, 23 delivered
    0x4bbf2108b237c850, // fib/tracked/sw_timer: 68533 cycles, 22 delivered
    0x68635a93ac7a8d91, // fib/tracked/kb_timer: 65766 cycles, 21 delivered
    0xdd2c819e7e6127ee, // fib/tracked/forwarded: 65766 cycles, 21 delivered
    0x5be6d4e13645c30d, // fib/flush/forwarded: 76298 cycles, 25 delivered
    0x529b11a4b898502b, // fib/drain/forwarded: 67235 cycles, 22 delivered
    0x9dd2a3da3581122c, // fib/safepoint/kb_timer: 65766 cycles, 21 delivered
    0x60fa476d0a1b4e2d, // fib/poll/poll_flag: 64024 cycles, 0 delivered
    0xb1960ca7d2e6a0b1, // pointer_chase/baseline: 80014 cycles, 0 delivered
    0xced8ba120686b9c5, // pointer_chase/flush/sw_timer: 83601 cycles, 6 delivered
    0x1dad3240a1dd89b4, // pointer_chase/drain/sw_timer: 81646 cycles, 6 delivered
    0xb9146cd60144dcc7, // pointer_chase/tracked/sw_timer: 80408 cycles, 6 delivered
    0xf25297311abe3e93, // pointer_chase/tracked/kb_timer: 80042 cycles, 6 delivered
    0x7d92a5203897a49c, // pointer_chase/tracked/forwarded: 80042 cycles, 6 delivered
    0x88b606acfa21b027, // pointer_chase/flush/forwarded: 82695 cycles, 6 delivered
    0x4aa2f74930cdf89a, // pointer_chase/drain/forwarded: 80890 cycles, 6 delivered
    0x6054e40d6ebe63e3, // pointer_chase/safepoint/kb_timer: 80014 cycles, 5 delivered
    0xa35bcb11148faa59, // pointer_chase/poll/poll_flag: 80014 cycles, 0 delivered
    0x265cc045447bebaa, // interference/flush/sw_timer: 26792 cycles, 6 delivered
    0xe28209a0e4ce0429, // interference/drain/sw_timer: 21659 cycles, 5 delivered
    0x48540b14272b7686, // interference/tracked/sw_timer: 20719 cycles, 5 delivered
    0xce1e491191dd636a, // rob192/baseline: 82562 cycles, 0 delivered
    0xc4b58397a3303492, // rob192/flush: 97376 cycles, 24 delivered
    0x65b0bd39344254bc, // rob192/tracked: 86147 cycles, 21 delivered
    0x245eb01fce93ad58, // rob1536/baseline: 20044 cycles, 0 delivered
    0x998503c14a027251, // rob1536/flush: 25521 cycles, 6 delivered
    0x352d46fea1e003c0, // rob1536/tracked: 21208 cycles, 5 delivered
    0xeb059aee25dcd022, // clui_stui/flush/kb_timer: 57508 cycles, 1 delivered
    0x69ce895aaed77acf, // clui_stui/tracked/kb_timer: 57183 cycles, 1 delivered
    0x126e77c8238e64ef, // mem_dependence/baseline: 13673 cycles, 0 delivered
    0x161cb3699897d761, // mem_dependence/flush/sw_timer: 16909 cycles, 5 delivered
    0x4ac3389f3391b3b8, // mem_dependence/tracked/sw_timer: 14565 cycles, 4 delivered
    0xbeeb76677eed78e9, // senduipi_2core/flush: 23740 cycles, 6 delivered
    0x0ea76ff36231658f, // senduipi_2core/drain: 21694 cycles, 6 delivered
    0x1a75df9533cf2924, // senduipi_2core/tracked: 22618 cycles, 12 delivered
];

#[test]
fn cycle_level_timing_matches_frozen_digests() {
    let cells = cells();
    let actual: Vec<u64> = cells.iter().map(|(_, sys)| digest(sys)).collect();
    let listing: String = cells
        .iter()
        .zip(&actual)
        .map(|((label, sys), d)| {
            format!(
                "    0x{d:016x}, // {label}: {} cycles, {} delivered\n",
                sys.now(),
                sys.cores.iter().map(|c| c.stats.interrupts_delivered).sum::<u64>()
            )
        })
        .collect();
    assert_eq!(actual.len(), PINNED.len(), "cell count changed; digests now:\n{listing}");
    let changed: Vec<&str> = cells
        .iter()
        .zip(actual.iter().zip(&PINNED))
        .filter(|(_, (a, p))| a != p)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(changed.is_empty(), "timing changed in {changed:?}; digests now:\n{listing}");
}
