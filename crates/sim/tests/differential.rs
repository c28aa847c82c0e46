//! Differential fuzzing: random programs executed on the out-of-order
//! pipeline must end in exactly the architectural state the functional
//! interpreter computes — under every delivery strategy, with and without
//! interrupts hammering the pipeline. Branchy programs also check the
//! scheduler's incremental state against a full ROB scan every cycle,
//! check that the cycles a core reports as quiet really change nothing,
//! and check that the run loops' quiet-cycle skip ends in exactly the
//! state per-cycle ticking reaches.

use proptest::prelude::*;

use xui_sim::config::{DeliveryStrategy, SystemConfig};
use xui_sim::interp::{interpret, InterpState, Stop};
use xui_sim::isa::{AluKind, Inst, Op, Operand, Pc, Program, Reg, REG_COUNT};
use xui_sim::system::Device;
use xui_sim::System;

/// Registers the generator is allowed to touch (r1–r7; r20+ reserved for
/// handlers, r28+ for SP/microcode).
fn reg_strategy() -> impl Strategy<Value = Reg> {
    (1u8..8).prop_map(Reg)
}

fn alu_kind() -> impl Strategy<Value = AluKind> {
    prop_oneof![
        Just(AluKind::Add),
        Just(AluKind::Sub),
        Just(AluKind::And),
        Just(AluKind::Or),
        Just(AluKind::Xor),
        Just(AluKind::Shl),
        Just(AluKind::Shr),
    ]
}

/// Straight-line body instructions (no control flow).
fn body_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (alu_kind(), reg_strategy(), reg_strategy(), -64i64..64)
            .prop_map(|(kind, dst, src, imm)| Op::Alu { kind, dst, src, op2: Operand::Imm(imm) }),
        (alu_kind(), reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(kind, dst, src, r)| Op::Alu { kind, dst, src, op2: Operand::Reg(r) }),
        (reg_strategy(), 0u64..1024).prop_map(|(dst, imm)| Op::Li { dst, imm }),
        (reg_strategy(), reg_strategy(), 0i64..32)
            .prop_map(|(dst, src, imm)| Op::Mul { dst, src, op2: Operand::Imm(imm) }),
        (reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(dst, src, r)| Op::Fp { dst, src, op2: Operand::Reg(r) }),
        // Loads/stores over a small private arena at 0x9000 so addresses
        // stay in range regardless of register contents.
        (reg_strategy(), reg_strategy()).prop_map(|(dst, base)| Op::Load {
            dst,
            base,
            offset: 0x9000,
        }),
        (reg_strategy(), reg_strategy()).prop_map(|(src, base)| Op::Store {
            src,
            base,
            offset: 0x9000,
        }),
    ]
}

/// Builds a program: a counted outer loop whose body is the random
/// instruction list (with register values masked small so load/store
/// addresses stay in the arena), then halt.
fn build_program(body: Vec<Op>, iters: u64) -> Program {
    let mut code = vec![Inst::new(Op::Li { dst: Reg(9), imm: iters })];
    let top: Pc = code.len();
    for op in body {
        // Mask address bases into the arena before memory ops.
        if let Op::Load { base, .. } | Op::Store { base, .. } = op {
            code.push(Inst::new(Op::Alu {
                kind: AluKind::And,
                dst: base,
                src: base,
                op2: Operand::Imm(0x1F8),
            }));
        }
        code.push(Inst::new(op));
    }
    code.push(Inst::new(Op::Alu {
        kind: AluKind::Sub,
        dst: Reg(9),
        src: Reg(9),
        op2: Operand::Imm(1),
    }));
    code.push(Inst::new(Op::Bnez { src: Reg(9), target: top }));
    code.push(Inst::new(Op::Halt));
    // Handler (never reached unless interrupts are enabled).
    code.push(Inst::new(Op::Alu {
        kind: AluKind::Add,
        dst: Reg(20),
        src: Reg(20),
        op2: Operand::Imm(1),
    }));
    code.push(Inst::new(Op::Uiret));
    Program::new("fuzz", code)
}

/// One step of a branchy body: a straight-line op, or a data-dependent
/// forward branch over the next `skip` steps.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(Op),
    SkipIf { src: Reg, on_zero: bool, skip: usize },
}

/// Straight-line ops, data-dependent forward branches (mispredicts and
/// squashes), and program-initiated microcode — `clui`, `stui` and a
/// self-targeted `senduipi` — which must wait for older branches.
fn branchy_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        body_op().prop_map(Step::Op),
        body_op().prop_map(Step::Op),
        body_op().prop_map(Step::Op),
        (reg_strategy(), any::<bool>(), 1usize..4)
            .prop_map(|(src, on_zero, skip)| Step::SkipIf { src, on_zero, skip }),
        (reg_strategy(), any::<bool>(), 1usize..4)
            .prop_map(|(src, on_zero, skip)| Step::SkipIf { src, on_zero, skip }),
        Just(Step::Op(Op::Clui)),
        Just(Step::Op(Op::Stui)),
        Just(Step::Op(Op::SendUipi { index: 0 })),
    ]
}

/// [`build_program`] with each `SkipIf` laid out as a branch to the
/// step `skip` places further on (at most the loop's back-edge).
fn build_branchy_program(steps: &[Step], iters: u64) -> Program {
    let body: Vec<Op> = steps
        .iter()
        .map(|step| match *step {
            Step::Op(op) => op,
            Step::SkipIf { src, .. } => Op::Bnez { src, target: 0 },
        })
        .collect();
    // Step i starts at starts[i] (a memory op is preceded by its base
    // mask); starts[len] is the loop counter's decrement.
    let mut starts = vec![1];
    for op in &body {
        let width = if matches!(op, Op::Load { .. } | Op::Store { .. }) { 2 } else { 1 };
        starts.push(starts.last().unwrap() + width);
    }
    let mut program = build_program(body, iters);
    for (i, step) in steps.iter().enumerate() {
        if let Step::SkipIf { src, on_zero, skip } = *step {
            let target = starts[(i + 1 + skip).min(steps.len())];
            program.code[starts[i]].op = if on_zero {
                Op::Beqz { src, target }
            } else {
                Op::Bnez { src, target }
            };
        }
    }
    program
}

/// Cycle limit of the invariant-checked runs.
const CHECKED_RUN_CYCLES: u64 = 400_000;

/// Cycles ticked ahead on a copy of a quiet core to check that it stays
/// quiet: bounds the check for a core quiet until the next outside event.
const QUIET_CHECK_HORIZON: u64 = 5_000;

/// A one-core system running `program` with tracing on, self-`senduipi`
/// wired up and a forwarded interrupt at `first_fire` and then every
/// `period` cycles.
fn build_system(
    program: &Program,
    strategy: DeliveryStrategy,
    safepoint_mode: bool,
    first_fire: u64,
    period: u64,
) -> System {
    let mut cfg = SystemConfig::uipi();
    cfg.strategy.0 = strategy;
    let mut sys = System::new(cfg, vec![program.clone()]);
    sys.cores[0].safepoint_mode = safepoint_mode;
    sys.cores[0].trace_enabled = true;
    sys.register_receiver(0, program.len() - 2);
    sys.connect_sender(0, 0, 3);
    sys.add_device(Device::DirectIrq {
        period,
        next_fire: first_fire,
        core: 0,
        user_vector: 1,
    });
    sys
}

/// Runs `sys` cycle by cycle until core 0 halts or `max_cycles`, and
/// after every cycle checks the core's scheduler invariants. Whenever
/// the core reports itself quiet until a later cycle, ticks a copy of
/// the core and the memory system on each cycle before it: each tick
/// must report the same quiet stretch again, and neither copy may end
/// up changed.
fn run_with_invariant_checks(sys: &mut System, max_cycles: u64) {
    let mut checked_until = 0;
    while sys.now() < max_cycles && !sys.cores[0].is_halted() {
        sys.tick();
        let core = &sys.cores[0];
        core.check_scheduler_invariants();
        let wake = core.wake_at();
        if wake > sys.now() && wake > checked_until && !core.is_halted() {
            let end = wake.min(sys.now() + QUIET_CHECK_HORIZON);
            let (mut quiet, mut mem) = (core.clone(), sys.mem.clone());
            for t in sys.now()..end {
                quiet.tick(t, &mut mem);
                assert_eq!(quiet.wake_at(), wake, "tick at cycle {t} was not quiet");
            }
            assert!(quiet == *core, "core changed before cycle {wake}");
            assert!(mem == sys.mem, "memory changed before cycle {wake}");
            checked_until = wake;
        }
    }
}

/// Asserts that two runs ended in the same simulated state.
fn assert_same_run(skipped: &System, ticked: &System) {
    let (a, b) = (&skipped.cores[0], &ticked.cores[0]);
    assert_eq!(skipped.now(), ticked.now(), "final cycle");
    assert_eq!(a.stats, b.stats, "CoreStats");
    assert_eq!(a.irq_timings, b.irq_timings, "irq_timings");
    assert_eq!(skipped.mem.stats(0), ticked.mem.stats(0), "MemStats");
    for r in 0..REG_COUNT as u8 {
        assert_eq!(a.reg(Reg(r)), b.reg(Reg(r)), "r{r}");
    }
    assert_eq!(a.trace, b.trace, "trace events");
    assert!(a == b, "core state");
}

fn pipeline_state(
    program: &Program,
    strategy: DeliveryStrategy,
    irq_period: Option<u64>,
) -> (Vec<u64>, u64) {
    let mut cfg = SystemConfig::uipi();
    cfg.strategy.0 = strategy;
    let mut sys = System::new(cfg, vec![program.clone()]);
    let handler = program.len() - 2;
    sys.cores[0].set_handler(handler);
    if let Some(period) = irq_period {
        sys.add_device(Device::DirectIrq {
            period,
            next_fire: period / 2,
            core: 0,
            user_vector: 1,
        });
    }
    sys.run_until_core_halted(0, 200_000_000)
        .expect("pipeline run halts");
    let regs: Vec<u64> = (1..10).map(|r| sys.cores[0].reg(Reg(r))).collect();
    (regs, sys.cores[0].reg(Reg(20)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Without interrupts, the pipeline's final register state equals the
    /// interpreter's, for all three delivery strategies (they only differ
    /// when interrupts arrive).
    #[test]
    fn pipeline_matches_interpreter(
        body in proptest::collection::vec(body_op(), 1..14),
        iters in 1u64..40,
    ) {
        let program = build_program(body, iters);
        let (golden, stop) = interpret(&program, InterpState::default(), 1_000_000);
        prop_assert_eq!(stop, Stop::Halted);
        for strategy in [DeliveryStrategy::Flush, DeliveryStrategy::Drain, DeliveryStrategy::Tracked] {
            let (regs, handled) = pipeline_state(&program, strategy, None);
            for (i, &v) in regs.iter().enumerate() {
                prop_assert_eq!(
                    v,
                    golden.reg(Reg((i + 1) as u8)),
                    "r{} mismatch under {:?}", i + 1, strategy
                );
            }
            prop_assert_eq!(handled, 0);
        }
    }

    /// With interrupts hammering the pipeline, program-visible state is
    /// still exactly the interpreter's (the handler only touches r20),
    /// and the handler ran once per delivered interrupt.
    ///
    /// The period stays above the worst-case delivery + handler cost:
    /// below it, a flush-delivered interrupt storm livelocks the program
    /// (zero commits between back-to-back deliveries) — architecturally
    /// honest, but then there is no final state to compare.
    #[test]
    fn interrupts_never_corrupt_architectural_state(
        body in proptest::collection::vec(body_op(), 1..10),
        iters in 20u64..60,
        period in 1_500u64..4_000,
    ) {
        let program = build_program(body, iters);
        let (golden, stop) = interpret(&program, InterpState::default(), 1_000_000);
        prop_assert_eq!(stop, Stop::Halted);
        for strategy in [DeliveryStrategy::Flush, DeliveryStrategy::Drain, DeliveryStrategy::Tracked] {
            let (regs, _handled) = pipeline_state(&program, strategy, Some(period));
            for (i, &v) in regs.iter().enumerate() {
                prop_assert_eq!(
                    v,
                    golden.reg(Reg((i + 1) as u8)),
                    "r{} corrupted by {:?} interrupts", i + 1, strategy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Safepoint mode under interrupt pressure: architectural state still
    /// matches the interpreter, and every delivery waited for a marked
    /// instruction (counted exactly by the handler).
    #[test]
    fn safepoint_mode_never_corrupts_state(
        body in proptest::collection::vec(body_op(), 1..10),
        iters in 20u64..60,
        period in 400u64..2_500,
        mark_stride in 1usize..4,
    ) {
        // Mark every `mark_stride`-th body instruction as a safepoint.
        let program = {
            let mut p = build_program(body, iters);
            for (i, inst) in p.code.iter_mut().enumerate() {
                if i % mark_stride == 1 && !inst.is_control() {
                    inst.safepoint = true;
                }
            }
            p
        };
        let (golden, stop) = interpret(&program, InterpState::default(), 1_000_000);
        prop_assert_eq!(stop, Stop::Halted);

        let mut cfg = SystemConfig::uipi();
        cfg.strategy.0 = DeliveryStrategy::Tracked;
        let mut sys = System::new(cfg, vec![program.clone()]);
        sys.cores[0].safepoint_mode = true;
        let handler = program.len() - 2;
        sys.cores[0].set_handler(handler);
        sys.add_device(Device::DirectIrq {
            period,
            next_fire: period / 2,
            core: 0,
            user_vector: 1,
        });
        sys.run_until_core_halted(0, 40_000_000).expect("halts");
        for r in 1..10u8 {
            prop_assert_eq!(
                sys.cores[0].reg(Reg(r)),
                golden.reg(Reg(r)),
                "r{} corrupted under safepoint mode", r
            );
        }
        prop_assert_eq!(
            sys.cores[0].reg(Reg(20)),
            sys.cores[0].stats.interrupts_delivered,
            "handler count matches deliveries"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Branchy programs with program-initiated microcode under interrupt
    /// pressure, under flush, drain, tracked and tracked-with-safepoints
    /// delivery: every cycle, the scheduler's maintained Ready set,
    /// in-flight list, unresolved branches, live microcode, store queue
    /// and wake-up lists equal a full ROB rescan — across mispredict
    /// squashes, interrupt flushes and tracked re-injection — and every
    /// cycle the core reports as quiet changes nothing. The run loop
    /// that skips quiet cycles ends in the per-cycle run's exact state,
    /// and runs that halt end in the interpreter's architectural state.
    #[test]
    fn scheduler_state_matches_a_full_rob_scan(
        steps in proptest::collection::vec(branchy_step(), 1..14),
        iters in 20u64..80,
        first_fire in 10u64..300,
        period in 300u64..3_000,
        mark_stride in 1usize..4,
    ) {
        let program = {
            let mut p = build_branchy_program(&steps, iters);
            for (i, inst) in p.code.iter_mut().enumerate() {
                if i % mark_stride == 1 && !inst.is_control() {
                    inst.safepoint = true;
                }
            }
            p
        };
        let (golden, stop) = interpret(&program, InterpState::default(), 1_000_000);
        prop_assert_eq!(stop, Stop::Halted);
        let runs = [
            (DeliveryStrategy::Flush, false),
            (DeliveryStrategy::Drain, false),
            (DeliveryStrategy::Tracked, false),
            (DeliveryStrategy::Tracked, true),
        ];
        for (strategy, safepoint_mode) in runs {
            let build = || build_system(&program, strategy, safepoint_mode, first_fire, period);
            let mut ticked = build();
            run_with_invariant_checks(&mut ticked, CHECKED_RUN_CYCLES);
            let mut skipped = build();
            skipped.run_until_core_halted(0, CHECKED_RUN_CYCLES);
            assert_same_run(&skipped, &ticked);
            if !ticked.cores[0].is_halted() {
                continue;
            }
            for r in 1..10u8 {
                prop_assert_eq!(
                    ticked.cores[0].reg(Reg(r)),
                    golden.reg(Reg(r)),
                    "r{} under {:?} (safepoints: {})", r, strategy, safepoint_mode
                );
            }
        }
    }
}
