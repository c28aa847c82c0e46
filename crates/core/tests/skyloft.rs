//! §7 "Hacking around UIPI limitations": reproduce the Skyloft trick at
//! the descriptor level — abuse `senduipi` with the SN bit set so the
//! PIR is pre-armed for a local-APIC-timer interrupt whose vector has
//! been overloaded onto UINV — and demonstrate the limitations the paper
//! calls out.

use xui_core::receiver::{notification_processing, ReceiverState};
use xui_core::sender::{senduipi, MapUpidMemory};
use xui_core::uitt::{Uitt, UpidAddr};
use xui_core::vectors::UserVector;
use xui_uipi_abi::Upid;

const TIMER_UV: u8 = 1;

/// One Skyloft-style thread: its own UPID with SN permanently set, a
/// self-referential UITT entry, and the local APIC timer vector written
/// into UINV.
struct SkyloftThread {
    mem: MapUpidMemory,
    uitt: Uitt,
    upid: UpidAddr,
    rx: ReceiverState,
}

impl SkyloftThread {
    fn new() -> Self {
        let upid = UpidAddr(0x40);
        let mut mem = MapUpidMemory::new();
        let mut descr = Upid::new();
        // "At startup, it sets the SN bit on the UPIDs for all threads."
        descr.nc.set_sn(true);
        descr.nc.nv = 0xec;
        descr.nc.ndst = 0;
        mem.insert(upid, descr);
        let mut uitt = Uitt::new();
        uitt.register(upid, UserVector::new(TIMER_UV).unwrap());
        let mut rx = ReceiverState::new(0x4000);
        rx.uif.stui();
        Self { mem, uitt, upid, rx }
    }

    /// The self-senduipi arming step.
    fn arm(&mut self) {
        let outcome = senduipi(&self.uitt, &mut self.mem, xui_core::uitt::UittIndex(0))
            .expect("self-send");
        // SN suppresses the IPI — only the PIR bit is planted.
        assert!(outcome.suppressed);
        assert!(outcome.ipi.is_none());
    }

    /// A local APIC timer interrupt arrives; because UINV was overloaded
    /// to the timer vector, the core runs UIPI notification processing
    /// against the thread's UPID.
    fn timer_fires(&mut self) -> Option<UserVector> {
        notification_processing(&mut self.mem, self.upid, &mut self.rx.uirr)
            .expect("notification");
        let d = self.rx.try_deliver(0x100, 0x8000)?;
        self.rx.uiret();
        Some(d.frame.vector)
    }
}

#[test]
fn the_trick_delivers_timer_interrupts() {
    let mut t = SkyloftThread::new();
    // Without arming, a timer interrupt finds an empty PIR: no delivery.
    assert_eq!(t.timer_fires(), None, "unarmed timer tick is lost");

    // Arm, fire, deliver — and re-arm in the handler, as Skyloft does
    // "after every interrupt".
    for _ in 0..5 {
        t.arm();
        assert_eq!(
            t.timer_fires(),
            Some(UserVector::new(TIMER_UV).unwrap()),
            "armed timer tick delivers"
        );
    }
}

#[test]
fn forgetting_to_rearm_loses_the_next_tick() {
    let mut t = SkyloftThread::new();
    t.arm();
    assert!(t.timer_fires().is_some());
    // The handler forgot the self-senduipi: the next tick finds PIR
    // empty and is silently dropped — the fragility the paper notes.
    assert_eq!(t.timer_fires(), None);
}

#[test]
fn the_trick_blocks_ordinary_uipis() {
    // "this also disables all other uses of user interrupts … because
    // the SN bit must be set": a real remote sender posts but never
    // raises an IPI, so nothing arrives until the (hijacked) timer tick.
    let mut t = SkyloftThread::new();
    let mut sender_uitt = Uitt::new();
    sender_uitt.register(t.upid, UserVector::new(9).unwrap());
    let outcome =
        senduipi(&sender_uitt, &mut t.mem, xui_core::uitt::UittIndex(0)).expect("send");
    assert!(outcome.suppressed, "SN suppresses the real sender");
    assert!(outcome.ipi.is_none());
    // The posted vector is only observed when the timer next fires —
    // and it is indistinguishable from a timer tick.
    assert_eq!(t.timer_fires(), Some(UserVector::new(9).unwrap()));
}

#[test]
fn xui_kb_timer_needs_none_of_this() {
    // Contrast: the KB_Timer posts straight to UIRR with no UPID, no SN
    // abuse, and no vector hijacking (§4.3).
    use xui_core::kb_timer::{KbTimer, TimerMode};
    let mut timer = KbTimer::new();
    timer.enable(UserVector::new(TIMER_UV).unwrap());
    timer.set_timer(1_000, TimerMode::Periodic, 0).unwrap();
    let mut rx = ReceiverState::new(0x4000);
    rx.uif.stui();
    for tick in 1..=5u64 {
        let uv = timer.poll(tick * 1_000).expect("fires every period");
        rx.uirr.post(uv);
        let d = rx.try_deliver(0, 0).expect("delivers");
        assert_eq!(d.frame.vector.as_u8(), TIMER_UV);
        rx.uiret();
    }
}
