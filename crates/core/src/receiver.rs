//! Receiver-side semantics: notification recognition, notification
//! processing, user-interrupt delivery and `uiret` (§3.3 steps (4)–(7)).

use serde::{Deserialize, Serialize};

use crate::error::XuiError;
use crate::sender::MapUpidMemory;
use crate::uif::Uif;
use crate::uirr::Uirr;
use crate::uitt::UpidAddr;
use crate::vectors::{UserVector, Vector};

/// The stack frame delivery pushes and `uiret` pops (§3.3 steps (5) and
/// (7)): the interrupted thread's stack pointer, program counter, and the
/// delivered user vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UintrFrame {
    /// Saved stack pointer of the interrupted context.
    pub sp: u64,
    /// Saved program counter — where `uiret` resumes.
    pub pc: u64,
    /// The user vector being delivered.
    pub vector: UserVector,
}

/// Checks whether an arriving conventional IPI is a user-interrupt
/// notification: the receiver compares the incoming vector against the
/// `UINV` field of its MSR (§3.2). Non-matching vectors are handled by the
/// OS as ordinary interrupts.
#[must_use]
pub fn recognizes_notification(incoming: Vector, uinv: Vector) -> bool {
    incoming == uinv
}

/// The microcode *notification processing* step (§3.3 step (4)): reads the
/// current thread's UPID, clears its `ON` bit, and drains `PIR` into the
/// core's `UIRR`.
///
/// Returns the drained `PIR` bitmap (useful for tracing).
///
/// # Errors
///
/// Returns [`XuiError::UnknownUpid`] if `upid_addr` is unmapped.
pub fn notification_processing(
    mem: &mut MapUpidMemory,
    upid_addr: UpidAddr,
    uirr: &mut Uirr,
) -> Result<u64, XuiError> {
    let upid = mem.get_mut(upid_addr)?;
    upid.nc.set_on(false);
    let drained = upid.take_puir();
    uirr.merge_pir(drained);
    Ok(drained)
}

/// Per-thread user-interrupt receiver state: the handler entry point, the
/// interrupt flag, the request register, and the stack of frames pushed by
/// nested deliveries.
///
/// # Examples
///
/// ```
/// use xui_core::receiver::ReceiverState;
/// use xui_core::vectors::UserVector;
///
/// let mut rx = ReceiverState::new(0x4000);
/// rx.uif.stui();
/// rx.uirr.post(UserVector::new(2)?);
///
/// let delivery = rx.try_deliver(0x100, 0x8000).expect("pending + enabled");
/// assert_eq!(delivery.handler, 0x4000);
/// assert_eq!(delivery.frame.vector, UserVector::new(2)?);
/// assert!(!rx.uif.testui(), "delivery masks further user interrupts");
///
/// let resume = rx.uiret().expect("frame pushed by delivery");
/// assert_eq!(resume.pc, 0x100);
/// assert!(rx.uif.testui(), "uiret re-enables delivery");
/// # Ok::<(), xui_core::error::XuiError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReceiverState {
    /// Entry point of the registered user-level handler
    /// (`UINT_Handler` register).
    pub handler: u64,
    /// The user-interrupt flag.
    pub uif: Uif,
    /// The user-interrupt request register.
    pub uirr: Uirr,
    frames: Vec<UintrFrame>,
}

/// The outcome of a successful delivery: where to jump, and the frame that
/// was pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// Handler entry point to jump to.
    pub handler: u64,
    /// The frame pushed onto the (modelled) stack.
    pub frame: UintrFrame,
}

impl ReceiverState {
    /// Creates receiver state with the given handler entry point. The UIF
    /// starts clear (delivery blocked) as after `register_handler`; call
    /// `uif.stui()` to enable delivery.
    #[must_use]
    pub fn new(handler: u64) -> Self {
        let mut state = Self::default();
        state.reset(handler);
        state
    }

    /// Returns to the state [`ReceiverState::new`] builds, keeping the
    /// frame stack's capacity.
    pub fn reset(&mut self, handler: u64) {
        let Self { handler: h, uif, uirr, frames } = self;
        *h = handler;
        *uif = Uif::clear();
        *uirr = Uirr::new();
        frames.clear();
    }

    /// True if a user interrupt would be delivered right now
    /// (UIF set and UIRR non-empty).
    #[must_use]
    pub fn can_deliver(&self) -> bool {
        self.uif.testui() && !self.uirr.is_empty()
    }

    /// The *user interrupt delivery* microcode step (§3.3 step (5)).
    ///
    /// If UIF is set and a vector is pending: pushes ⟨sp, pc, vector⟩,
    /// clears UIF (masking nested user interrupts), clears the vector from
    /// UIRR, and returns the jump target. Returns `None` when nothing can
    /// be delivered.
    pub fn try_deliver(&mut self, pc: u64, sp: u64) -> Option<Delivery> {
        if !self.uif.testui() {
            return None;
        }
        let vector = self.uirr.take_highest()?;
        let frame = UintrFrame { sp, pc, vector };
        self.frames.push(frame);
        self.uif.clui();
        Some(Delivery {
            handler: self.handler,
            frame,
        })
    }

    /// The `uiret` instruction (§3.3 step (7)): pops the frame, re-enables
    /// user-interrupt delivery, and returns the context to resume.
    ///
    /// Returns `None` if no delivery is in progress (executing `uiret`
    /// outside a handler — a software bug this model surfaces rather than
    /// faulting).
    pub fn uiret(&mut self) -> Option<UintrFrame> {
        let frame = self.frames.pop()?;
        self.uif.stui();
        Some(frame)
    }

    /// Depth of nested deliveries currently outstanding.
    #[must_use]
    pub fn delivery_depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use xui_uipi_abi::Upid;

    use super::*;

    fn uv(raw: u8) -> UserVector {
        UserVector::new(raw).unwrap()
    }

    #[test]
    fn recognition_compares_uinv() {
        let uinv = Vector::new(0xec);
        assert!(recognizes_notification(Vector::new(0xec), uinv));
        assert!(!recognizes_notification(Vector::new(0x20), uinv));
    }

    #[test]
    fn notification_processing_drains_pir_into_uirr() {
        let addr = UpidAddr(0x40);
        let mut upid = Upid::new();
        upid.nc.set_on(true);
        upid.post(4);
        upid.post(11);
        let mut mem = MapUpidMemory::new();
        mem.insert(addr, upid);

        let mut uirr = Uirr::new();
        let drained = notification_processing(&mut mem, addr, &mut uirr).unwrap();
        assert_eq!(drained, (1 << 4) | (1 << 11));
        assert_eq!(uirr.bits(), drained);

        let after = mem.get(addr).unwrap();
        assert!(!after.nc.on());
        assert_eq!(after.puir, 0);
    }

    #[test]
    fn delivery_requires_uif() {
        let mut rx = ReceiverState::new(0x4000);
        rx.uirr.post(uv(1));
        assert!(!rx.can_deliver(), "UIF clear blocks delivery");
        assert_eq!(rx.try_deliver(0, 0), None);
        rx.uif.stui();
        assert!(rx.can_deliver());
        assert!(rx.try_deliver(0, 0).is_some());
    }

    #[test]
    fn delivery_masks_and_uiret_unmasks() {
        let mut rx = ReceiverState::new(0x4000);
        rx.uif.stui();
        rx.uirr.post(uv(3));
        rx.uirr.post(uv(1));

        let d = rx.try_deliver(0x100, 0x8000).unwrap();
        assert_eq!(d.frame.vector, uv(3), "highest priority first");
        assert_eq!(rx.delivery_depth(), 1);
        assert!(!rx.uif.testui());
        assert_eq!(
            rx.try_deliver(0x104, 0x8000),
            None,
            "nested delivery blocked while UIF clear"
        );

        let frame = rx.uiret().unwrap();
        assert_eq!(frame.pc, 0x100);
        assert_eq!(frame.sp, 0x8000);
        assert!(rx.uif.testui());
        assert!(rx.can_deliver(), "uv1 still pending");
        let d2 = rx.try_deliver(0x100, 0x8000).unwrap();
        assert_eq!(d2.frame.vector, uv(1));
    }

    #[test]
    fn uiret_without_delivery_is_none() {
        let mut rx = ReceiverState::new(0);
        assert_eq!(rx.uiret(), None);
    }

    #[test]
    fn nested_delivery_with_explicit_stui() {
        // A handler may re-enable user interrupts (stui) to allow nesting;
        // frames must unwind LIFO.
        let mut rx = ReceiverState::new(0x4000);
        rx.uif.stui();
        rx.uirr.post(uv(5));
        let _outer = rx.try_deliver(0x100, 0x8000).unwrap();
        rx.uif.stui();
        rx.uirr.post(uv(6));
        let inner = rx.try_deliver(0x4010, 0x7f00).unwrap();
        assert_eq!(rx.delivery_depth(), 2);
        assert_eq!(inner.frame.pc, 0x4010);
        assert_eq!(rx.uiret().unwrap().pc, 0x4010);
        assert_eq!(rx.uiret().unwrap().pc, 0x100);
        assert_eq!(rx.delivery_depth(), 0);
    }
}
