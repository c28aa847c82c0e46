//! Error type shared across the xUI model crates.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced by the UIPI/xUI architectural model.
///
/// Each variant corresponds to a condition that on real hardware would be a
/// fault (`#GP`), a rejected system call, or a programming error caught by
/// the kernel interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum XuiError {
    /// A user vector did not fit in the 6-bit UV space.
    UserVectorOutOfRange {
        /// The offending raw value.
        raw: u8,
    },
    /// `senduipi` was executed with an index past the end of the UITT, or
    /// pointing at an invalid entry (hardware raises `#GP`).
    InvalidUittIndex {
        /// The offending index.
        index: usize,
    },
    /// An operation referenced a UPID address that is not mapped.
    UnknownUpid {
        /// The offending address.
        addr: u64,
    },
    /// An operation referenced a thread that does not exist.
    UnknownThread {
        /// The offending thread id.
        thread: usize,
    },
    /// An operation referenced a core that does not exist.
    UnknownCore {
        /// The offending core index.
        core: usize,
    },
    /// A thread tried to use a user-interrupt feature without first
    /// registering a handler (`register_handler` in §3.2).
    HandlerNotRegistered {
        /// The offending thread id.
        thread: usize,
    },
    /// The KB_Timer was programmed while disabled by the kernel
    /// (`kb_config_MSR`, §4.3).
    KbTimerDisabled,
    /// A forwarding registration asked for a conventional vector that is
    /// already forwarded to another thread on the same core (§4.5: the
    /// per-core vector space "must be shared by threads on the host").
    VectorAlreadyForwarded {
        /// The contested conventional vector.
        vector: u8,
    },
    /// A thread attempted to run on a core while another thread occupied it.
    CoreBusy {
        /// The contested core index.
        core: usize,
    },
    /// The thread is not currently running on any core, but the operation
    /// requires it to be in context.
    ThreadNotRunning {
        /// The offending thread id.
        thread: usize,
    },
}

impl fmt::Display for XuiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::UserVectorOutOfRange { raw } => {
                write!(f, "user vector {raw} does not fit in the 6-bit UV space")
            }
            Self::InvalidUittIndex { index } => {
                write!(f, "senduipi index {index} names no valid UITT entry")
            }
            Self::UnknownUpid { addr } => write!(f, "no UPID mapped at {addr:#x}"),
            Self::UnknownThread { thread } => write!(f, "unknown thread {thread}"),
            Self::UnknownCore { core } => write!(f, "unknown core {core}"),
            Self::HandlerNotRegistered { thread } => {
                write!(f, "thread {thread} has not registered a user interrupt handler")
            }
            Self::KbTimerDisabled => {
                write!(f, "the KB_Timer is disabled by the kernel for this thread")
            }
            Self::VectorAlreadyForwarded { vector } => {
                write!(f, "vector {vector} is already forwarded on this core")
            }
            Self::CoreBusy { core } => write!(f, "core {core} is already running a thread"),
            Self::ThreadNotRunning { thread } => {
                write!(f, "thread {thread} is not running on any core")
            }
        }
    }
}

impl std::error::Error for XuiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            XuiError::UserVectorOutOfRange { raw: 99 },
            XuiError::InvalidUittIndex { index: 7 },
            XuiError::UnknownUpid { addr: 0x1000 },
            XuiError::UnknownThread { thread: 1 },
            XuiError::UnknownCore { core: 2 },
            XuiError::HandlerNotRegistered { thread: 3 },
            XuiError::KbTimerDisabled,
            XuiError::VectorAlreadyForwarded { vector: 8 },
            XuiError::CoreBusy { core: 0 },
            XuiError::ThreadNotRunning { thread: 5 },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
            assert!(!text.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XuiError>();
    }
}
