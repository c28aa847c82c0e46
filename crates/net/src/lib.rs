//! # xui-net
//!
//! The DPDK-like networking substrate of the xUI reproduction:
//! 64-byte-packet and descriptor-ring models ([`packet`]), a DIR-24-8
//! longest-prefix-match routing table implementing the same algorithm as
//! DPDK's `rte_lpm` ([`lpm`]), open-loop exponential traffic generation
//! ([`traffic`]), and the Figure 8 l3fwd experiment comparing busy
//! polling against xUI device interrupts ([`l3fwd`]).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod l3fwd;
pub mod lpm;
pub mod packet;
pub mod rss;
pub mod traffic;

pub use l3fwd::{run_l3fwd, run_l3fwd_with, IoMode, L3fwdConfig, L3fwdReport};
pub use lpm::{Lpm, Route};
pub use packet::{Packet, RxQueue};
pub use rss::Rss;
