//! The cycle-level timing pin of `xui-sim`
//! (`crates/sim/tests/timing_pin.rs`), run from the root package so that
//! `cargo test` at the root catches a one-cycle shift in the pipeline
//! model.

#[path = "../crates/sim/tests/timing_pin.rs"]
mod timing_pin;
