//! Reusing one thread's replay across checks is invisible: every
//! verdict on the `divergence_pin.rs` corpus (seeds `0..300` of
//! [`Schedule::generate`] and `0..5` of [`Schedule::generate_sim`],
//! under the production differ and the mis-packed one) equals the
//! verdict a freshly spawned thread — with a fresh replay — gives, in
//! forward order, in reverse order, and after a check that panicked
//! half-way through its replay.

use std::panic;
use std::thread;

use xui_oracle::{check, check_with, CheckOptions, Event, Schedule};

const DEFAULT: CheckOptions = CheckOptions { mispack_nc: false };
const MISPACK: CheckOptions = CheckOptions { mispack_nc: true };

/// Each schedule under the default differ, then under the mis-packed
/// one: run in order, the two options interleave.
fn corpus() -> Vec<(Schedule, CheckOptions)> {
    (0..300u64)
        .map(Schedule::generate)
        .chain((0..5u64).map(Schedule::generate_sim))
        .flat_map(|s| [(s.clone(), DEFAULT), (s, MISPACK)])
        .collect()
}

fn verdict(s: &Schedule, opts: CheckOptions) -> String {
    format!("{:?}", check_with(s, opts))
}

/// The verdict on a thread that has never checked anything.
fn fresh_verdict(s: &Schedule, opts: CheckOptions) -> String {
    let s = s.clone();
    thread::spawn(move || verdict(&s, opts)).join().expect("fresh check")
}

fn assert_same(order: &str, got: &[String], want: &[String]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{order}: verdict {i} differs from a fresh thread's");
    }
}

#[test]
fn reused_replay_gives_a_fresh_threads_verdicts_in_any_order() {
    let corpus = corpus();
    let fresh: Vec<String> = corpus.iter().map(|(s, o)| fresh_verdict(s, *o)).collect();
    let forward: Vec<String> = corpus.iter().map(|(s, o)| verdict(s, *o)).collect();
    assert_same("forward", &forward, &fresh);
    let mut reverse: Vec<String> = corpus.iter().rev().map(|(s, o)| verdict(s, *o)).collect();
    reverse.reverse();
    assert_same("reverse", &reverse, &fresh);
}

#[test]
fn a_check_that_panics_mid_replay_leaks_nothing_into_the_next() {
    // Every event but the last replays into both models; the last sends
    // on a vector no lane registered, which the differ rejects with a
    // panic while the thread's replay is in use.
    let mut bad = Schedule::generate(7);
    bad.events.push(Event::Send { uv: 63 });
    assert!(!bad.send_vectors.contains(&63));
    let caught = panic::catch_unwind(|| check(&bad));
    assert!(caught.is_err(), "an unregistered send vector panics");
    for (s, opts) in corpus().iter().step_by(37) {
        assert_eq!(verdict(s, *opts), fresh_verdict(s, *opts));
    }
}
