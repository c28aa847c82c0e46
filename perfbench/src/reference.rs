//! Host-speed reference: a fixed kernel, independent of the repository's
//! code, timed on the main thread between calls.
//!
//! The shared host the benchmark runs on slows down in phases that last
//! from seconds to tens of minutes (README, noise). A call's fastest
//! time over a run removes the short phases but not the long ones, so
//! the end-to-end times are also scaled by the reference:
//! `× NOMINAL_S / ref`, where `ref` is the tenth percentile of the
//! run's samples. The kernel walks a 32 KiB table with data-dependent
//! branches and runs three independent integer chains; the table is
//! read once, untimed, before each sample, so the workload's use of the
//! caches does not reach the timed part. It follows the core's speed,
//! not the memory system's, so it takes out part of a slow phase, not
//! all of it.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Tenth-percentile seconds of one sample on the 2-vCPU Xeon VM the
/// benchmark was built on; only the unit of the scaled times.
pub const NOMINAL_S: f64 = 250e-6;
/// A call on the main thread is preceded by a sample when the latest is
/// this old (about 2 % of a pass).
pub const EVERY: Duration = Duration::from_millis(10);
/// Percentile of the run's samples that stands for its fast moments,
/// as a call's fastest time does for the call.
pub const PERCENTILE: f64 = 10.0;
const TABLE_LEN: usize = 4_096;
const STEPS: u64 = 20_000;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    })
}

/// Host seconds of one reference sample.
pub fn sample() -> f64 {
    let table = table();
    black_box(table.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
    let t = Instant::now();
    let (mut x, mut acc) = (0x1234_5678u64, 0u64);
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x % TABLE_LEN as u64) as usize];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else if v & 2 == 0 {
            acc ^= v >> 3;
        } else {
            acc = acc.wrapping_mul(3);
        }
    }
    let (mut b, mut c, mut d) = (2u64, 3u64, 4u64);
    for i in 0..black_box(STEPS) {
        b = b.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ (b >> 29);
        c = c.wrapping_add(c.rotate_left(17)) ^ i;
        d = (d ^ (d >> 31)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    }
    black_box(acc ^ b ^ c ^ d);
    t.elapsed().as_secs_f64()
}
