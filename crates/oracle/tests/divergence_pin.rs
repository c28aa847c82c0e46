//! Frozen differ verdicts: FNV-1a digests of `format!("{:?}")` of every
//! [`check_with`] result over a fixed corpus — seeds `0..300` of
//! [`Schedule::generate`] and `0..5` of [`Schedule::generate_sim`], each
//! under the production differ and under the deliberately mis-packed
//! `UintrNc` — plus the [`shrink_with`] reproducer of ten mis-packed
//! seeds.
//!
//! The production corpus agrees everywhere, so its digests pin "no
//! divergence"; the mis-packed corpus diverges on every schedule, so its
//! digests pin which model is reported (protocol before kernel), the
//! event a divergence is reported at, and every byte of its `detail`
//! text. Any change to the differ's driver must leave every digest
//! unchanged.

use xui_oracle::{check_with, shrink_with, CheckOptions, Schedule};

const MISPACK: CheckOptions = CheckOptions { mispack_nc: true };

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `check_with(s, opts)` for every schedule into one digest.
fn verdicts(schedules: impl Iterator<Item = Schedule>, opts: CheckOptions) -> u64 {
    schedules.fold(FNV_OFFSET, |h, s| {
        fnv1a(h, format!("{:?}\n", check_with(&s, opts)).as_bytes())
    })
}

/// Every group, in a fixed order, as `(label, digest)`.
fn groups() -> Vec<(&'static str, u64)> {
    let full = || (0..300u64).map(Schedule::generate);
    let sim = || (0..5u64).map(Schedule::generate_sim);
    let shrunk = (0..10u64).fold(FNV_OFFSET, |h, seed| {
        let minimal = shrink_with(&Schedule::generate(seed), MISPACK);
        let verdict = check_with(&minimal, MISPACK);
        fnv1a(h, format!("{minimal:?}|{verdict:?}\n").as_bytes())
    });
    vec![
        ("full/default", verdicts(full(), CheckOptions::default())),
        ("full/mispack", verdicts(full(), MISPACK)),
        ("sim/default", verdicts(sim(), CheckOptions::default())),
        ("sim/mispack", verdicts(sim(), MISPACK)),
        ("shrink/mispack", shrunk),
    ]
}

const PINNED: [(&str, u64); 5] = [
    ("full/default", 0x73b1_7620_a7dd_e8b5),
    ("full/mispack", 0x9338_de01_47f9_0d15),
    ("sim/default", 0x9d32_e7ae_142d_d2b3),
    ("sim/mispack", 0x9d32_e7ae_142d_d2b3),
    ("shrink/mispack", 0x0de5_34a3_c998_034b),
];

#[test]
fn differ_verdicts_match_the_pinned_digests() {
    let actual = groups();
    let listing: String =
        actual.iter().map(|(label, d)| format!("    ({label:?}, {d:#018x}),\n")).collect();
    assert_eq!(actual, PINNED, "differ verdicts changed; digests now:\n{listing}");
}
