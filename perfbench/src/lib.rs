//! # perfbench — the repository's wall-clock benchmark
//!
//! Five workloads (`suite-cold`, `suite-warm`, `suite-o3`, `corpus`,
//! `serve`) driven through the public entry points of the repository's
//! crates. An untraced run times one workload end to end; a traced run
//! does one traced round of every workload and reports the per-layer
//! self times and exact counts. See `README.md` for the metrics and
//! which layer each is expected to move.

pub mod check;
pub mod corpus;
pub mod run;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

/// splitmix64 of `seed` and `i`: the derived seed of the `i`-th
/// generated input of a workload.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
