//! A warm suite pass does no VM work: every program probes the
//! artifact cache before it builds anything, so a filled cache means
//! no bytecode compile, no optimizer run and no execution — and a
//! cache missing one entry builds exactly one image and runs exactly
//! one input. Scoring predicts each program's branches once.
//!
//! The telemetry registry is process-global, so everything lives in
//! one `#[test]` and runs serially.

use cache::{ArtifactKey, ArtifactKind, Cache};
use estimators::eval;
use profiler::{Profile, RunConfig};
use std::path::{Path, PathBuf};

/// Profiles of the 14 programs on their standard inputs.
const SUITE_PROFILES: u64 = 56;

fn profiles(data: &[bench::ProgramData]) -> Vec<Vec<Profile>> {
    data.iter().map(|d| d.profiles.clone()).collect()
}

/// Runs `f` with telemetry on and returns its result and the metrics
/// it recorded.
fn traced<R>(f: impl FnOnce() -> R) -> (R, obs::Metrics) {
    obs::reset();
    obs::set_enabled(true);
    let r = f();
    obs::set_enabled(false);
    (r, obs::snapshot())
}

/// Spans named `leaf`, wherever the pool ran them.
fn leaf_count(m: &obs::Metrics, leaf: &str) -> u64 {
    m.spans
        .iter()
        .filter(|(p, _)| p.rsplit('/').next() == Some(leaf))
        .map(|(_, s)| s.count)
        .sum()
}

fn counter(m: &obs::Metrics, name: &str) -> u64 {
    m.counters.get(name).copied().unwrap_or(0)
}

/// Where the cache keeps the entry for `key` (its on-disk layout: two
/// hex digits of shard directory, then the rest of the key).
fn entry_path(dir: &Path, key: ArtifactKey) -> PathBuf {
    let hex = format!("{:032x}", key.0);
    dir.join(&hex[..2]).join(format!("{}.sfea", &hex[2..]))
}

#[test]
fn warm_passes_build_and_execute_nothing() {
    let dir = std::env::temp_dir().join(format!("sfe-warm-pass-{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&dir).unwrap();
    let pool = pool::global();

    // ── Plain images. ──
    let (cold, m) = traced(|| profiles(&bench::load_suite_with(pool, Some(&cache))));
    assert_eq!(leaf_count(&m, "profiler.compile"), 14);
    assert_eq!(leaf_count(&m, "profiler.execute"), SUITE_PROFILES);
    assert_eq!(counter(&m, "cache.misses"), SUITE_PROFILES);

    let (warm, m) = traced(|| bench::load_suite_with(pool, Some(&cache)));
    assert_eq!(
        leaf_count(&m, "profiler.compile"),
        0,
        "a warm pass builds no image"
    );
    assert_eq!(
        leaf_count(&m, "profiler.execute"),
        0,
        "a warm pass runs nothing"
    );
    assert_eq!(counter(&m, "cache.hits"), SUITE_PROFILES);
    assert_eq!(counter(&m, "cache.misses"), 0);
    assert_eq!(
        profiles(&warm),
        cold,
        "cached profiles diverged from computed ones"
    );

    // Scoring predicts each program's branches once, not once per
    // intra estimator.
    let (_, m) = traced(|| {
        for d in &warm {
            eval::score_program(&d.program, &d.profiles);
        }
    });
    assert_eq!(leaf_count(&m, "estimate.branch"), warm.len() as u64);

    // Drop one profile: the next pass rebuilds that program's image
    // and runs that one input; its meta entry is still present, so
    // checking for it counts no hit.
    let bench = warm[3].bench;
    let input = bench.inputs().swap_remove(1);
    let key = ArtifactKey::derive(
        ArtifactKind::Profile,
        bench.source,
        &RunConfig::with_input(input),
    );
    std::fs::remove_file(entry_path(&dir, key)).expect("the profile entry exists");
    let (healed, m) = traced(|| profiles(&bench::load_suite_with(pool, Some(&cache))));
    assert_eq!(leaf_count(&m, "profiler.compile"), 1);
    assert_eq!(leaf_count(&m, "profiler.execute"), 1);
    assert_eq!(counter(&m, "cache.hits"), SUITE_PROFILES - 1);
    assert_eq!(counter(&m, "cache.misses"), 1);
    assert_eq!(healed, cold);

    // ── Optimized images. ──
    let (cold_o3, m) = traced(|| profiles(&bench::load_suite_opt(pool, Some(&cache), 3)));
    assert_eq!(leaf_count(&m, "opt.optimize"), 14);
    assert_eq!(leaf_count(&m, "profiler.execute"), SUITE_PROFILES);
    let (warm_o3, m) = traced(|| profiles(&bench::load_suite_opt(pool, Some(&cache), 3)));
    assert_eq!(leaf_count(&m, "profiler.compile"), 0);
    assert_eq!(
        leaf_count(&m, "opt.optimize"),
        0,
        "a warm pass optimizes nothing"
    );
    assert_eq!(leaf_count(&m, "profiler.execute"), 0);
    assert_eq!(counter(&m, "cache.hits"), SUITE_PROFILES);
    assert_eq!(warm_o3, cold_o3);

    obs::reset();
    drop(cache);
    let _cleanup = std::fs::remove_dir_all(&dir);
}
