//! Overhead gate for the telemetry layer: instrumentation must not
//! slow the profiler's run of compress by more than 2%. CI runs
//! this after the build; a nonzero exit means a hot path started
//! paying for telemetry.
//!
//! The gate is measured *differentially, in one process*: reps with
//! telemetry disabled and enabled alternate, and the per-pair time
//! ratio is taken so host-load noise (which on shared runners swings
//! absolute throughput far more than 2%) cancels out. Enabled probes
//! do strictly more work than disabled ones (clock reads, registry
//! inserts vs one relaxed atomic load), so the measured enabled-mode
//! overhead is an upper bound on the disabled-mode overhead the
//! shipping default pays.
//!
//! Usage: `cargo run --release -p bench --bin obscheck`
//! (`BENCH_QUICK=1` reduces repetitions).

use profiler::RunConfig;
use std::hint::black_box;
use std::time::Instant;

fn timed<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// The overhead budget: enabled telemetry may cost at most 2%.
const TOLERANCE: f64 = 0.02;

fn main() {
    let pairs = if std::env::var_os("BENCH_QUICK").is_some() {
        3
    } else {
        7
    };

    let bench_prog = suite::by_name("compress").expect("compress in suite");
    let program = bench_prog.compile().expect("compress compiles");
    let config = RunConfig::with_input(bench_prog.inputs().remove(0));
    let steps = profiler::run(&program, &config)
        .expect("compress runs")
        .steps;

    // Interleaved disabled/enabled pairs; adjacent reps sample nearly
    // the same host state, so their ratio isolates the probe cost.
    obs::set_enabled(false);
    let mut ratios = Vec::with_capacity(pairs);
    let mut disabled_s = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        assert!(!obs::enabled(), "telemetry must start off");
        let d = timed(|| profiler::run(&program, &config).unwrap());
        obs::set_enabled(true);
        let e = timed(|| profiler::run(&program, &config).unwrap());
        obs::set_enabled(false);
        obs::reset();
        ratios.push(e / d);
        disabled_s.push(d);
    }
    ratios.sort_by(f64::total_cmp);
    disabled_s.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    let disabled_tput = steps as f64 / disabled_s[disabled_s.len() / 2];

    println!(
        "obscheck: enabled-telemetry overhead {:+.2}% over {pairs} pairs \
         (median ratio), budget {:.0}%; compress {disabled_tput:.0} steps/s disabled",
        overhead * 100.0,
        TOLERANCE * 100.0
    );
    if overhead > TOLERANCE {
        eprintln!(
            "obscheck: FAIL — instrumentation overhead exceeds the {:.0}% budget",
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("obscheck: OK");
}
