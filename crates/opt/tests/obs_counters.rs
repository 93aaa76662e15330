//! `optimize`'s telemetry: with obs enabled, the `opt.*` counters are
//! exactly the returned `OptStats`. Its own test binary, because obs
//! state is process-global.

use opt::{optimize, OptPlan, OptStats};
use profiler::bytecode::compile;

#[test]
fn opt_counters_equal_the_returned_stats() {
    let cp = compile(&suite::by_name("compress").unwrap().compile().unwrap());
    obs::reset();
    obs::set_enabled(true);
    let (_, stats) = optimize(&cp, &OptPlan::full(&cp, 3));
    obs::set_enabled(false);
    let metrics = obs::snapshot();
    obs::reset();

    let OptStats {
        inlined_calls,
        folded,
        dce_blocks,
        dce_ops,
        fused,
        mined,
    } = stats;
    let expected = [
        ("opt.dce_blocks", dce_blocks),
        ("opt.dce_ops", dce_ops),
        ("opt.folded", folded),
        ("opt.fused", fused),
        ("opt.inlined_calls", inlined_calls),
        ("opt.mined", mined),
    ];
    let counters: Vec<(&str, u64)> = metrics
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("opt."))
        .map(|(name, &n)| (name.as_str(), n))
        .collect();
    assert_eq!(counters, expected);
    assert!(
        inlined_calls > 0 && mined > 0,
        "compress at -O3 does work: {stats:?}"
    );
}
