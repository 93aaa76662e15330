//! One pipeline: `stage_snapshots` and `optimize` run the same stages
//! in the same order, checked on every suite program at every level,
//! under a frequency-free plan and under a measured-profile plan.

use opt::{optimize, stage_snapshots, OptPlan};
use profiler::bytecode::{compile, CompiledProgram};
use profiler::RunConfig;

/// The stages each level runs, in order.
const EXPECTED: [&[&str]; 4] = [
    &[],
    &["fold", "dce", "layout"],
    &["fold", "dce", "fuse", "mine", "layout"],
    &["inline", "fold", "dce", "fuse", "mine", "layout"],
];

/// A full-budget plan whose block and site frequencies come from one
/// profiled run on `input`.
fn profiled_plan(cp: &CompiledProgram, level: u8, input: Vec<u8>) -> OptPlan {
    let profile = cp
        .execute(&RunConfig::with_input(input))
        .expect("suite programs run clean")
        .profile;
    OptPlan {
        block_freqs: profile
            .block_counts
            .iter()
            .map(|blocks| blocks.iter().map(|&c| c as f64).collect())
            .collect(),
        site_freqs: profile.call_site_counts.iter().map(|&c| c as f64).collect(),
        ..OptPlan::full(cp, level)
    }
}

#[test]
fn last_snapshot_is_the_optimized_program_on_every_suite_program() {
    for bench in suite::all() {
        let cp = compile(&bench.compile().unwrap());
        let input = bench.inputs().remove(0);
        for (level, expected) in (0u8..).zip(EXPECTED) {
            let plans = [
                ("full", OptPlan::full(&cp, level)),
                ("profiled", profiled_plan(&cp, level, input.clone())),
            ];
            for (plan_name, plan) in &plans {
                let ctx = format!("{} @ O{level}, {plan_name} plan", bench.name);
                let snapshots = stage_snapshots(&cp, plan);
                let names: Vec<&str> = snapshots.iter().map(|&(name, _)| name).collect();
                assert_eq!(names, expected, "{ctx}: stage names");
                let (ocp, _) = optimize(&cp, plan);
                if let Some((_, last)) = snapshots.last() {
                    assert_eq!(
                        last.ir_fingerprint(),
                        ocp.ir_fingerprint(),
                        "{ctx}: final snapshot vs optimize"
                    );
                }
            }
        }
    }
}
