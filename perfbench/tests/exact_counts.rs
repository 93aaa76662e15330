//! The exact counts of a traced run repeat bit for bit for one seed,
//! the accuracy metrics repeat across untraced runs, and a different
//! seed generates different corpus and serve inputs.

use perfbench::run::{self, Report, Sizes, Workload};
use std::path::PathBuf;

fn small() -> Sizes {
    Sizes {
        corpus_programs: 40,
        serve_rounds: 3,
        serve_requests: 30,
        traced_serve_rounds: 2,
    }
}

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-exact-counts")
}

fn exact(r: &Report) -> Vec<(String, u64)> {
    r.metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

// One test: the runs share the process-wide `obs` registry and pool.
#[test]
fn counts_repeat_for_a_seed_and_inputs_follow_the_seed() {
    let a = run::traced(1, 0.0, small(), &scratch()).expect("traced run");
    let b = run::traced(1, 0.0, small(), &scratch()).expect("traced run");
    for r in [&a, &b] {
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0, "{:?}", r.notes);
    }
    let counts = exact(&a);
    for name in [
        "cold.profiler.steps",
        "o3.profiler.steps",
        "o3.opt.ops_before",
        "o3.opt.ops_after",
        "o3.opt.inlined_calls",
        "suite.flowgraph.blocks",
        "corpus.flowgraph.blocks",
        "cold.cache.misses",
        "warm.cache.hits",
        "serve.work_units",
        "suite.linsolve.solves",
    ] {
        assert!(counts.iter().any(|(n, _)| n == name), "{name} missing");
    }
    assert_eq!(counts, exact(&b));

    for w in [Workload::SuiteWarm, Workload::Corpus, Workload::Serve] {
        let x = run::untraced(w, 1, 0.01, small(), &scratch()).expect("untraced run");
        let y = run::untraced(w, 1, 0.01, small(), &scratch()).expect("untraced run");
        assert_eq!(x.failed, 0);
        assert_eq!(exact(&x), exact(&y), "{}", w.name());
        assert_eq!(exact(&x).len(), 3);
    }

    let sources = |seed| -> Vec<String> {
        perfbench::corpus::inputs(seed, 8)
            .into_iter()
            .map(|i| i.source)
            .collect()
    };
    assert_ne!(sources(1), sources(2));
    let scripts = |seed| -> Vec<String> {
        perfbench::serve::inputs(seed, 2, 10)
            .iter()
            .flat_map(|round| round.iter().flat_map(|s| s.lines.clone()))
            .collect()
    };
    assert_ne!(scripts(1), scripts(2));
    let c1 = run::traced(2, 0.0, small(), &scratch()).expect("traced run");
    let blocks = |r: &Report| r.get("corpus.flowgraph.blocks").map(|m| m.value);
    assert_ne!(blocks(&a), blocks(&c1));
}
