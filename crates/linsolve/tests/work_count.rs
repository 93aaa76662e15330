//! The sparse solver's advantage over dense elimination, as a work count
//! that reads no clock and so is the same on every run and build profile.
//! [`FlowSystem::solve`] solves one strongly connected component at a
//! time; [`FlowSystem::solve_dense`] eliminates the whole `n × n` system.
//! Its own test binary, because obs counters are process-global.

use linsolve::{tarjan_scc, FlowSystem};

type Arcs = &'static [(usize, usize, f64)];

/// If/else joins: acyclic, out-degree 2.
const DIAMOND: Arcs = &[(0, 1, 0.6), (0, 2, 0.4), (1, 3, 1.0), (2, 3, 1.0)];
/// Two-level loop nests (outer header 0, inner header 1, inner body 2),
/// each exiting to the next: one 3-member component per nest.
const NEST: Arcs = &[
    (0, 1, 0.9),
    (1, 2, 0.8),
    (2, 1, 0.9),
    (1, 0, 0.15),
    (0, 3, 0.4),
];

/// Name, group size, the arcs of one group (offsets from its first
/// block), and the largest component the shape may have. The chain is
/// straight-line code falling through with probability 0.95.
const SHAPES: [(&str, usize, Arcs, usize); 3] = [
    ("chain", 1, &[(0, 1, 0.95)], 1),
    ("diamond", 3, DIAMOND, 1),
    ("nested_loops", 3, NEST, 3),
];

fn ladder(n: usize, step: usize, arcs: Arcs) -> FlowSystem {
    let mut sys = FlowSystem::new(n);
    sys.inject(0, 1.0);
    for i in (0..n - step).step_by(step) {
        for &(src, dst, w) in arcs {
            sys.add_arc(i + src, i + dst, w);
        }
    }
    sys
}

#[test]
fn sparse_work_is_ten_times_below_dense() {
    for (shape, step, arcs, max_members) in SHAPES {
        for n in [100, 1_000, 10_000] {
            let sys = ladder(n, step, arcs);
            let mut out_adj = vec![Vec::new(); n];
            for (src, dst, _) in sys.arcs() {
                out_adj[src].push(dst);
            }
            let sccs = tarjan_scc(&out_adj);
            assert!(sccs.iter().all(|c| c.len() <= max_members), "{shape} n={n}");

            // The solve takes exactly that decomposition: a substitution
            // per trivial component, a local elimination per cyclic one.
            obs::reset();
            obs::set_enabled(true);
            let x = sys.solve().expect("flow system solves");
            obs::set_enabled(false);
            let trivial = sccs.iter().filter(|c| c.len() == 1).count() as u64;
            let want = [
                ("linsolve.scc.damped_fallback", 0),
                ("linsolve.scc.dense", sccs.len() as u64 - trivial),
                ("linsolve.scc.trivial", trivial),
                ("linsolve.solves", 1),
            ];
            let counters = obs::snapshot().counters;
            let got: Vec<_> = counters.iter().map(|(k, &v)| (k.as_str(), v)).collect();
            assert_eq!(got, want, "{shape} n={n}");

            // Sparse work: the condensation visits every node and arc,
            // each arc is read again when its target's component is
            // solved, and a component costs 1 if trivial, k³ if k > 1.
            // Dense elimination costs n³, and even where it skips zero
            // multipliers it reads n(n+1)/2 pivot-column entries.
            let k3 = |c: &Vec<usize>| (c.len() as u64).pow(3);
            let sparse = (n + 2 * sys.arcs().count()) as u64 + sccs.iter().map(k3).sum::<u64>();
            let n = n as u64;
            let (dense, pivots) = (n.pow(3), n * (n + 1) / 2);
            eprintln!(
                "{shape:>12} n={n:>5}: sparse {sparse:>6}, n³/sparse {:>8}, pivots/sparse {:>4}",
                dense / sparse,
                pivots / sparse
            );
            if n >= 1_000 {
                assert!(sparse * 10 <= dense, "{shape} n={n}: {sparse} vs n³");
                assert!(sparse * 10 <= pivots, "{shape} n={n}: {sparse} vs pivots");
            }
            if n <= 1_000 {
                let exact = sys.solve_dense().expect("dense solve");
                for (i, (a, b)) in x.iter().zip(&exact).enumerate() {
                    assert!((a - b).abs() <= 1e-9, "{shape} n={n} node {i}: {a} vs {b}");
                }
            }
        }
    }
}
