//! Property-based tests over the core invariants:
//!
//! - constant folding agrees with the interpreter on every expression
//!   it folds (the front end's soundness link);
//! - the weight-matching metric is well-behaved (range, perfection,
//!   scale invariance, monotone cutoff behaviour);
//! - the flow-system solver is linear and conserves flow on DAGs.

use proptest::prelude::*;

// ---- expression generation: arithmetic over small ints ----

#[derive(Debug, Clone)]
enum E {
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Neg(Box<E>),
    Not(Box<E>),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Cond(Box<E>, Box<E>, Box<E>),
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::Lit(v) => {
                if *v < 0 {
                    format!("({v})")
                } else {
                    v.to_string()
                }
            }
            E::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            E::Sub(a, b) => format!("({} - {})", a.to_c(), b.to_c()),
            E::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            E::Div(a, b) => format!("({} / {})", a.to_c(), b.to_c()),
            E::Rem(a, b) => format!("({} % {})", a.to_c(), b.to_c()),
            E::Neg(a) => format!("(-{})", a.to_c()),
            E::Not(a) => format!("(!{})", a.to_c()),
            E::Lt(a, b) => format!("({} < {})", a.to_c(), b.to_c()),
            E::Eq(a, b) => format!("({} == {})", a.to_c(), b.to_c()),
            E::And(a, b) => format!("({} && {})", a.to_c(), b.to_c()),
            E::Or(a, b) => format!("({} || {})", a.to_c(), b.to_c()),
            E::Cond(c, t, f) => format!("({} ? {} : {})", c.to_c(), t.to_c(), f.to_c()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = (-20i64..20).prop_map(E::Lit);
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(a.into(), b.into())),
            inner.clone().prop_map(|a| E::Neg(a.into())),
            inner.clone().prop_map(|a| E::Not(a.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Eq(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(a.into(), b.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| E::Cond(
                c.into(),
                t.into(),
                f.into()
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever `fold` computes at compile time, the interpreter must
    /// compute at run time. (Division by zero simply doesn't fold, and
    /// the interpreter traps it — both sides are allowed to bail.)
    #[test]
    fn fold_agrees_with_interpreter(e in arb_expr()) {
        let text = e.to_c();
        let src = format!("int main(void) {{ return (({text}) & 255); }}");
        let module = match minic::compile(&src) {
            Ok(m) => m,
            Err(err) => panic!("generated source failed to compile: {err}\n{src}"),
        };

        // Compile-time value, if it folds.
        let unit = minic::parser::parse(&src).unwrap();
        let minic::ast::Item::Function(f) = &unit.items[0] else { unreachable!() };
        let Some(minic::ast::Stmt { kind: minic::ast::StmtKind::Block(stmts), .. }) = f.body.as_deref() else { unreachable!() };
        let minic::ast::StmtKind::Return(Some(ret)) = &stmts[0].kind else { unreachable!() };
        let folded = minic::fold::fold(ret, &minic::fold::NoEnv);

        let program = flowgraph::build_program(&module);
        let run = profiler::run(&program, &profiler::RunConfig::default());
        match (folded, run) {
            (Some(v), Ok(out)) => {
                let expect = v.as_int().expect("integer expression") ;
                prop_assert_eq!(out.exit_code, expect, "fold vs run for {}", text);
            }
            (Some(_), Err(e)) => {
                prop_assert!(false, "folded but failed to run: {} ({})", text, e);
            }
            (None, _) => {
                // Division by a folded zero: legitimately unfoldable.
            }
        }
    }

    /// Weight matching is always within [0, 1], and a perfect estimate
    /// scores exactly 1.
    #[test]
    fn weight_matching_range_and_perfection(
        values in proptest::collection::vec(0.0f64..100.0, 1..30),
        noise in proptest::collection::vec(0.0f64..100.0, 1..30),
        cutoff in 0.05f64..1.0,
    ) {
        let n = values.len().min(noise.len());
        let actual = &values[..n];
        let est = &noise[..n];
        let s = estimators::weight_matching(est, actual, cutoff);
        prop_assert!((0.0..=1.0).contains(&s), "score {s}");
        let perfect = estimators::weight_matching(actual, actual, cutoff);
        prop_assert!((perfect - 1.0).abs() < 1e-9, "perfect scored {perfect}");
    }

    /// Scaling the estimate (or the actual) by a positive constant
    /// never changes the score: only the ranking matters.
    #[test]
    fn weight_matching_scale_invariant(
        actual in proptest::collection::vec(0.0f64..100.0, 2..20),
        est in proptest::collection::vec(0.0f64..100.0, 2..20),
        scale in 0.01f64..100.0,
        cutoff in 0.05f64..1.0,
    ) {
        let n = actual.len().min(est.len());
        let (actual, est) = (&actual[..n], &est[..n]);
        let s1 = estimators::weight_matching(est, actual, cutoff);
        let scaled: Vec<f64> = est.iter().map(|v| v * scale).collect();
        let s2 = estimators::weight_matching(&scaled, actual, cutoff);
        prop_assert!((s1 - s2).abs() < 1e-9, "{s1} vs {s2}");
    }

    /// On acyclic flow systems, total flow into sinks equals total
    /// injected flow when every node's out-probabilities sum to 1.
    #[test]
    fn flow_conservation_on_chains(
        probs in proptest::collection::vec(0.01f64..0.99, 1..10),
    ) {
        // Build a chain: node i branches to i+1 (p) and a sink (1-p).
        // Nodes: 0..n are chain nodes, n+1.. are sinks per stage, plus
        // a final sink for the chain end.
        let n = probs.len();
        let mut sys = linsolve::FlowSystem::new(2 * n + 2);
        sys.inject(0, 1.0);
        for (i, &p) in probs.iter().enumerate() {
            sys.add_arc(i, i + 1, p);
            sys.add_arc(i, n + 1 + i, 1.0 - p);
        }
        sys.add_arc(n, 2 * n + 1, 1.0);
        let x = sys.solve().unwrap();
        let sink_total: f64 = x[n + 1..].iter().sum();
        prop_assert!((sink_total - 1.0).abs() < 1e-9, "sinks got {sink_total}");
    }

    /// The sparse SCC-aware solver agrees with the dense Gaussian
    /// oracle on random well-conditioned flow systems: arbitrary arcs
    /// (cycles included) whose weights keep every component's spectral
    /// radius below 1, so both paths take their direct branch.
    #[test]
    fn sparse_solver_matches_dense_oracle(
        n in 2usize..24,
        raw_arcs in proptest::collection::vec(
            (0usize..24, 0usize..24, 0.05f64..0.9), 1..60),
        entry_weight in 0.5f64..2.0,
    ) {
        let mut sys = linsolve::FlowSystem::new(n);
        sys.inject(0, entry_weight);
        // Cap total outgoing weight per source at 0.95 so `I − Wᵀ` is
        // strictly diagonally dominant — well-conditioned by
        // construction, whatever the topology.
        let mut out_total = vec![0.0f64; n];
        for (src, dst, w) in raw_arcs {
            let (src, dst) = (src % n, dst % n);
            let w = w.min(0.95 - out_total[src]);
            if w <= 0.0 {
                continue;
            }
            out_total[src] += w;
            sys.add_arc(src, dst, w);
        }
        let sparse = sys.solve().unwrap();
        let dense = sys.solve_dense().unwrap();
        for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-9,
                "node {}: sparse {} vs dense {}", i, a, b
            );
        }
    }

    /// The solver is linear: doubling the injection doubles everything.
    #[test]
    fn flow_linearity(
        weights in proptest::collection::vec(0.05f64..0.95, 1..8),
    ) {
        let n = weights.len() + 1;
        let mk = |amount: f64| {
            let mut sys = linsolve::FlowSystem::new(n);
            sys.inject(0, amount);
            for (i, &w) in weights.iter().enumerate() {
                sys.add_arc(i, i + 1, w);
                if i > 0 {
                    sys.add_arc(i, i - 1, (1.0 - w) * 0.3);
                }
            }
            sys.solve().unwrap()
        };
        let x1 = mk(1.0);
        let x2 = mk(2.0);
        for (a, b) in x1.iter().zip(&x2) {
            prop_assert!((2.0 * a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
