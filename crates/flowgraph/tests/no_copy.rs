//! The front end never deep-copies a function body or the side tables.
//!
//! The parser allocates each body once; sema and [`flowgraph::Program`]
//! share it (and the module's side tables) by `Arc`. A stray deep copy
//! would cost time on every program without changing any output, so
//! this test pins the sharing down by pointer identity.

use std::sync::Arc;

use minic::ast::Item;

fn assert_shared(src: &str) {
    let unit = minic::parser::parse(src).expect("program parses");
    let module = minic::sema::analyze(&unit).expect("program analyzes");
    let program = flowgraph::build_program(&module);
    assert!(Arc::ptr_eq(&module.side, &program.module.side));
    let mut defined = 0;
    for item in &unit.items {
        let Item::Function(decl) = item else { continue };
        let Some(parsed) = &decl.body else { continue };
        let id = module.function_id(&decl.name).expect("function is known");
        let name = &decl.name;
        let analyzed = &module.function(id).body;
        let lowered = &program.module.function(id).body;
        let shared = |body: &Option<Arc<_>>| body.as_ref().is_some_and(|b| Arc::ptr_eq(parsed, b));
        assert!(shared(analyzed), "sema copied `{name}`");
        assert!(shared(lowered), "Program copied `{name}`");
        defined += 1;
    }
    assert_eq!(defined, program.defined_ids().len());
}

#[test]
fn suite_bodies_and_side_tables_are_shared() {
    for p in suite::all() {
        assert_shared(p.source);
    }
}

#[test]
fn generated_bodies_and_side_tables_are_shared() {
    for seed in 0..50 {
        assert_shared(&fuzzgen::generate(seed).render());
    }
}
