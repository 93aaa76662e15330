//! The corpus pass: generated programs through the whole per-program
//! pipeline on a pool of at most `nproc` workers, one task per program.
//!
//! Steps per program: parse, sema, CFG build, VM compile, one
//! `execute_in`, the three intra and five inter estimators, and the ten
//! weight-matching columns `sfe corpus` folds. The streaming engine's
//! gate and fold are not used.

use crate::check::outcome_digest;
use crate::trace::Ctx;
use estimators::eval;
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use profiler::{ExecScratch, RunConfig};
use std::cell::RefCell;
use std::time::Instant;

/// One generated program and its run configuration.
pub struct Input {
    /// Rendered MiniC source.
    pub source: String,
    /// `bench::corpus::run_config` of the program's seed.
    pub config: RunConfig,
}

/// `n` programs derived from the workload seed alone.
pub fn inputs(seed: u64, n: usize) -> Vec<Input> {
    (0..n as u64)
        .map(|i| {
            let s = crate::mix(seed, i);
            Input {
                source: fuzzgen::generate(s).render(),
                config: bench::corpus::run_config(s),
            }
        })
        .collect()
}

/// What one program produced.
#[derive(Debug, Clone, Default)]
pub struct ProgramResult {
    /// The ten heuristic columns, in `bench::corpus::HEURISTICS` order.
    pub scores: [f64; 10],
    /// [`outcome_digest`] of the VM run.
    pub digest: u64,
    /// VM steps (0 when the run failed).
    pub steps: u64,
    /// CFG blocks.
    pub blocks: u64,
    /// Wall time of the whole pipeline, milliseconds.
    pub ms: f64,
}

thread_local! {
    /// One VM arena per worker, as the corpus engine keeps.
    static SCRATCH: RefCell<ExecScratch> = RefCell::new(ExecScratch::default());
}

/// One pass over `inputs` on `pool`, results in input order.
pub fn pass(pool: &pool::Pool, inputs: &[Input], ctx: Ctx) -> Vec<ProgramResult> {
    let mut out = vec![ProgramResult::default(); inputs.len()];
    pool.scope(|s| {
        for (slot, input) in out.iter_mut().zip(inputs) {
            s.spawn(move |_| *slot = one(input, ctx));
        }
    });
    out
}

fn one(input: &Input, ctx: Ctx) -> ProgramResult {
    let t0 = Instant::now();
    let unit = ctx
        .span("minic.parse", || minic::parser::parse(&input.source))
        .expect("generated programs parse");
    let module = ctx
        .span("minic.sema", || minic::sema::analyze(&unit))
        .expect("generated programs analyze");
    let program = ctx.span("flowgraph.build", || flowgraph::build_program(&module));
    let cp = ctx.span("profiler.compile", || profiler::compile(&program));
    let run = ctx.span("profiler.execute", || {
        SCRATCH.with(|s| cp.execute_in(&input.config, &mut s.borrow_mut()))
    });
    let digest = outcome_digest(&run);
    let mut result = ProgramResult {
        digest,
        blocks: program.total_blocks() as u64,
        ..ProgramResult::default()
    };
    if let Ok(out) = run {
        result.steps = out.steps;
        result.scores = columns(&program, &[out.profile], ctx);
    }
    result.ms = t0.elapsed().as_secs_f64() * 1e3;
    result
}

/// The ten columns: three intra estimators at 5%, five invocation
/// estimators at 25%, direct and Markov call sites at 25%.
fn columns(program: &flowgraph::Program, profiles: &[profiler::Profile], ctx: Ctx) -> [f64; 10] {
    use IntraEstimator::{Loop, Markov, Smart};
    let intra = ctx.span("estimate.intra", || {
        [Loop, Smart, Markov].map(|w| estimate_program(program, w))
    });
    let inter = ctx.span("estimate.inter", || {
        InterEstimator::ALL.map(|w| estimate_invocations(program, &intra[1], w))
    });
    ctx.span("metric.weight_match", || {
        let mut c = [0.0; 10];
        for (i, e) in intra.iter().enumerate() {
            c[i] = eval::intra_score(program, e, profiles, 0.05);
        }
        for (i, e) in inter.iter().enumerate() {
            c[3 + i] = eval::invocation_score(program, e, profiles, 0.25);
        }
        c[8] = eval::callsite_score(program, &intra[1], &inter[1], profiles, 0.25);
        c[9] = eval::callsite_score(program, &intra[1], &inter[4], profiles, 0.25);
        c
    })
}

/// The AST walker's [`outcome_digest`] per input, on `pool`: the
/// independent check of every VM run.
pub fn walker_digests(pool: &pool::Pool, inputs: &[Input]) -> Vec<u64> {
    let mut out = vec![0; inputs.len()];
    pool.scope(|s| {
        for (slot, input) in out.iter_mut().zip(inputs) {
            s.spawn(move |_| {
                let module = minic::compile(&input.source).expect("generated programs compile");
                let program = flowgraph::build_program(&module);
                *slot = outcome_digest(&profiler::run_ast(&program, &input.config));
            });
        }
    });
    out
}

/// Corpus means of the three Markov columns, in percent.
pub fn accuracy(results: &[ProgramResult]) -> [f64; 3] {
    let n = results.len().max(1) as f64;
    let mean = |i: usize| results.iter().map(|r| r.scores[i]).sum::<f64>() / n * 100.0;
    [mean(2), mean(7), mean(9)]
}
