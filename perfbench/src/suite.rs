//! The suite passes: the 14 Table-1 programs on all their standard
//! inputs (56 runs), followed by `eval::score_program` per program.
//!
//! [`product_pass`] is what `sfe suite` and `sfe --opt-level 3 suite`
//! do. [`traced_pass`] does the same work by calling each layer's
//! public function itself, with a span around every call.

use crate::check::{counts_digest, RefRow, Reference};
use crate::trace::Ctx;
use cache::codec::Artifact;
use cache::{ArtifactKey, ArtifactKind, BytecodeMeta, Cache};
use estimators::eval::{self, ProgramScores};
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use flowgraph::Program;
use profiler::{CompiledProgram, Profile, RunConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use suite::BenchProgram;

/// The optimization level of the `o3` pass.
const OPT_LEVEL: u8 = 3;

/// Which pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fresh artifact cache: every input executes.
    Cold,
    /// The cache a cold pass filled: nothing executes.
    Warm,
    /// `-O3` with the static plan and full budget, fresh cache.
    O3,
}

impl Mode {
    /// The pass name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Cold => "cold",
            Mode::Warm => "warm",
            Mode::O3 => "o3",
        }
    }
}

/// Profiles and scores of one pass, in Table 1 order.
pub struct Pass {
    /// Per program, one profile per standard input.
    pub profiles: Vec<Vec<Profile>>,
    /// Per program, [`eval::score_program`].
    pub scores: Vec<ProgramScores>,
}

/// One pass through the product path, on the cache at `cache_dir`.
///
/// # Panics
///
/// If the cache directory cannot be opened, or a suite program fails
/// to compile or run (the product path panics the same way).
pub fn product_pass(mode: Mode, cache_dir: &Path) -> Pass {
    let cache = Cache::open(cache_dir).expect("benchmark cache directory opens");
    let data = match mode {
        Mode::O3 => bench::load_suite_opt(pool::global(), Some(&cache), OPT_LEVEL),
        Mode::Cold | Mode::Warm => bench::load_suite_with(pool::global(), Some(&cache)),
    };
    let scores = data
        .iter()
        .map(|d| eval::score_program(&d.program, &d.profiles))
        .collect();
    Pass {
        profiles: data.into_iter().map(|d| d.profiles).collect(),
        scores,
    }
}

/// Checks every profile's count counters against the reference — for
/// the `o3` pass too, since the optimizer must not change a count.
/// Returns `(attempted, failed)`.
pub fn check_profiles(profiles: &[Vec<Profile>], reference: &Reference) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (b, ps) in suite::all().iter().zip(profiles) {
        for (i, p) in ps.iter().enumerate() {
            attempted += 1;
            let want = reference
                .get(&(b.name.to_string(), i))
                .map(|r| r.counts_fnv);
            if want != Some(counts_digest(p)) {
                failed += 1;
            }
        }
    }
    (attempted, failed)
}

/// Suite means of the three Markov weight-matching scores, in percent:
/// intra at 5% (Fig 4), invocation at 25% (Fig 5c), call-site at 25%
/// (Fig 9).
pub fn accuracy(scores: &[ProgramScores]) -> [f64; 3] {
    let n = scores.len().max(1) as f64;
    let mean = |f: fn(&ProgramScores) -> f64| scores.iter().map(f).sum::<f64>() / n * 100.0;
    [
        mean(|s| s.intra[2]),
        mean(|s| s.invocation_markov_25[1]),
        mean(|s| s.callsites[1]),
    ]
}

/// Exact counts of one traced pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PassCounts {
    /// VM steps over every run that executed.
    pub steps: u64,
    /// Ops in the compiled images before optimization (`o3` only).
    pub ops_before: u64,
    /// Ops after optimization (`o3` only).
    pub ops_after: u64,
    /// Summed [`opt::OptStats`] (`o3` only).
    pub opt: opt::OptStats,
    /// CFG blocks over the 14 programs.
    pub blocks: u64,
    /// Cache lookups that returned an entry.
    pub cache_hits: u64,
    /// Cache lookups that returned nothing.
    pub cache_misses: u64,
}

/// What a traced pass produced.
pub struct TracedPass {
    /// Same shape as [`Pass::scores`]; must be bit-identical to it.
    pub scores: Vec<ProgramScores>,
    /// Exact counts.
    pub counts: PassCounts,
    /// (program, input) results checked against the reference.
    pub attempted: u64,
    /// Of those, mismatches.
    pub failed: u64,
}

#[derive(Default)]
struct Tally {
    steps: AtomicU64,
    ops_before: AtomicU64,
    ops_after: AtomicU64,
    inlined_calls: AtomicU64,
    folded: AtomicU64,
    dce_blocks: AtomicU64,
    dce_ops: AtomicU64,
    fused: AtomicU64,
    mined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Tally {
    fn lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Relaxed);
        } else {
            self.misses.fetch_add(1, Relaxed);
        }
    }
}

/// One input's profile, and the run's reference row when it executed.
struct Run {
    profile: Profile,
    executed: Option<RefRow>,
}

/// [`product_pass`] with every layer call timed: parse, sema, CFG
/// build, VM compile, plan and optimize (`o3`), cache lookups and
/// stores, VM execute, the intra and inter estimators, and weight
/// matching. Same task shape as the product path: one pool task per
/// program, one per input.
///
/// # Panics
///
/// As [`product_pass`].
pub fn traced_pass(mode: Mode, cache_dir: &Path, ctx: Ctx, reference: &Reference) -> TracedPass {
    let cache = Cache::open(cache_dir).expect("benchmark cache directory opens");
    let benches = suite::all();
    struct Slot {
        program: Option<Program>,
        runs: Vec<Option<Run>>,
    }
    let mut slots: Vec<Slot> = benches
        .iter()
        .map(|b| Slot {
            program: None,
            runs: b.inputs().iter().map(|_| None).collect(),
        })
        .collect();
    let tally = Tally::default();
    pool::global().scope(|s| {
        for (&bench, slot) in benches.iter().zip(slots.iter_mut()) {
            let (cache, tally) = (&cache, &tally);
            s.spawn(move |s| {
                let Slot { program, runs } = slot;
                let prog = compile(bench, ctx);
                let cp = ctx.span("profiler.compile", || profiler::compile(&prog));
                let image = if mode == Mode::O3 {
                    optimize(&prog, cp, ctx, tally)
                } else {
                    store_bytecode_meta(bench, &cp, cache, ctx, tally);
                    cp
                };
                let image = Arc::new(image);
                *program = Some(prog);
                for (run, input) in runs.iter_mut().zip(bench.inputs()) {
                    let image = Arc::clone(&image);
                    s.spawn(move |_| {
                        *run = Some(profile_one(bench, mode, &image, input, cache, ctx, tally));
                    });
                }
            });
        }
    });
    drop(cache);

    let mut out = TracedPass {
        scores: Vec::new(),
        counts: PassCounts::default(),
        attempted: 0,
        failed: 0,
    };
    for (b, slot) in benches.iter().zip(slots) {
        let program = slot.program.expect("compile task filled its slot");
        let mut profiles = Vec::new();
        for (i, run) in slot.runs.into_iter().enumerate() {
            let run = run.expect("input task filled its slot");
            let want = &reference[&(b.name.to_string(), i)];
            let ok = match &run.executed {
                // Unoptimized runs match the walker exactly; optimized
                // ones in everything but the step count.
                Some(got) if mode == Mode::O3 => {
                    RefRow {
                        steps: want.steps,
                        ..got.clone()
                    } == *want
                }
                Some(got) => got == want,
                None => counts_digest(&run.profile) == want.counts_fnv,
            };
            out.attempted += 1;
            out.failed += u64::from(!ok);
            profiles.push(run.profile);
        }
        out.counts.blocks += program.total_blocks() as u64;
        out.scores.push(scores(&program, &profiles, ctx));
    }
    let get = |a: &AtomicU64| a.load(Relaxed);
    out.counts.steps = get(&tally.steps);
    out.counts.ops_before = get(&tally.ops_before);
    out.counts.ops_after = get(&tally.ops_after);
    out.counts.opt = opt::OptStats {
        inlined_calls: get(&tally.inlined_calls),
        folded: get(&tally.folded),
        dce_blocks: get(&tally.dce_blocks),
        dce_ops: get(&tally.dce_ops),
        fused: get(&tally.fused),
        mined: get(&tally.mined),
    };
    out.counts.cache_hits = get(&tally.hits);
    out.counts.cache_misses = get(&tally.misses);
    out
}

/// Parse, sema and CFG construction, each timed.
fn compile(bench: BenchProgram, ctx: Ctx) -> Program {
    let unit = ctx
        .span("minic.parse", || minic::parser::parse(bench.source))
        .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)));
    let module = ctx
        .span("minic.sema", || minic::sema::analyze(&unit))
        .unwrap_or_else(|e| panic!("{}: {}", bench.name, e.render(bench.source)));
    ctx.span("flowgraph.build", || flowgraph::build_program(&module))
}

/// The `o3` image: static-ranking plan at full budget, then optimize.
fn optimize(prog: &Program, cp: CompiledProgram, ctx: Ctx, tally: &Tally) -> CompiledProgram {
    let plan = ctx.span("opt.plan", || {
        let ranking = estimators::ranking::StaticRanking::new(prog);
        bench::plan_from_ranking(&ranking, &cp, OPT_LEVEL, cp.funcs.len())
    });
    let (optimized, stats) = ctx.span("opt.optimize", || opt::optimize(&cp, &plan));
    tally.ops_before.fetch_add(cp.image_stats().0, Relaxed);
    tally
        .ops_after
        .fetch_add(optimized.image_stats().0, Relaxed);
    tally.inlined_calls.fetch_add(stats.inlined_calls, Relaxed);
    tally.folded.fetch_add(stats.folded, Relaxed);
    tally.dce_blocks.fetch_add(stats.dce_blocks, Relaxed);
    tally.dce_ops.fetch_add(stats.dce_ops, Relaxed);
    tally.fused.fetch_add(stats.fused, Relaxed);
    tally.mined.fetch_add(stats.mined, Relaxed);
    optimized
}

/// The bytecode-meta cache entry the product path records per program.
fn store_bytecode_meta(
    bench: BenchProgram,
    cp: &CompiledProgram,
    cache: &Cache,
    ctx: Ctx,
    tally: &Tally,
) {
    let key = ArtifactKey::derive(
        ArtifactKind::BytecodeMeta,
        bench.source,
        &RunConfig::default(),
    );
    let hit = ctx.span("cache.load", || cache.load(key)).is_some();
    tally.lookup(hit);
    if hit {
        return;
    }
    let (n_ops, n_funcs, n_blocks, data_words) = cp.image_stats();
    let meta = Artifact::BytecodeMeta(BytecodeMeta {
        n_ops,
        n_funcs,
        n_blocks,
        data_words,
    });
    ctx.span("cache.store", || cache.store(key, &meta));
}

/// One input: cache lookup, else execute and write through.
fn profile_one(
    bench: BenchProgram,
    mode: Mode,
    image: &CompiledProgram,
    input: Vec<u8>,
    cache: &Cache,
    ctx: Ctx,
    tally: &Tally,
) -> Run {
    let config = RunConfig::with_input(input);
    let key = match mode {
        Mode::O3 => {
            ArtifactKey::derive_opt(bench.source, &config, OPT_LEVEL, opt::PASS_PIPELINE_VERSION)
        }
        Mode::Cold | Mode::Warm => {
            ArtifactKey::derive(ArtifactKind::Profile, bench.source, &config)
        }
    };
    let hit = ctx.span("cache.load", || match mode {
        Mode::O3 => cache.load_opt_profile(key),
        Mode::Cold | Mode::Warm => cache.load_profile(key),
    });
    tally.lookup(hit.is_some());
    if let Some(profile) = hit {
        return Run {
            profile,
            executed: None,
        };
    }
    let out = ctx
        .tagged("profiler.execute", bench.name, || image.execute(&config))
        .unwrap_or_else(|e| panic!("{}: runtime error: {e}", bench.name));
    ctx.span("cache.store", || {
        let artifact = match mode {
            Mode::O3 => Artifact::OptProfile(out.profile.clone()),
            Mode::Cold | Mode::Warm => Artifact::Profile(out.profile.clone()),
        };
        cache.store(key, &artifact);
    });
    tally.steps.fetch_add(out.steps, Relaxed);
    let executed = Some(RefRow::of(&out));
    Run {
        profile: out.profile,
        executed,
    }
}

/// [`eval::score_program`], split into its estimator and weight-matching
/// layers.
fn scores(program: &Program, profiles: &[Profile], ctx: Ctx) -> ProgramScores {
    use IntraEstimator::{Loop, Markov, Smart};
    let [ia_loop, ia_smart, ia_markov] = ctx.span("estimate.intra", || {
        [Loop, Smart, Markov].map(|w| estimate_program(program, w))
    });
    let [ie_callsite, ie_direct, ie_allrec, ie_allrec2, ie_markov] = ctx
        .span("estimate.inter", || {
            InterEstimator::ALL.map(|w| estimate_invocations(program, &ia_smart, w))
        });
    ctx.span("metric.weight_match", || {
        let intra = |e| eval::intra_score(program, e, profiles, 0.05);
        let inv = |e, c| eval::invocation_score(program, e, profiles, c);
        let inv_profile = |c| eval::invocation_score_profile_predictor(program, profiles, c);
        let cs = |e| eval::callsite_score(program, &ia_smart, e, profiles, 0.25);
        ProgramScores {
            intra: [
                intra(&ia_loop),
                intra(&ia_smart),
                intra(&ia_markov),
                eval::intra_score_profile_predictor(program, profiles, 0.05),
            ],
            invocation_simple: [
                inv(&ie_callsite, 0.25),
                inv(&ie_direct, 0.25),
                inv(&ie_allrec, 0.25),
                inv(&ie_allrec2, 0.25),
                inv_profile(0.25),
            ],
            invocation_markov_10: [
                inv(&ie_direct, 0.10),
                inv(&ie_markov, 0.10),
                inv_profile(0.10),
            ],
            invocation_markov_25: [
                inv(&ie_direct, 0.25),
                inv(&ie_markov, 0.25),
                inv_profile(0.25),
            ],
            callsites: [
                cs(&ie_direct),
                cs(&ie_markov),
                eval::callsite_score_profile_predictor(program, profiles, 0.25),
            ],
        }
    })
}
