//! Estimator-guided optimizing backend for the bytecode VM.
//!
//! The paper's Fig 10 experiment recompiles a program's functions in
//! estimated-hotness order and measures the speedup after each
//! increment. This crate is the "recompile" half: it lifts compiled
//! bytecode into a chunk IR ([`ir`]), runs a classic scalar pipeline
//! over the functions selected by an [`OptPlan`] — inlining, constant
//! folding and branch simplification, dead-code elimination,
//! superinstruction fusion and mining, hot-path layout ([`passes`],
//! [`inline`]) — and recosts the result under a dispatch-cost model so
//! the VM's `steps` counter measures what the optimizer saved.
//!
//! The contract with the unoptimized program is exact: byte-identical
//! output, exit state, and *count* profile counters (blocks, edges,
//! branches, call sites, function entries). Only `steps` and
//! `func_cost` — the quantities being optimized — change. The fuzzer's
//! differential oracle holds every optimized program to that contract.
//!
//! Pass order: inline → fold → dce → fuse → mine → layout → recost →
//! lower. One private stage table fixes the order and the levels each
//! stage runs at; [`optimize`], [`stage_snapshots`] and
//! [`digram_stats`] all walk it. Inlining first exposes the callee
//! body to the caller's folding; layout runs before recost so dropped
//! fallthrough jumps are never charged; recost runs last over the
//! final op sequence.

#![warn(missing_docs)]

pub mod alias;
pub mod inline;
pub mod ir;
pub mod ops_info;
pub mod passes;

use ir::FuncIr;
use profiler::bytecode::{CompiledProgram, NONE32};
use std::ops::RangeInclusive;

/// Version of the pass pipeline, part of every optimized-artifact
/// cache key: bump when a pass changes observable shape or costs.
/// Version 2: alias-admitted inlining, multi-level inlining, mined
/// superinstructions, cross-function hot packing.
pub const PASS_PIPELINE_VERSION: u32 = 2;

/// What to optimize and how hard — produced by a ranking provider
/// (static estimates, measured profiles, or the held-out oracle).
#[derive(Debug, Clone)]
pub struct OptPlan {
    /// Optimization level: 0 = identity, 1 = fold + branch
    /// simplification + DCE + fallthrough-jump removal + recost,
    /// 2 = + superinstruction fusion and mining + hot-path layout,
    /// 3 = + inlining.
    pub level: u8,
    /// Per-`FuncId` budget membership: only these functions are
    /// transformed (the rest are relocated verbatim).
    pub budgeted: Vec<bool>,
    /// Per-function, per-block execution frequencies (estimated or
    /// measured, whole-run scale). Empty vectors mean "unknown".
    pub block_freqs: Vec<Vec<f64>>,
    /// Per-call-site execution frequencies, indexed by `CallSiteId`.
    pub site_freqs: Vec<f64>,
    /// Global code-growth budget for inlining, in ops.
    pub inline_budget: u32,
}

impl OptPlan {
    /// A plan that optimizes every defined function at `level`, with
    /// no frequency information (all chunks equally hot).
    pub fn full(cp: &CompiledProgram, level: u8) -> OptPlan {
        OptPlan {
            level,
            budgeted: cp.funcs.iter().map(|f| f.entry != NONE32).collect(),
            block_freqs: vec![Vec::new(); cp.funcs.len()],
            site_freqs: vec![0.0; cp.n_sites],
            inline_budget: default_inline_budget(cp),
        }
    }
}

/// The default global inlining budget: a quarter of the program's
/// original code size.
pub fn default_inline_budget(cp: &CompiledProgram) -> u32 {
    (cp.ops.len() / 4) as u32
}

/// Per-pass work counters for one [`optimize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Call sites inlined.
    pub inlined_calls: u64,
    /// Constants folded and branches statically resolved.
    pub folded: u64,
    /// Unreachable chunks dropped.
    pub dce_blocks: u64,
    /// Dead register writes deleted.
    pub dce_ops: u64,
    /// Superinstruction pairs fused (emitter-pair patterns).
    pub fused: u64,
    /// Mined superinstruction pairs fused (frequency-harvested
    /// digram patterns).
    pub mined: u64,
}

impl OptStats {
    /// Every counter with its obs counter name (`opt.<field>`), in
    /// declaration order — the one list that [`optimize`]'s telemetry
    /// and reports iterate.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("opt.inlined_calls", self.inlined_calls),
            ("opt.folded", self.folded),
            ("opt.dce_blocks", self.dce_blocks),
            ("opt.dce_ops", self.dce_ops),
            ("opt.fused", self.fused),
            ("opt.mined", self.mined),
        ]
    }
}

/// One pipeline stage: a pass applied to every lifted function (or,
/// for inlining, across them), run at the plan levels in `levels`.
struct Stage {
    name: &'static str,
    levels: RangeInclusive<u8>,
    run: fn(&CompiledProgram, &OptPlan, &mut [Option<FuncIr>], &mut OptStats),
}

/// The pass pipeline, in order: the single source of which stages run
/// at which level. Inlining first exposes callee bodies to the
/// caller's folding; `fuse` precedes `mine` because `mine`'s
/// `LoadIdxLR` pattern consumes the `LoadIdx` that `fuse` produces.
/// Recost and lowering follow the last stage (see [`lower`]).
const STAGES: &[Stage] = &[
    Stage {
        name: "inline",
        levels: 3..=u8::MAX,
        run: |cp, plan, irs, stats| stats.inlined_calls += run_inliner(cp, plan, irs),
    },
    Stage {
        name: "fold",
        levels: 1..=u8::MAX,
        run: |cp, _, irs, stats| stats.folded += each(irs, |f_ir| passes::fold(f_ir, cp)),
    },
    Stage {
        name: "dce",
        levels: 1..=u8::MAX,
        run: |_, _, irs, stats| {
            for f_ir in irs.iter_mut().flatten() {
                let (blocks, ops) = passes::dce(f_ir);
                stats.dce_blocks += blocks;
                stats.dce_ops += ops;
            }
        },
    },
    Stage {
        name: "fuse",
        levels: 2..=u8::MAX,
        run: |_, _, irs, stats| stats.fused += each(irs, passes::fuse),
    },
    Stage {
        name: "mine",
        levels: 2..=u8::MAX,
        run: |_, _, irs, stats| stats.mined += each(irs, passes::mine),
    },
    // Level 1 keeps program chunk order and only drops fallthrough
    // jumps; level 2 and up lay out hot paths first.
    Stage {
        name: "layout",
        levels: 1..=1,
        run: |_, _, irs, _| irs.iter_mut().flatten().for_each(ir::drop_redundant_jumps),
    },
    Stage {
        name: "layout",
        levels: 2..=u8::MAX,
        run: |_, _, irs, _| irs.iter_mut().flatten().for_each(passes::layout),
    },
];

/// Runs a counting pass over every lifted function; returns the sum.
fn each(irs: &mut [Option<FuncIr>], pass: impl FnMut(&mut FuncIr) -> u64) -> u64 {
    irs.iter_mut().flatten().map(pass).sum()
}

/// Optimizes `cp` according to `plan`, returning the rewritten
/// program and what each pass did. The input is never mutated; at
/// level 0 (or an empty budget) the result is a verbatim clone.
pub fn optimize(cp: &CompiledProgram, plan: &OptPlan) -> (CompiledProgram, OptStats) {
    let _sp = obs::span("opt.optimize");
    let Some((irs, stats)) = run_stages(cp, plan, |_, _| {}) else {
        return (cp.clone(), OptStats::default());
    };
    let out = lower(cp, plan, irs, true);
    for (name, n) in stats.fields() {
        obs::counter_add(name, n);
    }
    (out, stats)
}

/// Lifts the functions `plan` budgets — those with a body — with the
/// plan's block frequencies; the rest stay `None` (copied verbatim at
/// lowering).
fn lift(cp: &CompiledProgram, plan: &OptPlan) -> Vec<Option<FuncIr>> {
    (0..cp.funcs.len())
        .map(|f| {
            let meta = &cp.funcs[f];
            let budgeted = plan.budgeted.get(f).copied().unwrap_or(false)
                && meta.entry != NONE32
                && meta.code.1 > meta.code.0;
            budgeted.then(|| {
                let freqs = plan.block_freqs.get(f).map(Vec::as_slice).unwrap_or(&[]);
                ir::lift(cp, f, freqs)
            })
        })
        .collect()
}

/// The pipeline driver: lifts once, then runs each [`STAGES`] entry
/// enabled at the plan's level across all functions, handing
/// `after_stage` the stage's name and the IR it left. `None` means the
/// plan is an identity transform.
fn run_stages(
    cp: &CompiledProgram,
    plan: &OptPlan,
    mut after_stage: impl FnMut(&'static str, &[Option<FuncIr>]),
) -> Option<(Vec<Option<FuncIr>>, OptStats)> {
    let mut irs = (plan.level > 0)
        .then(|| lift(cp, plan))
        .filter(|irs| irs.iter().any(Option::is_some))?;
    let mut stats = OptStats::default();
    for stage in STAGES.iter().filter(|s| s.levels.contains(&plan.level)) {
        (stage.run)(cp, plan, &mut irs, &mut stats);
        after_stage(stage.name, &irs);
    }
    Some((irs, stats))
}

/// Recosts every transformed function over its final op sequence and
/// lowers the program. With `pack` at level 2 and up, function bodies
/// are emitted hottest first (cross-function hot packing: bytecode
/// locality; `FuncId` indexing is unaffected). Heat is the plan's
/// whole-run block-frequency mass; functions without frequency
/// information keep their relative program order at the back.
fn lower(
    cp: &CompiledProgram,
    plan: &OptPlan,
    mut irs: Vec<Option<FuncIr>>,
    pack: bool,
) -> CompiledProgram {
    for f_ir in irs.iter_mut().flatten() {
        passes::recost(f_ir);
    }
    let mut order: Vec<usize> = (0..cp.funcs.len()).collect();
    if pack && plan.level >= 2 {
        let heat = |f: usize| {
            plan.block_freqs
                .get(f)
                .map_or(0.0, |b| b.iter().sum::<f64>())
        };
        order.sort_by(|&a, &b| heat(b).total_cmp(&heat(a)).then(a.cmp(&b)));
    }
    ir::lower(cp, &irs, &order)
}

/// Lowered, executable snapshots after each pipeline stage, for
/// per-pass step attribution (the bench trajectory's `opt/v2` rows).
///
/// Stages are applied cumulatively — each snapshot includes every
/// stage before it — by the same driver as [`optimize`]. The final
/// snapshot is [`optimize`]'s output, and the only one lowered with
/// hot functions packed first. Stages the plan's level disables are
/// simply absent. Every snapshot is recosted, so step deltas between
/// consecutive snapshots attribute saved VM steps to exactly one pass.
pub fn stage_snapshots(
    cp: &CompiledProgram,
    plan: &OptPlan,
) -> Vec<(&'static str, CompiledProgram)> {
    let mut staged = Vec::new();
    run_stages(cp, plan, |name, irs| staged.push((name, irs.to_vec())));
    let n = staged.len();
    staged
        .into_iter()
        .enumerate()
        .map(|(i, (name, irs))| (name, lower(cp, plan, irs, i + 1 == n)))
        .collect()
}

/// Frequency-weighted adjacent-op digram statistics over the
/// post-pass IR (pre-recost), aggregated across budgeted functions —
/// the data the superinstruction miner ranks, exposed for reports.
/// Keys are `"A+B"` variant-name pairs, hottest first.
pub fn digram_stats(cp: &CompiledProgram, plan: &OptPlan) -> Vec<(String, f64)> {
    use std::collections::HashMap;
    let Some((irs, _)) = run_stages(cp, plan, |_, _| {}) else {
        return Vec::new();
    };
    let mut acc: HashMap<String, f64> = HashMap::new();
    for f_ir in irs.iter().flatten() {
        for chunk in f_ir.chunks.iter().filter(|c| !c.dead) {
            for w in chunk.ops.windows(2) {
                if ops_info::is_zero_cost(&w[0]) || ops_info::is_zero_cost(&w[1]) {
                    continue;
                }
                let name = |op: &profiler::bytecode::Op| {
                    let full = format!("{op:?}");
                    full.split([' ', '{', '('])
                        .next()
                        .unwrap_or_default()
                        .to_string()
                };
                *acc.entry(format!("{}+{}", name(&w[0]), name(&w[1])))
                    .or_default() += chunk.freq;
            }
        }
    }
    let mut out: Vec<(String, f64)> = acc.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Lift + lower with no passes: the optimizer's machinery shakedown.
/// The result must behave identically to `cp` *including* steps and
/// profiles (the only difference is zero-tick fallthrough jumps and
/// relocation).
pub fn roundtrip(cp: &CompiledProgram) -> CompiledProgram {
    let irs = lift(cp, &OptPlan::full(cp, 0));
    ir::lower(cp, &irs, &(0..cp.funcs.len()).collect::<Vec<_>>())
}

/// Depth bound for multi-level inlining: call sites exposed by a
/// splice can themselves be inlined, at most this many levels deep.
const MAX_INLINE_DEPTH: usize = 4;

/// Global hottest-first inlining over every budgeted function, bounded
/// by the plan's code-growth budget, iterated to a fixed point: every
/// splice re-enters the callee body's own call sites as candidates
/// (with frequencies rescaled to this instance's share), so hot call
/// chains collapse level by level until the budget runs out or no
/// admissible site remains. An ancestor-chain check plus the depth
/// bound keeps (mutual) recursion from cycling; the monotonically
/// shrinking budget guarantees termination regardless.
fn run_inliner(cp: &CompiledProgram, plan: &OptPlan, irs: &mut [Option<FuncIr>]) -> u64 {
    struct Cand {
        fid: usize,
        site: ir::CallSite,
        freq: f64,
        /// Callee fids of the splices that exposed this site —
        /// inlining a callee already on the chain would cycle.
        path: Vec<u32>,
        done: bool,
    }
    let site_freq = |site: &ir::CallSite| {
        if site.site == NONE32 {
            0.0
        } else {
            plan.site_freqs
                .get(site.site as usize)
                .copied()
                .unwrap_or(0.0)
        }
    };
    let mut cands = Vec::new();
    for (fid, f_ir) in irs.iter().enumerate() {
        let Some(f_ir) = f_ir else { continue };
        for site in &f_ir.call_sites {
            cands.push(Cand {
                fid,
                site: *site,
                freq: site_freq(site),
                path: Vec::new(),
                done: false,
            });
        }
    }

    let mut budget = plan.inline_budget as i64;
    let mut inlined = 0;
    // Hottest remaining site first, across rounds: freshly exposed
    // sites compete with the original ones on equal footing.
    while let Some(i) = {
        // First among equals, so zero-frequency plans (no profile
        // information) fall back to stable program order.
        let mut best: Option<usize> = None;
        for (j, c) in cands.iter().enumerate() {
            if !c.done && best.is_none_or(|b| c.freq > cands[b].freq) {
                best = Some(j);
            }
        }
        best
    } {
        cands[i].done = true;
        let (fid, site) = (cands[i].fid, cands[i].site);
        if cands[i].path.len() >= MAX_INLINE_DEPTH || cands[i].path.contains(&site.callee) {
            continue;
        }
        let f_ir = irs[fid].as_mut().expect("candidate from a budgeted fn");
        if !inline::can_inline(cp, f_ir, &site) {
            continue;
        }
        if inline::growth_estimate(cp, &site) as i64 > budget {
            continue;
        }
        let callee_freqs = plan
            .block_freqs
            .get(site.callee as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let spliced = inline::inline_site(f_ir, cp, &site, callee_freqs);
        budget -= spliced.growth as i64;
        inlined += 1;
        // Candidates in the calling chunk after the call moved into
        // the continuation chunk; retarget their coordinates.
        for later in cands.iter_mut().filter(|c| !c.done) {
            if later.fid == fid && later.site.chunk == site.chunk && later.site.idx > site.idx {
                later.site.chunk = spliced.post_chunk;
                later.site.idx -= site.idx + 1;
            }
        }
        // The spliced body's call sites become candidates one level
        // deeper, ranked by the heat of the chunk they landed in.
        let mut path = cands[i].path.clone();
        path.push(site.callee);
        let f_ir = irs[fid].as_ref().expect("just spliced into it");
        for s in spliced.new_sites {
            cands.push(Cand {
                fid,
                site: s,
                freq: site_freq(&s).min(f_ir.chunks[s.chunk as usize].freq),
                path: path.clone(),
                done: false,
            });
        }
    }
    inlined
}
