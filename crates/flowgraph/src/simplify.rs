//! CFG clean-up after lowering.
//!
//! Three steps run to a fixpoint:
//!
//! 1. **Jump threading** — edges into empty `Goto`-only blocks are
//!    redirected to their final target.
//! 2. **Unreachable-block removal** — anything not reachable from the
//!    entry disappears (e.g. the exit of a `while (1)` loop, or code
//!    after `return`).
//! 3. **Chain merging** — a block whose only successor has it as its
//!    only predecessor absorbs that successor, producing *maximal*
//!    basic blocks like the paper's gcc-derived CFGs.
//!
//! Chain merging is linear. Absorbing a block changes no other block's
//! predecessor count, so the edges that can merge are fixed before
//! any merge: a `Goto b → t` merges iff `t` is neither `b` nor the
//! entry and `t` has exactly one (distinct) predecessor. These edges
//! link disjoint chains, each starting at a block that no merging edge
//! enters. One counting pass finds them; one forward sweep lets every
//! chain head absorb its chain, moving each tail's instructions,
//! terminator and anchor out (the first anchor along the chain wins);
//! one compaction drops the absorbed blocks. Steps 2 and 3 share that
//! compaction, which keeps the surviving blocks in order, renumbers
//! them densely and moves them — no block is ever cloned.

use std::mem;

use crate::cfg::{BlockId, Cfg, Terminator};

/// Simplifies `cfg`, preserving semantics and anchors.
pub fn simplify(mut cfg: Cfg) -> Cfg {
    let _sp = obs::span("flowgraph.simplify");
    loop {
        let before = cfg.blocks.len();
        thread_jumps(&mut cfg);
        let reachable = reachable(&cfg);
        compact(&mut cfg, &reachable);
        merge_chains(&mut cfg);
        if cfg.blocks.len() == before {
            // The CFG lives as long as its program: drop the spare
            // capacity that lowering's pushes, merging and the in-place
            // compaction left behind.
            cfg.blocks.shrink_to_fit();
            for b in &mut cfg.blocks {
                b.instrs.shrink_to_fit();
            }
            return cfg;
        }
    }
}

/// Follows chains of empty `Goto` blocks to their final target.
fn final_target(cfg: &Cfg, mut b: BlockId) -> BlockId {
    let mut hops = 0;
    loop {
        let blk = cfg.block(b);
        if !blk.instrs.is_empty() {
            return b;
        }
        match blk.term {
            Terminator::Goto(t) if t != b => {
                b = t;
                hops += 1;
                // Guard against Goto cycles of empty blocks.
                if hops > cfg.blocks.len() {
                    return b;
                }
            }
            _ => return b,
        }
    }
}

/// Rewrites every block id a terminator names through `map`.
fn retarget(term: &mut Terminator, map: impl Fn(BlockId) -> BlockId) {
    match term {
        Terminator::Goto(t) => *t = map(*t),
        Terminator::Branch {
            then_blk, else_blk, ..
        } => {
            *then_blk = map(*then_blk);
            *else_blk = map(*else_blk);
        }
        Terminator::Switch { cases, default, .. } => {
            for (_, t) in cases.iter_mut() {
                *t = map(*t);
            }
            *default = map(*default);
        }
        Terminator::Return(_) => {}
    }
}

fn thread_jumps(cfg: &mut Cfg) {
    let target: Vec<BlockId> = (0..cfg.blocks.len())
        .map(|i| final_target(cfg, BlockId(i as u32)))
        .collect();
    cfg.entry = target[cfg.entry.0 as usize];
    for b in &mut cfg.blocks {
        retarget(&mut b.term, |t| target[t.0 as usize]);
    }
}

fn reachable(cfg: &Cfg) -> Vec<bool> {
    let mut reachable = vec![false; cfg.blocks.len()];
    let mut stack = vec![cfg.entry];
    reachable[cfg.entry.0 as usize] = true;
    while let Some(b) = stack.pop() {
        for s in cfg.successors(b) {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    reachable
}

/// Keeps the blocks with `keep[i]` set, in order, renumbered densely.
/// Kept blocks must only name kept blocks.
fn compact(cfg: &mut Cfg, keep: &[bool]) {
    let mut remap = vec![BlockId(u32::MAX); keep.len()];
    let mut next = 0;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = BlockId(next);
            next += 1;
        }
    }
    if next as usize == keep.len() {
        return;
    }
    let map = |b: BlockId| remap[b.0 as usize];
    let blocks = mem::take(&mut cfg.blocks);
    cfg.blocks = blocks
        .into_iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .map(|(mut b, _)| {
            b.id = map(b.id);
            retarget(&mut b.term, map);
            b
        })
        .collect();
    cfg.entry = map(cfg.entry);
}

/// Collapses every chain of mergeable `Goto` edges into its head.
fn merge_chains(cfg: &mut Cfg) {
    let n = cfg.blocks.len();
    let mut preds = vec![0u32; n];
    for i in 0..n {
        for s in cfg.successors(BlockId(i as u32)) {
            preds[s.0 as usize] += 1;
        }
    }
    let entry = cfg.entry;
    let merges = |b: usize, term: &Terminator| match *term {
        Terminator::Goto(t) if t.0 as usize != b && t != entry && preds[t.0 as usize] == 1 => {
            Some(t.0 as usize)
        }
        _ => None,
    };
    // A block that a merging edge enters is absorbed by its chain head.
    let mut keep = vec![true; n];
    for (i, b) in cfg.blocks.iter().enumerate() {
        if let Some(t) = merges(i, &b.term) {
            keep[t] = false;
        }
    }
    for i in (0..n).filter(|&i| keep[i]) {
        while let Some(t) = merges(i, &cfg.blocks[i].term) {
            let tail = &mut cfg.blocks[t];
            let instrs = mem::take(&mut tail.instrs);
            let term = mem::replace(&mut tail.term, Terminator::Return(None));
            let anchor = tail.anchor;
            let head = &mut cfg.blocks[i];
            head.instrs.extend(instrs);
            head.term = term;
            head.anchor = head.anchor.or(anchor);
        }
    }
    compact(cfg, &keep);
}
