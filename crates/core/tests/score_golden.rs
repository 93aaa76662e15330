//! Golden digests of the headline scores and the branch predictions.
//!
//! Sharing work between estimators (one prediction table per program,
//! one set of leave-one-out aggregates per scored program) must not
//! move a single bit of output. This test hashes, with FNV-1a over the
//! little-endian bits of each `f64`, all 18 [`ProgramScores`] fields of
//! every suite program, plus one digest of `predict_module` output
//! (sorted by [`BranchId`]: direction, heuristic, `prob_taken` bits)
//! over the suite and the generated programs of fuzz seeds `0..2000`.
//! The result is compared with `score_golden.txt`.

use std::fmt::Write as _;

use estimators::eval::{score_program, ProgramScores};
use estimators::predict_module;

const GOLDEN: &str = include_str!("score_golden.txt");
const FUZZ_SEEDS: u64 = 2000;

/// A 64-bit FNV-1a hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

fn hash_scores(s: &ProgramScores) -> u64 {
    let mut h = Fnv::new();
    for &v in s
        .intra
        .iter()
        .chain(&s.invocation_simple)
        .chain(&s.invocation_markov_10)
        .chain(&s.invocation_markov_25)
        .chain(&s.callsites)
    {
        h.f64(v);
    }
    h.0
}

/// Feeds every prediction of `module`, in branch-id order, into `h`;
/// returns the number of branches.
fn hash_predictions(h: &mut Fnv, module: &minic::sema::Module) -> usize {
    let preds = predict_module(module);
    let mut ids: Vec<_> = preds.keys().copied().collect();
    ids.sort_unstable_by_key(|b| b.0);
    for id in &ids {
        let p = preds[id];
        h.bytes(&id.0.to_le_bytes());
        h.bytes(&[u8::from(p.taken)]);
        h.bytes(format!("{:?}", p.heuristic).as_bytes());
        h.f64(p.prob_taken);
    }
    ids.len()
}

fn actual() -> String {
    let mut out = String::new();
    let mut preds = Fnv::new();
    let mut branches = 0;
    for bench in suite::all() {
        let program = bench.compile().expect("suite program compiles");
        let profiles = bench.profiles(&program).expect("suite program runs");
        let scores = score_program(&program, &profiles);
        writeln!(out, "{} {:016x}", bench.name, hash_scores(&scores)).unwrap();
        branches += hash_predictions(&mut preds, &program.module);
    }
    for seed in 0..FUZZ_SEEDS {
        let module = minic::compile(&fuzzgen::generate(seed).render()).expect("compiles");
        branches += hash_predictions(&mut preds, &module);
    }
    writeln!(
        out,
        "predictions suite+fuzz-0..{FUZZ_SEEDS} {branches} {:016x}",
        preds.0
    )
    .unwrap();
    out
}

#[test]
fn scores_and_predictions_match_golden() {
    let actual = actual();
    assert!(
        actual == GOLDEN,
        "scores or predictions changed; expected\n{GOLDEN}\ngot\n{actual}"
    );
}
