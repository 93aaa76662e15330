//! Golden digests of the simplified CFGs.
//!
//! Block ids are observable: profiles, edge keys and the benchmark's
//! reference digests all name blocks by id. So `simplify` must keep
//! producing the same blocks, in the same order, with the same ids,
//! anchors and terminators. This test hashes the `{:?}` rendering of
//! every lowered (and therefore simplified) CFG with FNV-1a — fixed
//! across Rust releases, unlike `DefaultHasher` — and compares the
//! result with `simplify_golden.txt`: one line per suite program and
//! one combined digest over the generated programs of fuzz seeds
//! `0..2000`.

use std::fmt::Write as _;

use flowgraph::Program;

const GOLDEN: &str = include_str!("simplify_golden.txt");
const FUZZ_SEEDS: u64 = 2000;

/// Streams formatted text into a 64-bit FNV-1a hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Feeds every CFG of `program` into `h`; returns the block count.
fn hash_cfgs(h: &mut Fnv, program: &Program) -> usize {
    for cfg in program.cfgs.iter().flatten() {
        write!(h, "{cfg:?}").unwrap();
    }
    program.total_blocks()
}

fn build(src: &str) -> Program {
    let module = minic::compile(src).expect("program compiles");
    flowgraph::build_program(&module)
}

fn actual() -> String {
    let mut out = String::new();
    for p in suite::all() {
        let mut h = Fnv::new();
        let blocks = hash_cfgs(&mut h, &build(p.source));
        writeln!(out, "{} {blocks} {:016x}", p.name, h.0).unwrap();
    }
    let mut h = Fnv::new();
    let mut blocks = 0;
    for seed in 0..FUZZ_SEEDS {
        blocks += hash_cfgs(&mut h, &build(&fuzzgen::generate(seed).render()));
    }
    writeln!(out, "fuzz-0..{FUZZ_SEEDS} {blocks} {:016x}", h.0).unwrap();
    out
}

#[test]
fn simplified_cfgs_match_golden() {
    let actual = actual();
    assert!(
        actual == GOLDEN,
        "simplified CFGs changed; expected\n{GOLDEN}\ngot\n{actual}"
    );
}
