//! Output digests and the suite reference outputs.
//!
//! The reference comes from `profiler::run_ast`, the AST walker that is
//! the bytecode VM's independent oracle. It is generated once with
//! `perfbench --write-reference` and kept in `reference/suite.tsv`:
//! one row per (program, input) with the exit code, the stdout length
//! and digest, the digest of every count counter of the profile, and
//! the step count.

use estimators::eval::ProgramScores;
use profiler::{Profile, RunConfig, RunOutcome, RuntimeError};
use std::collections::BTreeMap;

/// FNV-1a over 64-bit words and byte strings.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a byte string.
pub fn fnv(bs: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bs);
    h.finish()
}

/// Digest of every count counter of a profile: block, branch,
/// call-site, function and edge counts. `func_cost` is left out, so an
/// optimized run must digest equal to the unoptimized one.
pub fn counts_digest(p: &Profile) -> u64 {
    let mut h = Fnv::default();
    for blocks in &p.block_counts {
        h.word(blocks.len() as u64);
        blocks.iter().for_each(|&c| h.word(c));
    }
    for &(t, n) in &p.branch_counts {
        h.word(t);
        h.word(n);
    }
    p.call_site_counts.iter().for_each(|&c| h.word(c));
    p.func_counts.iter().for_each(|&c| h.word(c));
    let mut edges: Vec<_> = p.edge_counts.iter().collect();
    edges.sort_unstable();
    for (&(f, a, b), &c) in edges {
        h.word(u64::from(f.0));
        h.word(u64::from(a.0));
        h.word(u64::from(b.0));
        h.word(c);
    }
    h.finish()
}

/// Digest of a whole run: exit code, stdout, count counters and steps,
/// or the error message.
pub fn outcome_digest(out: &Result<RunOutcome, RuntimeError>) -> u64 {
    let mut h = Fnv::default();
    match out {
        Ok(o) => {
            h.word(o.exit_code as u64);
            h.bytes(&o.output);
            h.word(counts_digest(&o.profile));
            h.word(o.steps);
        }
        Err(e) => h.bytes(e.to_string().as_bytes()),
    }
    h.finish()
}

/// Every score of a program as raw bits, for byte-identity checks.
pub fn score_bits(s: &ProgramScores) -> Vec<u64> {
    s.intra
        .iter()
        .chain(&s.invocation_simple)
        .chain(&s.invocation_markov_10)
        .chain(&s.invocation_markov_25)
        .chain(&s.callsites)
        .map(|x| x.to_bits())
        .collect()
}

/// One reference row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefRow {
    /// `main`'s return value or the `exit()` status.
    pub exit_code: i64,
    /// Bytes printed.
    pub stdout_len: u64,
    /// Digest of the bytes printed.
    pub stdout_fnv: u64,
    /// [`counts_digest`] of the profile.
    pub counts_fnv: u64,
    /// Steps the run took (unoptimized).
    pub steps: u64,
}

impl RefRow {
    /// The row for one finished run.
    pub fn of(o: &RunOutcome) -> RefRow {
        RefRow {
            exit_code: o.exit_code,
            stdout_len: o.output.len() as u64,
            stdout_fnv: fnv(&o.output),
            counts_fnv: counts_digest(&o.profile),
            steps: o.steps,
        }
    }
}

/// Reference rows keyed by (program, input index).
pub type Reference = BTreeMap<(String, usize), RefRow>;

const REFERENCE_TSV: &str = include_str!("../reference/suite.tsv");

/// Parses the kept reference.
///
/// # Errors
///
/// A malformed row, or a suite (program, input) with no row.
pub fn reference() -> Result<Reference, String> {
    let mut out = Reference::new();
    for line in REFERENCE_TSV.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("malformed reference row: {line}");
        if f.len() != 7 {
            return Err(bad());
        }
        let dec = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
        let row = RefRow {
            exit_code: f[2].parse().map_err(|_| bad())?,
            stdout_len: dec(f[3])?,
            stdout_fnv: hex(f[4])?,
            counts_fnv: hex(f[5])?,
            steps: dec(f[6])?,
        };
        out.insert((f[0].to_string(), dec(f[1])? as usize), row);
    }
    for b in suite::all() {
        for i in 0..b.inputs().len() {
            if !out.contains_key(&(b.name.to_string(), i)) {
                return Err(format!("reference has no row for {} input {i}", b.name));
            }
        }
    }
    Ok(out)
}

/// Runs every suite (program, input) through the AST walker and
/// renders the reference file.
///
/// # Panics
///
/// If a suite program fails to compile or run.
pub fn render_reference() -> String {
    let mut out = String::from(
        "# program\tinput\texit_code\tstdout_len\tstdout_fnv\tcounts_fnv\tsteps\n\
         # generated by `perfbench --write-reference` from profiler::run_ast\n",
    );
    for b in suite::all() {
        let program = b.compile().expect("suite programs compile");
        let inputs = b.inputs();
        let mut rows: Vec<Option<RefRow>> = vec![None; inputs.len()];
        pool::global().scope(|s| {
            for (slot, input) in rows.iter_mut().zip(inputs) {
                let program = &program;
                s.spawn(move |_| {
                    let out = profiler::run_ast(program, &RunConfig::with_input(input))
                        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                    *slot = Some(RefRow::of(&out));
                });
            }
        });
        for (i, r) in rows.into_iter().enumerate() {
            let r = r.expect("every reference task fills its row");
            out.push_str(&format!(
                "{}\t{i}\t{}\t{}\t{:016x}\t{:016x}\t{}\n",
                b.name, r.exit_code, r.stdout_len, r.stdout_fnv, r.counts_fnv, r.steps
            ));
        }
    }
    out
}
