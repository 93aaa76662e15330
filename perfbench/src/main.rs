//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference
//! ```
//!
//! Workloads: `suite-cold`, `suite-warm`, `suite-o3`, `corpus`,
//! `serve`. With `--trace 0` the run times the named workload and
//! reports the end-to-end metrics; with `--trace 1` it runs one traced
//! round of every workload (inputs from the same seed) per repetition
//! and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. Scratch files go under `.perfbench/` in the
//! current directory. `--write-reference` regenerates
//! `reference/suite.tsv` from the AST walker.

use perfbench::run::{self, Sizes, Workload};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs a number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--write-reference") {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/suite.tsv");
        return match std::fs::write(&path, perfbench::check::render_reference()) {
            Ok(()) => {
                eprintln!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(".perfbench");
    let report = if a.trace {
        run::traced(a.seed, a.seconds, Sizes::default(), scratch)
    } else {
        run::untraced(a.workload, a.seed, a.seconds, Sizes::default(), scratch)
    };
    match report {
        Ok(r) => {
            for line in &r.notes {
                println!("{line}");
            }
            print!("{}", run::table(&r));
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
