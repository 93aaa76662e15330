//! End-to-end tests of the `sfe` binary via `CARGO_BIN_EXE_sfe`.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn sfe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(args)
        .output()
        .expect("sfe runs")
}

fn demo_file() -> tempfile::NamedFile {
    let mut f = tempfile::NamedFile::new("demo.c");
    f.write(
        br#"
        int hot(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
        int cold(char *msg) { if (msg == 0) { exit(1); } return msg[0]; }
        int main(void) {
            int i, t = 0;
            for (i = 0; i < 50; i++) t += hot(i);
            t += cold("x");
            return t & 255;
        }
        "#,
    );
    f
}

// A tiny self-cleaning temp file helper (no external crates). Each
// file gets its own path: the tests run in parallel threads of one
// process, and a shared path would be deleted under a running test.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);

    pub struct NamedFile {
        path: PathBuf,
    }

    impl NamedFile {
        pub fn new(name: &str) -> Self {
            let mut path = std::env::temp_dir();
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            path.push(format!("sfe-test-{}-{n}-{name}", std::process::id()));
            NamedFile { path }
        }

        pub fn write(&mut self, bytes: &[u8]) {
            std::fs::write(&self.path, bytes).expect("write temp file");
        }

        pub fn path(&self) -> &str {
            self.path.to_str().expect("utf8 path")
        }
    }

    impl Drop for NamedFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn report_lists_functions_and_sites() {
    let f = demo_file();
    let out = sfe(&["report", f.path()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot"), "{text}");
    assert!(text.contains("main -> hot"), "{text}");
}

#[test]
fn branches_show_heuristics() {
    let f = demo_file();
    let out = sfe(&["branches", f.path()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Loop"), "{text}");
    // The `msg == 0` pointer test.
    assert!(text.contains("Pointer"), "{text}");
}

#[test]
fn dot_emits_graphviz() {
    let f = demo_file();
    let out = sfe(&["dot", f.path(), "hot"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.contains("freq="), "{text}");
}

#[test]
fn run_executes_and_scores() {
    let f = demo_file();
    let out = sfe(&["run", f.path()]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("weight-matching"), "{err}");
}

#[test]
fn optimized_run_reports_every_pass_counter() {
    let f = demo_file();
    let out = sfe(&["--opt-level", "3", "run", f.path()]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    let summary = err
        .lines()
        .find(|l| l.starts_with("[-O3: "))
        .unwrap_or_else(|| panic!("no -O3 summary in {err}"));
    for name in [
        "inlined_calls",
        "folded",
        "dce_blocks",
        "dce_ops",
        "fused",
        "mined",
    ] {
        assert!(summary.contains(name), "{name} missing from {summary}");
    }
}

#[test]
fn pretty_round_trips() {
    let f = demo_file();
    let out = sfe(&["pretty", f.path()]);
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout).into_owned();
    // The printed output must itself compile.
    assert!(minic::compile(&printed).is_ok(), "{printed}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let mut f = tempfile::NamedFile::new("bad.c");
    f.write(b"int main(void) { return x; }");
    let out = sfe(&["report", f.path()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown name"), "{err}");
}

#[test]
fn usage_on_missing_args() {
    let out = sfe(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn corpus_caps_a_huge_memory_budget_and_rejects_unknown_flags() {
    // 2^44 MiB is 2^64 bytes: the budget must saturate to the window
    // cap, not wrap to a one-slot window.
    let out = sfe(&[
        "corpus",
        "--count",
        "4",
        "--jobs",
        "1",
        "--mem-budget",
        "17592186044416",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("corpus: 4 programs"), "{text}");
    assert!(text.contains("| window 4096 |"), "{text}");

    let out = sfe(&["corpus", "--count", "4", "--naive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown corpus flag `--naive`"), "{err}");
}

/// A reader that stops after one line (`sfe … | head -1`) must not make
/// `sfe` panic. The pretty-printed program is megabytes long, far more
/// than a pipe buffer holds, so a write after the close is certain.
#[test]
fn closed_stdout_exits_quietly() {
    let body = "x = x + 1;\n".repeat(100_000);
    let mut f = tempfile::NamedFile::new("long.c");
    f.write(format!("int main(void) {{ int x; x = 0; {body} return x; }}").as_bytes());

    let mut child = Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(["pretty", f.path()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sfe runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("first line");
    assert!(line.contains("main"), "{line}");
    let out = child.wait_with_output().expect("sfe exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
