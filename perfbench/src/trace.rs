//! In-memory spans recorded around calls into the program's layers.
//!
//! A span records its name, an optional tag (the suite program it
//! belongs to), start and end, and an explicit parent id. The caller
//! passes the parent into every pool closure, so a span recorded on any
//! worker attaches to the pass that caused it. Spans stay in memory
//! until the run ends; [`Tracer::to_json`] writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A span's id; `SpanId::NONE` is the parent of a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The parent of a root span.
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// This span's id.
    pub id: u64,
    /// The id of the span that caused it (0 for a root).
    pub parent: u64,
    /// Layer name, `<module>.<what>`.
    pub name: &'static str,
    /// Free-form qualifier (the suite program), or "".
    pub tag: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// The span store of one traced pass.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`, passing `f`
    /// the new span's id so it can parent further spans.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(SpanId(id));
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .push(SpanRec {
                id,
                parent: parent.0,
                name,
                tag,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
            .clone()
    }
}

/// Where a call being timed belongs: the tracer (none in an untraced
/// pass) and the parent span. Copied into every pool closure.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: SpanId,
}

impl<'a> Ctx<'a> {
    /// No tracing: [`Ctx::span`] just calls its closure.
    pub const OFF: Ctx<'static> = Ctx {
        tracer: None,
        parent: SpanId::NONE,
    };

    /// Spans go to `tracer` under `parent`.
    pub fn new(tracer: &'a Tracer, parent: SpanId) -> Ctx<'a> {
        Ctx {
            tracer: Some(tracer),
            parent,
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tagged(name, "", f)
    }

    /// [`Ctx::span`] with a tag.
    pub fn tagged<R>(&self, name: &'static str, tag: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(t) => t.span(self.parent, name, tag, |_| f()),
            None => f(),
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (children on other workers may overlap
/// one another, so this is the length of their union within the
/// parent). Returned in the order of `spans`.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per `(name, tag)`, in milliseconds.
pub fn self_ms_by_layer(spans: &[SpanRec]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((s.name, s.tag)).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array (one object per span).
pub fn to_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            r#"{{"id":{},"parent":{},"name":"{}","tag":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x",
            tag: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100; two overlapping children 10..50 and 30..70 cover
        // 10..70, and one child sticks out past the root's end.
        let spans = vec![
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 50),
            rec(3, 1, 30, 70),
            rec(4, 1, 90, 120),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![100 - 60 - 10, 40, 40, 30]);
    }
}
