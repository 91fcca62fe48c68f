//! In-memory span recorder for the traced run. Spans are recorded around
//! calls into each layer's public functions, from the benchmark's own
//! code; the program itself is not instrumented. A disabled tracer only
//! runs the closures, so traced and untraced ops share one code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` indexes the enclosing span; the op's
/// root span has none.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-op totals: the op's wall time, the summed duration of each span
/// name, and the counts recorded at the same boundaries.
#[derive(Debug, Clone, Default)]
pub struct OpTrace {
    pub total_ms: f64,
    /// Sum of the op's direct child spans: the attributed part.
    pub attributed_ms: f64,
    pub span_ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl OpTrace {
    pub fn ms(&self, name: &str) -> f64 {
        self.span_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
    ops: Vec<OpTrace>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            ops: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Runs `f` as span `name`, nested under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us: start,
            end_us: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_us = self.us(Instant::now());
        r
    }

    /// Records a span measured elsewhere (another thread's timestamps),
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.stack.last().copied(),
            op: self.op,
        };
        self.spans.push(span);
    }

    /// Adds `v` to the current op's counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Runs one op under a root span and folds its spans into an
    /// [`OpTrace`].
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let root = self.spans.len();
        let r = self.span("op", f);
        self.fold(root);
        r
    }

    /// Folds in an op whose bounds were timed elsewhere (the daemon's
    /// client loop); `f` records its child spans.
    pub fn op_at(&mut self, start: Instant, end: Instant, f: impl FnOnce(&mut Self)) {
        if !self.enabled {
            return;
        }
        let root = self.spans.len();
        self.record("op", start, end);
        self.stack.push(root);
        f(self);
        self.stack.pop();
        self.fold(root);
    }

    fn fold(&mut self, root: usize) {
        let mut t = OpTrace {
            total_ms: (self.spans[root].end_us - self.spans[root].start_us) / 1e3,
            counts: std::mem::take(&mut self.counts),
            ..OpTrace::default()
        };
        for s in &self.spans[root + 1..] {
            let d = (s.end_us - s.start_us) / 1e3;
            *t.span_ms.entry(s.name).or_insert(0.0) += d;
            if s.parent == Some(root) {
                t.attributed_ms += d;
            }
        }
        self.ops.push(t);
        self.op += 1;
    }

    pub fn ops(&self) -> &[OpTrace] {
        &self.ops
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{}}}",
                s.op, s.name, s.start_us, s.end_us, parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_fold_into_per_op_totals() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            t.op(|t| {
                t.span("a", |t| {
                    t.span("inner", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    });
                });
                t.span("b", |t| t.count("things", 3.0));
                t.span("b", |t| t.count("things", 2.0));
            });
        }
        assert_eq!(t.ops().len(), 2);
        let op = &t.ops()[1];
        assert_eq!(op.count("things"), 5.0);
        assert!(op.ms("inner") >= 1.0);
        assert!(op.ms("a") >= op.ms("inner"));
        // only direct children count as attributed: `inner` is inside `a`
        let direct = op.ms("a") + op.ms("b");
        assert!((op.attributed_ms - direct).abs() < 1e-9);
        assert!(op.attributed_ms <= op.total_ms);
        assert!(t.spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.op(|t| {
            t.span("a", |t| {
                t.count("n", 1.0);
                7
            })
        });
        assert_eq!(v, 7);
        assert!(t.ops().is_empty());
        assert!(t.spans.is_empty());
    }
}
