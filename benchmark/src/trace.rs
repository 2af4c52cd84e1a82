//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span: a name,
//! a start and an end (ns since the recorder was created), the span that
//! encloses it, and the operation it belongs to. Spans stay in memory while
//! the run measures and are written out once it ends. A layer's figure is
//! its self time: a span's duration minus the part its child spans cover.
//! The `op` span that encloses each operation keeps, as its self time, the
//! operation time that no layer span covers (`unattributed_ns`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span that encloses one whole operation.
pub const OP: &str = "op";

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as span `name`, nested in whichever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let op = self.ops.saturating_sub(1);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[index as usize].end_ns = end;
        result
    }

    /// Runs `f` as a new operation: an `op` span with a fresh operation id.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(self.open.is_empty(), "operations do not nest");
        self.ops += 1;
        self.span(OP, f)
    }

    /// Number of operations recorded.
    pub fn ops(&self) -> usize {
        self.ops as usize
    }

    /// Tracing overhead, percent: the cost of recording this run's spans
    /// (calibrated on empty spans) as a share of the traced operations' time.
    pub fn overhead_pct(&self) -> f64 {
        const CALIBRATION: usize = 20_000;
        let mut probe = Tracer::default();
        let start = Instant::now();
        probe.op(|t| {
            for _ in 0..CALIBRATION {
                t.span("probe", |_| ());
            }
        });
        let per_span = start.elapsed().as_nanos() as f64 / CALIBRATION as f64;
        let traced: f64 = self.durations(OP).iter().sum();
        100.0 * per_span * self.spans.len() as f64 / traced.max(1.0)
    }

    /// Self time per (operation, span name), in ns.
    pub fn self_times(&self) -> BTreeMap<(u32, &'static str), u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *totals.entry((span.op, span.name)).or_insert(0) += own;
        }
        totals
    }

    /// The self time of `name` in each operation, in ns (0 where the
    /// operation has no such span).
    pub fn per_op(&self, name: &str) -> Vec<f64> {
        let mut per_op = vec![0.0; self.ops as usize];
        for ((op, n), ns) in self.self_times() {
            if n == name {
                per_op[op as usize] += ns as f64;
            }
        }
        per_op
    }

    /// Whole duration (children included) of each `name` span, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .collect()
    }

    /// Total self time of `name` across the run, in ns.
    pub fn total(&self, name: &str) -> f64 {
        self.self_times()
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, &ns)| ns as f64)
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `op  name  start_ns  end_ns  parent` (parent `-` for top level).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
        for span in &self.spans {
            let parent = match span.parent {
                NO_PARENT => "-".to_string(),
                index => index.to_string(),
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_ops_keep_the_rest() {
        let mut tracer = Tracer::default();
        for _ in 0..2 {
            tracer.op(|t| {
                t.span("outer", |t| {
                    spin(200_000);
                    t.span("inner", |_| spin(300_000));
                });
                spin(100_000);
            });
        }
        assert_eq!(tracer.ops(), 2);
        let inner = tracer.per_op("inner");
        let outer = tracer.per_op("outer");
        let op = tracer.per_op(OP);
        for i in 0..2 {
            assert!(inner[i] >= 300_000.0);
            assert!(outer[i] >= 200_000.0 && outer[i] < inner[i] + 200_000.0);
            assert!(op[i] >= 100_000.0);
        }
        let whole = tracer.durations(OP);
        let parts = tracer.total("inner") + tracer.total("outer") + tracer.total(OP);
        assert!((whole.iter().sum::<f64>() - parts).abs() < 1.0);
    }
}
