//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into the system in a span: its layer (the
//! crate called, or `bench` for the benchmark's own code), a name, start
//! and end, the enclosing span, and a request id (trace index, run index
//! or tick). Spans stay in memory and are written out when the run ends.
//! With tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer: a crate name, or `bench`.
    pub layer: &'static str,
    /// Operation name, e.g. `offline.parse`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id: trace index, run index or tick.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs closures.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        // A panic inside `f` leaves this span open; the caller counts the
        // failure and the span keeps a zero duration.
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Mean duration in ms of the spans called `name` (`NaN` if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        d.iter().sum::<f64>() / d.len() as f64
    }

    /// Self time per layer, in ms: each span's duration minus the part its
    /// child spans cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let own = s.duration_ns().saturating_sub(children);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("bench", "outer", 0, || {
            t.span("inner-layer", "inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let by_layer = t.self_ms_by_layer();
        assert!(by_layer["inner-layer"] >= 5.0);
        assert!(by_layer["bench"] < by_layer["inner-layer"]);
        assert_eq!(t.len(), 2);
        let off = Tracer::new(false);
        assert_eq!(off.span("bench", "x", 0, || 7), 7);
        assert_eq!(off.len(), 0);
    }
}
