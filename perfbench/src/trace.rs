//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, a parent and a request id; spans
//! stay in memory until [`Tracer::write_jsonl`] writes them out at the end.
//! A span's self time is its duration minus the durations of its children
//! (children are nested calls, so they never overlap each other).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub section: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per `(section, name)` totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Aggregate {
    /// Mean self time per call in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.count.max(1) as f64
    }

    /// Mean inclusive time per call in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    section: &'static str,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            section: "",
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from now on are grouped under `section` (one input
    /// set: `plan`, `serve`, `session`, or a probe).
    pub fn section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            section: self.section,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per `(section, name)`.
    pub fn aggregate(&self) -> BTreeMap<(&'static str, &'static str), Aggregate> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<_, Aggregate> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry((span.section, span.name)).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"section\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.section, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut t = Tracer::default();
        t.section("plan");
        t.span("root", 7, |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("child", 7, |_| {
                std::thread::sleep(Duration::from_millis(12))
            });
            t.span("child", 7, |_| {
                std::thread::sleep(Duration::from_millis(12))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.section == "plan"));
        let agg = t.aggregate();
        let root = agg[&("plan", "root")];
        let child = agg[&("plan", "child")];
        assert_eq!(child.count, 2);
        assert_eq!(root.total_ns, root.self_ns + child.total_ns);
        assert!(root.self_ns >= 4_000_000 && root.self_ns < child.self_ns);
    }
}
