//! In-memory span recorder for the traced replay.
//!
//! One span per layer call: name, start, end and parent. Spans stay in
//! memory while the replay runs and are written out once at the end, so
//! recording costs two clock reads and a `Vec` push per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `beeping.sim.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Time inside the layer's spans not covered by their child spans.
    pub self_ns: u64,
    /// Number of spans (calls).
    pub count: u64,
}

/// Records spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent });
        out
    }

    /// Every span recorded so far, in the order they ended (open spans
    /// appear where they were opened).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Per-layer self time (span duration minus the part its children
    /// cover) and call count.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let stat = layers.entry(span.name).or_default();
            stat.self_ns += span.duration_ns().saturating_sub(covered);
            stat.count += 1;
        }
        layers
    }

    /// Writes the spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.time("child", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.time("child", || ());
        t.close(root);
        let layers = t.layers();
        let root_ns = t.spans()[root].duration_ns();
        let child = layers["child"];
        assert_eq!(child.count, 2);
        assert!(child.self_ns >= 2_000_000);
        assert_eq!(layers["root"].self_ns + child.self_ns, root_ns);
        assert!(t.spans()[1..].iter().all(|s| s.parent == Some(root)));
    }
}
