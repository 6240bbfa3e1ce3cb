//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Names are
//! `<layer>.<what>`; the layer is the part before the first dot. A
//! span's self time is its duration minus the union of its children's
//! intervals, so nested layers are never counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

/// Records spans when on; when off every call is a no-op, so the same
/// code gives the untraced reference run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(false)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u32) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Writes every span as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end_ns - s.start_ns;
            duration.saturating_sub(union_len(kids))
        })
        .collect()
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// The layer a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time (ns) summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let spans = [
            span("request", 0, 100, NO_PARENT),
            // Two overlapping children cover [10, 40); a third [50, 60).
            span("session.step", 10, 30, 0),
            span("acquire.chrono", 20, 40, 0),
            span("session.step", 50, 60, 0),
            // A grandchild only reduces its own parent.
            span("afe.x", 52, 55, 3),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40, 20, 20, 10 - 3, 3]);
        // Self times over a tree sum to the root's duration when children
        // do not overlap each other.
        let tree = [
            span("request", 0, 100, NO_PARENT),
            span("a.x", 0, 30, 0),
            span("b.y", 40, 90, 0),
            span("c.z", 45, 50, 2),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut t = Tracer::new(true);
        t.begin("request", 7);
        let v = t.time("session.step", 7, || 41 + 1);
        t.end();
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false);
        off.begin("request", 0);
        off.time("x.y", 0, || ());
        off.end();
        assert!(off.spans().is_empty());
        assert_eq!(layer_of("acquire.chrono"), "acquire");
    }
}
