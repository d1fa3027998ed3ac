//! In-memory span recorder for the traced replay, and the self-time
//! arithmetic the per-layer metrics are derived from.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// `Span::query` of a span that belongs to no single query.
pub const NO_QUERY: u32 = u32::MAX;

/// One timed call into a layer. Times are nanoseconds on the traced
/// clock, which stops while [`Tracer::paused`] work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub wave: u32,
    pub query: u32,
    /// The enclosing span, by index into the recorder's span list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    paused: Duration,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            paused: Duration::ZERO,
            spans: Vec::new(),
            open: None,
        }
    }

    /// Nanoseconds on the traced clock since the recorder was created.
    pub fn now(&self) -> u64 {
        (self.origin.elapsed() - self.paused).as_nanos() as u64
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn open(&mut self, name: &'static str, wave: u32, query: u32) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            wave,
            query,
            parent: self.open,
        });
        self.open = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        self.open = span.parent;
    }

    /// Rename a recorded span (a call named after what it turned out to do).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        wave: u32,
        query: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, wave, query);
        let out = f();
        self.close(id);
        out
    }

    /// Run `f` with the traced clock stopped (shadow measurements).
    pub fn paused<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\twave\tquery\tparent")?;
        for s in &self.spans {
            let query = if s.query == NO_QUERY {
                "-".to_string()
            } else {
                s.query.to_string()
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{query}\t{parent}",
                s.name, s.start, s.end, s.wave
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer totals over a trace, keyed by span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub calls: usize,
    /// Sum of self times, in nanoseconds.
    pub self_ns: u64,
    /// Self time of each call, in nanoseconds, in recording order.
    pub samples: Vec<u64>,
}

impl Layer {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Mean self time per call, in microseconds (0 for a layer never called).
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 * 1e-3, self.calls as f64)
    }
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += own;
        l.samples.push(own);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            wave: 0,
            query: NO_QUERY,
            parent,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 25, None), span("b", 30, 31, None)];
        assert_eq!(self_times(&spans), vec![15, 1]);
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        // wave [0,100) holds two disjoint children; the grandchild is
        // taken from its own parent, not from the wave.
        let spans = [
            span("wave", 0, 100, None),
            span("select", 10, 40, Some(0)),
            span("score", 20, 30, Some(1)),
            span("exec", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("p", 100, 200, None),
            span("c1", 110, 150, Some(0)),
            span("c2", 140, 160, Some(0)),
            span("c3", 150, 155, Some(0)),
            span("c4", 190, 230, Some(0)),
        ];
        // Union inside the parent: [110,160) + [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layer_totals_sum_self_times_by_name() {
        let spans = [
            span("wave", 0, 100, None),
            span("exec", 10, 40, Some(0)),
            span("wave", 100, 150, None),
            span("exec", 110, 120, Some(2)),
        ];
        let l = layers(&spans);
        assert_eq!(l["wave"].calls, 2);
        assert_eq!(l["wave"].self_ns, 70 + 40);
        assert_eq!(l["exec"].samples, vec![30, 10]);
        assert_eq!(l["exec"].mean_us(), 0.02);
        let total: u64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(total, 150, "self times of a trace sum to its covered wall");
    }

    #[test]
    fn recorder_nests_and_pauses() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 1, NO_QUERY);
        let v = t.span("inner", 1, 7, || 42);
        t.paused(|| std::thread::sleep(Duration::from_millis(20)));
        t.close(outer);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].query, 7);
        assert!(
            s[0].duration() < 20_000_000,
            "paused time stays off the traced clock"
        );
        t.span("after", 2, NO_QUERY, || ());
        assert_eq!(
            t.spans()[2].parent,
            None,
            "closing the outer span pops the nesting"
        );
    }
}
