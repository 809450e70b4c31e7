//! In-memory spans recorded by the benchmark around its calls into the
//! library layers, written out when the run ends.
//!
//! A span is one call: its name, start and end (nanoseconds since the
//! tracer started), the span that was open around it, and the request it
//! served. A disabled tracer records nothing, so the untraced run pays
//! only a branch per call.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span; [`Tracer::exit`] closes it.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (for interleaved traced and untraced
    /// repetitions). Spans already recorded stay.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle the tracer between spans only");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let r = f();
        self.exit(open);
        r
    }

    /// Adopt spans recorded by another tracer (a client thread), keeping
    /// their parent links and shifting them onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorb a tracer with no open span");
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent request self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selves = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(selves).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap each
/// other (calls made from several threads under one parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 12, 8, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 45, 55, Some(0)),
            // Runs past its parent's end: only the covered part counts.
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 5);
    }

    #[test]
    fn tracer_links_parents_and_skips_when_disabled() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || std::hint::black_box(1 + 1));
        t.exit(outer);
        t.set_enabled(false);
        t.span("ignored", 8, || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].ns() >= t.spans()[1].ns());

        let mut client = Tracer::new(true);
        let o = client.enter("client.outer", 9);
        client.span("client.inner", 9, || ());
        client.exit(o);
        t.absorb(client);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[3].name, "client.inner");
    }
}
