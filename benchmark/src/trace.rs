//! Outside tracing: spans recorded by the benchmark around its own calls into
//! the program, kept in memory and written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded interval. Spans of one op share `op`; `parent` is 0 for a
/// root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span that was opened and not yet closed.
#[derive(Clone, Copy)]
pub struct Open {
    index: usize,
    /// Span id (0 when tracing is off), to parent further spans under it.
    pub id: u32,
}

/// A per-thread span recorder. When built with [`Tracer::off`] every call is
/// a branch and nothing else, so the untraced run pays nothing measurable.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { enabled: false, t0: Instant::now(), next_id: 1, spans: Vec::new() }
    }

    /// A recorder whose ids start at `id_base + 1`, so several threads'
    /// spans merge without clashing. Offsets count from `t0`.
    pub fn on(t0: Instant, id_base: u32) -> Self {
        Tracer { enabled: true, t0, next_id: id_base + 1, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str, op: u32, parent: u32) -> Open {
        if !self.enabled {
            return Open { index: usize::MAX, id: 0 };
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, op, layer, name, start_ns, end_ns: start_ns });
        Open { index: self.spans.len() - 1, id }
    }

    pub fn close(&mut self, open: Open) {
        if self.enabled {
            self.spans[open.index].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(layer, name, op, parent);
        let out = f();
        self.close(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of `span`: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut frontier = span.start_ns;
    for (start, end) in cuts {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    span.dur_ns() - covered
}

/// Mean duration (µs per op) of the spans selected by `pick`, over `ops` ops.
pub fn mean_us(spans: &[Span], ops: usize, pick: impl Fn(&Span) -> bool) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    // A fold, not `sum`: an empty f64 sum is -0.0.
    spans.iter().filter(|s| pick(s)).fold(0.0, |acc, s| acc + s.dur_ns() as f64) / 1e3 / ops as f64
}

/// Mean self time (µs per root) of the root spans selected by `pick`.
pub fn mean_root_self_us(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    let mut children: std::collections::HashMap<u32, Vec<&Span>> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0 && pick(s)).collect();
    if roots.is_empty() {
        return 0.0;
    }
    let total: u64 = roots
        .iter()
        .map(|r| self_time_ns(r, children.get(&r.id).map_or(&[][..], Vec::as_slice)))
        .sum();
    total as f64 / 1e3 / roots.len() as f64
}

/// Appends `spans` to `out`, one JSON object per line.
pub fn write_jsonl(
    out: &mut impl Write,
    workload: &str,
    pass: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"pass\":\"{pass}\",\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, layer: "l", name: "n", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 100, 200);
        let a = span(2, 1, 110, 130);
        let b = span(3, 1, 120, 150); // overlaps a by 10
        let c = span(4, 1, 190, 260); // runs past the parent
        assert_eq!(self_time_ns(&root, &[]), 100);
        assert_eq!(self_time_ns(&root, &[&a]), 80);
        assert_eq!(self_time_ns(&root, &[&b, &a]), 60);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 50);
    }

    #[test]
    fn mean_root_self_time_uses_direct_children_only() {
        let spans = vec![
            span(1, 0, 0, 1000),
            span(2, 1, 0, 400),
            span(3, 2, 0, 400), // grandchild: already inside span 2
            span(4, 0, 1000, 3000),
        ];
        assert_eq!(mean_root_self_us(&spans, |_| true), (600.0 + 2000.0) / 2.0 / 1e3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut off = Tracer::off();
        let open = off.open("l", "n", 1, 0);
        assert_eq!(open.id, 0);
        off.close(open);
        assert_eq!(off.time("l", "n", 1, 0, || 7), 7);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::on(Instant::now(), 100);
        let root = on.open("l", "root", 1, 0);
        on.time("l", "child", 1, root.id, || ());
        on.close(root);
        let spans = on.into_spans();
        assert_eq!((spans[0].id, spans[1].id, spans[1].parent), (101, 102, 101));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
