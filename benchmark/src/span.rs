//! In-memory spans for the traced run: name, start, end, parent, request
//! id. Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they are written out once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Most spans written to a span file; the aggregates cover all of them.
const MAX_SPANS_WRITTEN: usize = 200_000;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the log's name table.
    pub name: u16,
    /// Nanoseconds after the log's origin.
    pub start_ns: u64,
    /// Nanoseconds after the log's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Request (or call) the span belongs to; spans of one request share
    /// it.
    pub request: u64,
}

/// Calls and total self time of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub calls: u64,
    /// Self time of each span: its duration minus the part its child spans
    /// cover.
    pub self_ns: Vec<f64>,
}

/// An append-only span store.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log; span times are relative to `origin`.
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Intern `name` and return its id for [`SpanLog::begin`].
    pub fn name(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::end`].
    #[inline]
    pub fn begin(&mut self, name: u16, parent: u32, request: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        idx
    }

    /// Close the span `begin` returned.
    #[inline]
    pub fn end(&mut self, idx: u32) {
        let now = self.ns(Instant::now());
        self.spans[idx as usize].end_ns = now;
    }

    /// Record a span whose two instants the caller already took.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let name = self.name(name);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        idx
    }

    /// Move `other`'s spans into this log, hanging its root spans under
    /// `parent`. Both logs must share an origin.
    pub fn adopt(&mut self, other: SpanLog, parent: u32) {
        let offset = self.spans.len() as u32;
        let names: Vec<u16> = other.names.iter().map(|n| self.name(n)).collect();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            name: names[s.name as usize],
            parent: if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + offset
            },
            ..s
        }));
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span, grouped by name, in name-table order.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<NameTotals> = self
            .names
            .iter()
            .map(|&name| NameTotals {
                name,
                calls: 0,
                self_ns: Vec::new(),
            })
            .collect();
        for (s, &children) in self.spans.iter().zip(&covered) {
            let t = &mut out[s.name as usize];
            t.calls += 1;
            t.self_ns
                .push((s.end_ns - s.start_ns).saturating_sub(children) as f64);
        }
        out
    }

    /// Write the log as JSON: a name table plus
    /// `[name, start_ns, end_ns, parent, request]` rows (`parent` is −1 for
    /// roots). At most [`MAX_SPANS_WRITTEN`] rows are written; `recorded`
    /// says how many there were.
    pub fn write(&self, path: &str, workload: &str) -> Result<(), String> {
        let err = |e: std::io::Error| format!("write {path}: {e}");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(err)?;
        }
        let file = std::fs::File::create(path).map_err(err)?;
        let mut w = std::io::BufWriter::new(file);
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns since harness start\",\
             \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\
             \"names\":[{}],\"recorded\":{},\"written\":{written},\"spans\":[",
            names.join(","),
            self.spans.len(),
        )
        .map_err(err)?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == NO_PARENT || s.parent as usize >= written {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n[{},{},{},{parent},{}]",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .map_err(err)?;
        }
        writeln!(w, "\n]}}").map_err(err)?;
        w.flush().map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let at = |us: u64| origin + Duration::from_micros(us);
        let root = log.record("request", at(0), at(100), NO_PARENT, 7);
        log.record("decode", at(10), at(30), root, 7);
        let engine = log.record("engine", at(40), at(90), root, 7);
        log.record("solver", at(50), at(60), engine, 7);
        let totals = log.totals();
        let self_of = |name: &str| {
            totals
                .iter()
                .find(|t| t.name == name)
                .map(|t| t.self_ns.clone())
                .expect("name recorded")
        };
        assert_eq!(self_of("request"), vec![30_000.0]); // 100 − 20 − 50
        assert_eq!(self_of("decode"), vec![20_000.0]);
        assert_eq!(self_of("engine"), vec![40_000.0]); // 50 − 10
        assert_eq!(self_of("solver"), vec![10_000.0]);
    }

    #[test]
    fn adopt_reparents_roots_and_keeps_inner_links() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut outer = SpanLog::new(origin);
        let run = outer.record("run", at(0), at(50), NO_PARENT, 0);
        let mut inner = SpanLog::new(origin);
        let a = inner.record("call", at(1), at(9), NO_PARENT, 1);
        inner.record("leaf", at(2), at(3), a, 1);
        outer.adopt(inner, run);
        assert_eq!(outer.len(), 3);
        let totals = outer.totals();
        let run_self = &totals
            .iter()
            .find(|t| t.name == "run")
            .expect("run")
            .self_ns;
        assert_eq!(run_self, &vec![42_000.0]); // 50 − 8: only the root child counts
        let call_self = &totals
            .iter()
            .find(|t| t.name == "call")
            .expect("call")
            .self_ns;
        assert_eq!(call_self, &vec![7_000.0]);
    }

    #[test]
    fn begin_end_spans_nest() {
        let mut log = SpanLog::new(Instant::now());
        let request = log.name("request");
        let layer = log.name("layer");
        let root = log.begin(request, NO_PARENT, 1);
        let child = log.begin(layer, root, 1);
        log.end(child);
        log.end(root);
        let totals = log.totals();
        assert_eq!(totals[0].calls, 1);
        assert_eq!(totals[1].calls, 1);
        assert!(totals[0].self_ns[0] >= 0.0);
    }
}
