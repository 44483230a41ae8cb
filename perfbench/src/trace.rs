//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    /// Batch index, shared by every span of one batch.
    batch: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Totals of one span name.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, batch: usize) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            batch: batch as u32,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// End the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = self.now();
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, batch: usize, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, batch);
        let r = f();
        self.close(id);
        r
    }

    /// Each span's duration minus the part its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = by_name.entry(s.name).or_default();
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        by_name
    }

    /// Total duration of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations of spans named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One CSV line per span: id, parent, batch, name, start, end, self.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,batch,name,start_ns,end_ns,self_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{},{self_ns}",
                s.batch, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.open("root", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let totals = t.totals();
        let (r, c) = (totals["root"], totals["child"]);
        assert_eq!(r.total_ns, r.self_ns + c.total_ns);
        assert_eq!(c.self_ns, c.total_ns);
        assert!(c.total_ns >= 2_000_000);
    }
}
