//! The benchmark's span recorder: one span per call into a layer's public
//! function, recorded from the benchmark's own files, kept in a pre-sized
//! buffer and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::clock::process_cpu_s;

/// Counts recorded at a span's boundary (examples, rows, bytes, queries,
/// candidates); at most this many per span.
const MAX_COUNTS: usize = 3;

pub type Count = (&'static str, u64);

/// Index of a span in the recorder; `NONE` when recording is off or the
/// buffer is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub start_wall_s: f64,
    pub end_wall_s: f64,
    pub start_cpu_s: f64,
    pub end_cpu_s: f64,
    pub counts: [Count; MAX_COUNTS],
}

impl Span {
    pub fn wall_s(&self) -> f64 {
        self.end_wall_s - self.start_wall_s
    }
    pub fn cpu_s(&self) -> f64 {
        self.end_cpu_s - self.start_cpu_s
    }
}

pub struct Recorder {
    /// Spans are recorded only while this is set; the untraced run never
    /// sets it, and the traced run clears it for the calls it compares
    /// against to measure its own overhead.
    pub enabled: bool,
    /// Shared by every span of the run.
    pub run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Recorder {
    pub fn new(run_id: u64, capacity: usize) -> Self {
        Recorder {
            enabled: false,
            run_id,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        let wall = self.epoch.elapsed().as_secs_f64();
        let cpu = process_cpu_s();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_wall_s: wall,
            end_wall_s: wall,
            start_cpu_s: cpu,
            end_cpu_s: cpu,
            counts: [("", 0); MAX_COUNTS],
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span, recording the counts at its boundary.
    pub fn exit(&mut self, id: SpanId, counts: &[Count]) {
        if id == SpanId::NONE {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let cpu = process_cpu_s();
        let wall = self.epoch.elapsed().as_secs_f64();
        let span = &mut self.spans[id.0 as usize];
        span.end_cpu_s = cpu;
        span.end_wall_s = wall;
        assert!(
            counts.len() <= MAX_COUNTS,
            "too many counts on {}",
            span.name
        );
        span.counts[..counts.len()].copy_from_slice(counts);
    }

    /// Per-name totals: calls, CPU and wall seconds, self CPU seconds (a
    /// span minus its children), and summed counts. Sorted by name.
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let mut child_cpu = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cpu[p as usize] += s.cpu_s();
            }
        }
        let mut rows: Vec<LayerRow> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => r,
                None => {
                    rows.push(LayerRow {
                        name: s.name,
                        ..LayerRow::default()
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.calls += 1;
            row.cpu_s += s.cpu_s();
            row.wall_s += s.wall_s();
            row.self_cpu_s += s.cpu_s() - child_cpu[i];
            for &(key, n) in s.counts.iter().filter(|c| !c.0.is_empty()) {
                match row.counts.iter_mut().find(|c| c.0 == key) {
                    Some(c) => c.1 += n,
                    None => row.counts.push((key, n)),
                }
            }
        }
        rows.sort_by_key(|r| r.name);
        rows
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, `pid` = run id, `cat` =
    /// layer, timestamps in microseconds on the wall clock; CPU time, the
    /// causing span and the boundary counts ride in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 200);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"cpu_us\":{:.3}",
                s.name,
                layer,
                self.run_id,
                s.start_wall_s * 1e6,
                s.wall_s() * 1e6,
                i,
                s.parent.map_or(-1, i64::from),
                s.cpu_s() * 1e6,
            )
            .expect("write to String");
            for &(key, n) in s.counts.iter().filter(|c| !c.0.is_empty()) {
                write!(out, ",\"{key}\":{n}").expect("write to String");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[derive(Clone, Debug, Default)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: u64,
    pub cpu_s: f64,
    pub wall_s: f64,
    pub self_cpu_s: f64,
    pub counts: Vec<Count>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut rec = Recorder::new(1, 8);
        let id = rec.enter("a.b");
        rec.exit(id, &[("rows", 3)]);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn parents_self_time_and_counts() {
        let mut rec = Recorder::new(7, 8);
        rec.enabled = true;
        let outer = rec.enter("bench.phase");
        let a = rec.enter("layer.f");
        rec.exit(a, &[("rows", 2)]);
        let b = rec.enter("layer.f");
        rec.exit(b, &[("rows", 5), ("bytes", 40)]);
        rec.exit(outer, &[]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let table = rec.layer_table();
        assert_eq!(table.len(), 2);
        let phase = &table[0];
        let f = &table[1];
        assert_eq!((phase.name, phase.calls), ("bench.phase", 1));
        assert_eq!((f.name, f.calls), ("layer.f", 2));
        assert_eq!(f.counts, vec![("rows", 7), ("bytes", 40)]);
        // Self time is the span minus its children.
        assert!((phase.self_cpu_s - (phase.cpu_s - f.cpu_s)).abs() < 1e-12);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"layer.f\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":7"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"rows\":5,\"bytes\":40"));
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut rec = Recorder::new(1, 1);
        rec.enabled = true;
        let a = rec.enter("x.y");
        let b = rec.enter("x.z");
        rec.exit(b, &[]);
        rec.exit(a, &[]);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.dropped, 1);
    }
}
