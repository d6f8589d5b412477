//! Host-time spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory until the run ends and are then written as
//! Chrome trace-event JSON (loadable in Perfetto), each carrying the run
//! id, its parent span, and its self time.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Spans {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span { name, start, end });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// The log as Chrome trace-event JSON. A span's parent is the
    /// innermost other span that encloses it; its self time is its
    /// duration minus what its direct children cover.
    pub fn chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        // Outer spans first: earlier start, then later end.
        order.sort_by(|&a, &b| {
            let (x, y) = (&self.spans[a], &self.spans[b]);
            x.start.cmp(&y.start).then(y.end.cmp(&x.end))
        });
        let mut parent = vec![None; self.spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for &i in &order {
            while open
                .last()
                .is_some_and(|&p| self.spans[p].end < self.spans[i].end)
            {
                open.pop();
            }
            parent[i] = open.last().copied();
            open.push(i);
        }
        let mut child_us = vec![0.0f64; self.spans.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                child_us[p] += self.dur_us(i);
            }
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (n, &i) in order.iter().enumerate() {
            let s = &self.spans[i];
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"run_id\":\"{}\",\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                (s.start - self.origin).as_secs_f64() * 1e6,
                self.dur_us(i),
                self.run_id,
                i,
                parent[i].map_or("null".to_string(), |p| p.to_string()),
                (self.dur_us(i) - child_us[i]).max(0.0),
            );
        }
        out.push_str("]}");
        out
    }

    fn dur_us(&self, i: usize) -> f64 {
        (self.spans[i].end - self.spans[i].start).as_secs_f64() * 1e6
    }
}
