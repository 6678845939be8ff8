//! Benchmark-side spans: a name, start, end and parent for each timed call
//! into a layer, held in memory and written out as Chrome trace-event JSON
//! when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder whose timestamps count from `origin` (process start).
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Time `f` as a span named `name`, nested in the innermost open span.
    /// `f` gets the recorder back to open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The first span named `name`.
    pub fn get(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .fold(0.0, |a, b| a + b)
    }
}

/// Chrome trace-event JSON of several recorders, one thread row each
/// (`tid` = position in `rows`), labelled with the row's name.
pub fn chrome_json(rows: &[(String, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (label, spans)) in rows.iter().enumerate() {
        let mut push = |event: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&event);
        };
        push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
            tid,
            crate::json::quote(label)
        ));
        for (i, s) in spans.iter().enumerate() {
            let mut e = format!(
                "{{\"name\":{},\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
                crate::json::quote(&s.name),
                tid,
                s.start_us,
                s.end_us - s.start_us,
                i
            );
            if let Some(p) = s.parent {
                let _ = write!(e, ",\"parent\":{}", p);
            }
            e.push_str("}}");
            push(e);
        }
    }
    out.push_str("\n]}\n");
    out
}
