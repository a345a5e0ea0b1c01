//! In-memory spans around the benchmark's calls into the program.
//!
//! A traced run opens a span around every call it makes into a public
//! function; spans nest through a stack, so each records its parent,
//! and each carries the pass or request id it belongs to. Nothing is
//! written until [`Tracer::write`] at the end of the run. An untraced
//! run's tracer records nothing.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
pub struct Span {
    /// What was called (`"corpus.process_corpus"`, `"cli.render"`, …).
    pub name: &'static str,
    /// Pass or request id.
    pub id: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offsets from the tracer's creation.
    pub start: Duration,
    /// End offset (equal to `start` while the span is open).
    pub end: Duration,
}

/// The span recorder; a no-op when tracing is off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Writes the spans as Chrome trace-event JSON (`ph: "X"`, times in
    /// microseconds), with each span's id and parent index in `args`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.id,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
