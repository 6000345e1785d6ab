//! Spans of the traced run.
//!
//! A span covers one call into a layer's public entry point, timed from
//! the benchmark: its name, start, end, the span it ran under and the
//! layer counters the call returned. Spans stay in memory and are written
//! out once, when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use crate::clock::now;

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point, e.g. `system.simulate_with`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in seconds since the recorder's origin.
    pub start_s: f64,
    /// End, in seconds since the recorder's origin.
    pub end_s: f64,
    /// Layer counters attached to the call.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span store. A recorder that is off ignores every call, so
/// traced and untraced iterations run the same code.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn on() -> Self {
        Recorder {
            on: true,
            origin: now(),
            spans: Vec::new(),
        }
    }

    /// A recorder that ignores every call.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Self::on()
        }
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            parent,
            start_s: at(start),
            end_s: at(end),
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends when [`Recorder::close`] is called.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let t = now();
        self.push(name, parent, t, t)
    }

    /// Closes the span `id` opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        self.spans[id].end_s = now().saturating_duration_since(self.origin).as_secs_f64();
    }

    /// Attaches a counter to span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: f64) {
        if !self.on {
            return;
        }
        self.spans[id].counters.push((key, value));
    }

    /// Durations of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates failures to create or write the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}, \"counters\": {{{}}}}}",
                s.name,
                s.start_s,
                s.end_s,
                counters.join(", ")
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
