//! An in-memory span recorder for the traced run, with Chrome trace-event
//! export and per-layer self times.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions; the program itself is not instrumented.  A
//! span's name is `<module>.<call>`, so its layer is the module prefix.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<module>.<call>`.
    pub name: &'static str,
    /// The diagnosis the span belongs to; every span of one diagnosis shares it.
    pub diagnosis: u32,
    /// Index of the parent span, `None` for a diagnosis's root span.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// The span's wall time.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer the span times: the module prefix of its name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    diagnosis: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            diagnosis: 0,
        }
    }
}

impl Tracer {
    /// Open the root span of the next diagnosis (or set-up) and return the id
    /// all of its spans share.
    pub fn begin_root(&mut self, name: &'static str) -> u32 {
        self.diagnosis = self.spans.last().map_or(0, |s| s.diagnosis + 1);
        self.begin(name);
        self.diagnosis
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            diagnosis: self.diagnosis,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let now = self.origin.elapsed();
        if let Some(index) = self.open.pop() {
            self.spans[index].end = now;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed wall time of the spans named `name` in diagnosis `diagnosis`.
    pub fn total(&self, diagnosis: u32, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.diagnosis == diagnosis && s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time per layer for one diagnosis: each span's duration minus the
    /// part its children cover, summed by layer.
    pub fn self_times(&self, diagnosis: u32) -> BTreeMap<&'static str, Duration> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in self.spans.iter().filter(|s| s.diagnosis == diagnosis) {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration();
            }
        }
        let mut out = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            if span.diagnosis == diagnosis {
                *out.entry(span.layer()).or_default() +=
                    span.duration().saturating_sub(child_time[index]);
            }
        }
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events), which
    /// Perfetto and `chrome://tracing` open.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"diagnosis\":{},\"span\":{},\"parent\":{}}}}}",
                if index == 0 { "" } else { ",\n" },
                span.name,
                span.layer(),
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.diagnosis,
                index,
                parent,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups_by_layer() {
        let mut tracer = Tracer::default();
        let d = tracer.begin_root("session.diagnosis");
        tracer.span("daemon.gather", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.span("daemon.gather", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.end();
        let selves = tracer.self_times(d);
        let root = tracer.total(d, "session.diagnosis");
        let summed: Duration = selves.values().sum();
        assert_eq!(summed, root);
        assert!(selves["daemon"] >= Duration::from_millis(4));
        assert_eq!(tracer.total(d, "daemon.gather"), selves["daemon"]);
    }

    #[test]
    fn diagnoses_get_fresh_ids_and_export_parents() {
        let mut tracer = Tracer::default();
        assert_eq!(tracer.begin_root("session.diagnosis"), 0);
        tracer.span("tbon.reduce_channels", || ());
        tracer.end();
        assert_eq!(tracer.begin_root("session.diagnosis"), 1);
        tracer.end();
        let json = tracer.chrome_json();
        assert!(json.contains("\"name\":\"tbon.reduce_channels\""));
        assert!(json.contains("\"diagnosis\":1,\"span\":2,\"parent\":-1"));
        assert!(json.contains("\"diagnosis\":0,\"span\":1,\"parent\":0"));
    }
}
