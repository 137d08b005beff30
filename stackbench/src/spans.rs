//! The traced run's spans: recorded by the benchmark around its calls
//! into the layers, kept in memory, and written once at the end through
//! `openwf_obs`'s Chrome-trace exporter.

use std::path::Path;
use std::time::Instant;

use openwf_obs::{SpanPhase, TraceEvent, TraceSink};

/// A shared in-memory span recorder; clones record into one sink.
#[derive(Clone, Debug)]
pub struct Spans {
    sink: TraceSink,
    origin: Instant,
}

impl Spans {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            sink: TraceSink::new(),
            origin,
        }
    }

    /// Records a complete span. `lane` becomes the Chrome thread (host or
    /// reactor index) and `trace` the Chrome process (a problem's packed
    /// id, or 0 for spans not tied to a problem).
    pub fn span(
        &self,
        name: &'static str,
        lane: u32,
        trace: u64,
        start: Instant,
        end: Instant,
        detail: String,
    ) {
        self.sink.record(TraceEvent {
            at_us: start.saturating_duration_since(self.origin).as_micros() as u64,
            host: lane,
            trace,
            name,
            phase: SpanPhase::Complete,
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            detail,
        });
    }

    /// Writes every span to `path` as a Chrome trace and checks the file
    /// parses as JSON. Returns the number of spans written.
    pub fn export(&self, path: &Path) -> Result<usize, String> {
        let events = self.sink.snapshot();
        let json = openwf_obs::to_chrome_trace(&events);
        openwf_obs::validate_json(&json)
            .map_err(|at| format!("span file is not valid JSON at byte {at}"))?;
        std::fs::write(path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(events.len())
    }
}
