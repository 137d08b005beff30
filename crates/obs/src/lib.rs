//! `openwf-obs`: the observability layer for the open-workflow stack.
//!
//! Two collectors, one handle:
//!
//! - [`MetricsRegistry`] — lock-free named counters, gauges, and
//!   fixed-bucket histograms, snapshot-able into the serde value tree.
//! - [`TraceSink`] — causal workflow trace events keyed by
//!   `(trace id, host)` with virtual-time timestamps, exportable as
//!   JSONL or Chrome `trace_event` JSON ([`to_jsonl`],
//!   [`to_chrome_trace`]).
//!
//! Both are *opt-in*: the [`Obs::disabled`] default hands out no-op
//! handles whose record calls are a single branch, and enabling
//! collection must never perturb a deterministic run — collectors draw
//! no randomness, arm no timers, and send nothing. The scenario layer's
//! observability gate property-tests exactly that: soak outcomes are
//! bit-identical with collectors on or off.
//!
//! This crate is std-only and sits below every other layer (it depends
//! only on the serde shim), so core, wire, simnet, and runtime can all
//! thread the same registry through without dependency cycles.

mod export;
mod metrics;
mod trace;

pub use export::{to_chrome_trace, to_jsonl, validate_json};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use trace::{
    flight_tail, pack_trace_id, trace_id_label, unpack_trace_id, SpanPhase, TraceEvent, TraceSink,
};

/// The combined observability handle threaded through `HostConfig` and
/// the simulator: a metrics registry plus a trace sink, cloned (shared)
/// into every layer that records. `Default` is fully disabled.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Named metrics (counters / gauges / histograms).
    pub metrics: MetricsRegistry,
    /// Causal workflow trace events.
    pub trace: TraceSink,
}

impl Obs {
    /// Enables both collectors.
    pub fn enabled() -> Self {
        Self {
            metrics: MetricsRegistry::new(),
            trace: TraceSink::new(),
        }
    }

    /// Disables both collectors (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether either collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.trace.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        assert!(!obs.metrics.is_enabled());
        assert!(!obs.trace.is_enabled());
    }

    #[test]
    fn enabled_obs_shares_storage_across_clones() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        let clone = obs.clone();
        clone.metrics.counter("x").inc();
        assert_eq!(obs.metrics.counter("x").get(), 1);
        clone.trace.record(TraceEvent {
            at_us: 1,
            host: 0,
            trace: 0,
            name: "e",
            phase: SpanPhase::Instant,
            dur_us: 0,
            detail: String::new(),
        });
        assert_eq!(obs.trace.len(), 1);
    }
}
