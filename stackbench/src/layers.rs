//! Per-layer readings shared by the workloads: the program's public
//! metrics registry, read after the run, and the wire codec timed on the
//! workload's own fragments.

use std::sync::Arc;
use std::time::Instant;

use openwf_core::Fragment;
use openwf_obs::{MetricsRegistry, HISTOGRAM_BUCKETS};
use openwf_wire::{DecodeScratch, VocabularyBudget};
use serde::Value;

use crate::report::{median, per, Metrics};

fn entry<'a>(map: &'a Value, key: &str) -> Option<&'a Value> {
    match map {
        Value::Map(pairs) => pairs
            .iter()
            .find(|(k, _)| matches!(k, Value::Str(s) if s == key))
            .map(|(_, v)| v),
        _ => None,
    }
}

/// The 99th percentile of a registry histogram, as the upper bound of
/// the power-of-two bucket it falls in (bucket `i > 0` holds values of
/// bit length `i`). 0 when the histogram is empty or absent.
pub fn histogram_p99(registry: &MetricsRegistry, name: &str) -> f64 {
    let snapshot = registry.snapshot();
    let Some(Value::Seq(buckets)) = entry(&snapshot, "histograms")
        .and_then(|h| entry(h, name))
        .and_then(|h| entry(h, "buckets"))
    else {
        return 0.0;
    };
    let counts: Vec<u64> = buckets
        .iter()
        .map(|b| if let Value::U64(n) = b { *n } else { 0 })
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (total * 99).div_ceil(100);
    let mut seen = 0;
    for (i, n) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS) {
        seen += n;
        if seen >= target {
            return if i == 0 {
                0.0
            } else {
                ((1u128 << i) - 1) as f64
            };
        }
    }
    0.0
}

/// `runtime.*` readings from the cores' counters and histograms.
pub fn runtime_registry(m: &mut Metrics, reg: &MetricsRegistry, completed: f64) {
    m.put(
        "runtime.messages_per_wf",
        per(reg.counter("core.messages").get() as f64, completed),
        "count",
    );
    m.put(
        "runtime.timer_lag_us_p99",
        histogram_p99(reg, "core.timer_lag_us"),
        "us",
    );
    m.put(
        "runtime.queue_depth_p99",
        histogram_p99(reg, "core.queue_depth"),
        "count",
    );
}

/// `wire.*` readings from the decode path's published counters.
pub fn decode_registry(m: &mut Metrics, reg: &MetricsRegistry, completed: f64) {
    let hits = reg.counter("decode.cache_hits").get() as f64;
    let misses = reg.counter("decode.cache_misses").get() as f64;
    m.put(
        "wire.decode_frames_per_wf",
        per(reg.counter("decode.frames").get() as f64, completed),
        "count",
    );
    m.put(
        "wire.decode_cache_hit_ratio",
        per(hits, hits + misses),
        "ratio",
    );
}

/// Times `encode_fragment` and `decode_fragment_with` (fragment cache
/// off, so every decode does the work) over `fragments`, in passes of
/// about 20,000 fragments; reports the median nanoseconds per fragment.
pub fn wire_codec(m: &mut Metrics, fragments: &[Arc<Fragment>]) {
    const PASSES: usize = 7;
    let reps = (20_000 / fragments.len().max(1)).max(1);
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(fragments.len());
    let mut encode = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t = Instant::now();
        for _ in 0..reps {
            frames.clear();
            for f in fragments {
                let mut out = Vec::new();
                openwf_wire::encode_fragment(std::hint::black_box(f), &mut out);
                frames.push(out);
            }
        }
        encode.push(t.elapsed().as_nanos() as f64 / (reps * fragments.len()) as f64);
    }
    let mut decode = Vec::with_capacity(PASSES);
    let mut budget = VocabularyBudget::unlimited();
    for _ in 0..PASSES {
        let mut scratch = DecodeScratch::with_cache_capacity(0);
        let t = Instant::now();
        for _ in 0..reps {
            for frame in &frames {
                let decoded = openwf_wire::decode_fragment_with(frame, &mut budget, &mut scratch)
                    .expect("a frame this process encoded decodes");
                std::hint::black_box(decoded);
            }
        }
        decode.push(t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64);
    }
    m.put("wire.encode_fragment_ns", median(&mut encode), "ns");
    m.put("wire.decode_fragment_ns", median(&mut decode), "ns");
}
