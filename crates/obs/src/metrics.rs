//! Named metrics: integer counters, f64 accumulators, gauges, and
//! log₂-bucketed virtual-time histograms.
//!
//! Naming convention (dot-separated, lowercase; the suffix after the last
//! dot is the label value):
//!
//! | key pattern                    | type    | unit  | meaning |
//! |--------------------------------|---------|-------|---------|
//! | `kernels.class.<class>`        | counter | count | kernels launched per kernel-class label |
//! | `busy_secs.class.<class>`      | sum     | s     | scheduled kernel-seconds per class |
//! | `busy_secs.engine.<engine>`    | sum     | s     | kernel/task-seconds per engine (`gpu`, `host`, `cpu_workers`, `dma_h2d`, `dma_d2h`) |
//! | `flops.cat.<category>`         | counter | flops | charged flops per work category |
//! | `pcie.bytes.<dir>`             | counter | bytes | transferred bytes per direction (`h2d`, `d2h`) |
//! | `transfers.<dir>`              | counter | count | DMA operations per direction |
//! | `sched.queue_delay_secs`       | sum     | s     | kernel start delays imposed by the concurrency limiter |
//! | `verify.*`                     | counter | count | verification batches/tiles, detections, corrections |
//! | `faults.injected`              | counter | count | faults that actually struck |
//! | `idle_secs.<engine>` (gauge)   | gauge   | s     | set at report time: `total − busy_secs.engine.<engine>` |
//! | `kernel_secs.class.<class>`    | histogram | s   | per-kernel duration distribution |
//!
//! Engine busy sums are *kernel-seconds*: with concurrent kernel execution
//! the GPU sum can exceed wall time, so the derived idle gauges are floors
//! (clamped at zero), not exact occupancy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The registry's key hasher: FxHash's rotate-xor-multiply over 8-byte
/// words. A simulated kernel updates five metrics, so SipHash's rounds on
/// every name were a measurable share of a launch; these keys are the
/// workspace's own metric names, so a deterministic, non-cryptographic
/// hash is enough. Output does not depend on it: maps serialize sorted.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for &word in words {
            self.add(u64::from_le_bytes(word));
        }
        if !tail.is_empty() {
            self.add(tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// A metric-name-keyed map, hashed with [`KeyHasher`].
pub type MetricMap<V> = HashMap<String, V, BuildHasherDefault<KeyHasher>>;

/// Number of log₂ buckets in a [`Histogram`] (spanning 1 ns … ~18 min).
pub const HISTOGRAM_BUCKETS: usize = 40;
const HISTOGRAM_BASE: f64 = 1e-9;

/// A log₂-bucketed distribution of virtual-time observations.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (seconds).
    pub sum: f64,
    /// Smallest observation, `None` until the first one.
    pub min: Option<f64>,
    /// Largest observation, `None` until the first one.
    pub max: Option<f64>,
    /// Bucket `i` counts observations in `[1e-9·2^i, 1e-9·2^(i+1))`,
    /// clamped at both ends.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one observation (seconds).
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
        self.buckets[Self::bucket_index(x)] += 1;
    }

    /// Which bucket an observation lands in.
    pub fn bucket_index(x: f64) -> usize {
        if x <= HISTOGRAM_BASE {
            return 0;
        }
        let idx = (x / HISTOGRAM_BASE).log2().floor() as isize;
        idx.clamp(0, HISTOGRAM_BUCKETS as isize - 1) as usize
    }
}

/// The registry: four maps from metric name to value.
///
/// All maps serialize with sorted keys (the serde shim sorts `HashMap`
/// output), so JSON reports are deterministic.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsRegistry {
    /// Monotone integer counters.
    pub counts: MetricMap<u64>,
    /// Monotone f64 accumulators (mostly seconds).
    pub sums: MetricMap<f64>,
    /// Last-write-wins values set at report-finalize time.
    pub gauges: MetricMap<f64>,
    /// Virtual-time distributions.
    pub histograms: MetricMap<Histogram>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment counter `name` by 1.
    pub fn inc(&mut self, name: &str) {
        self.add_count(name, 1);
    }

    /// Increment counter `name` by `n`.
    pub fn add_count(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counts.get_mut(name) {
            *v += n;
        } else {
            self.counts.insert(name.to_string(), n);
        }
    }

    /// Add `x` to accumulator `name`.
    pub fn add_f64(&mut self, name: &str, x: f64) {
        if let Some(v) = self.sums.get_mut(name) {
            *v += x;
        } else {
            self.sums.insert(name.to_string(), x);
        }
    }

    /// Set gauge `name` to `x`.
    pub fn set_gauge(&mut self, name: &str, x: f64) {
        if let Some(v) = self.gauges.get_mut(name) {
            *v = x;
        } else {
            self.gauges.insert(name.to_string(), x);
        }
    }

    /// Record an observation into histogram `name`.
    pub fn observe(&mut self, name: &str, x: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(x);
        } else {
            let mut h = Histogram::default();
            h.observe(x);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Counter value (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Accumulator value (0.0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if any observation was recorded under `name`.
    // lint:allow(dead-pub) registry reader: the recorder's tests read histograms with it
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
            && self.sums.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_sums_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("kernels.class.Blas3");
        m.add_count("kernels.class.Blas3", 2);
        m.add_f64("busy_secs.engine.gpu", 1.5);
        m.add_f64("busy_secs.engine.gpu", 0.5);
        assert_eq!(m.count("kernels.class.Blas3"), 3);
        assert!((m.sum("busy_secs.engine.gpu") - 2.0).abs() < 1e-12);
        assert_eq!(m.count("missing"), 0);
        assert_eq!(m.sum("missing"), 0.0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.observe(1e-9); // bucket 0
        h.observe(3e-9); // bucket 1 (2–4 ns)
        h.observe(1.0); // high bucket
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.min, Some(1e-9));
        assert_eq!(h.max, Some(1.0));
        assert!(Histogram::bucket_index(1.0) > 25);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("idle_secs.gpu", 1.0);
        m.set_gauge("idle_secs.gpu", 2.0);
        assert_eq!(m.gauge("idle_secs.gpu"), Some(2.0));
    }
}
