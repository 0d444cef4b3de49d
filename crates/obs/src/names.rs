//! The central registry of observability names.
//!
//! Every metric, event-kind, and scope-span label used anywhere in the
//! workspace must match a pattern listed here. The `hchol-analyze` source
//! lint cross-checks string literals at `MetricsRegistry`/`Obs::event`/
//! `scope!` call sites against this registry, so a typo in a producer
//! (silently creating a parallel series) or in a consumer (silently reading
//! zeros) is a CI failure, not a data-quality incident.
//!
//! Patterns use `*` as a wildcard matching one or more characters; literals
//! built with `format!` normalize their `{...}` placeholders to `*` before
//! matching, so `format!("busy_secs.engine.{engine}")` and the concrete
//! `"busy_secs.engine.gpu"` both resolve against `busy_secs.engine.*`.

/// Registered metric-name patterns (counters, sums, gauges, histograms).
///
/// The naming convention is documented in [`crate::metrics`]: dot-separated
/// `family.dimension.value`, with virtual-time accumulators suffixed
/// `_secs`.
pub const METRICS: &[&str] = &[
    // Per-kernel scheduling (recorded by the simulator on every launch).
    "kernels.class.*",
    "busy_secs.class.*",
    "busy_secs.engine.*",
    "flops.cat.*",
    "kernel_secs.class.*",
    "sched.queue_delay_secs",
    // Transfers.
    "pcie.bytes.*",
    "transfers.*",
    // Derived idle time (report finalization).
    "idle_secs.*",
    // Verification pipeline.
    "verify.batches",
    "verify.tiles",
    "verify.detections",
    "verify.corrected_data",
    "verify.repaired_checksums",
    "verify.uncorrectable_columns",
    // Fused-epilogue verification (in-kernel checksum deposits): kernel /
    // flop / epilogue-time counters from the simulator, batch/tile counts
    // from the correct stage.
    "verify.fused.*",
    // Time on the separate recalculation kernels (the unfused pipeline),
    // reported side by side with `verify.fused.epilogue_secs`.
    "verify.recalc_secs",
    // Peak adaptive detection threshold of the run (gauge; recorded only
    // under `ToleranceModel::Adaptive` so fixed-threshold reports stay
    // byte-identical to the golden fixtures).
    "verify.threshold",
    // Fault injection.
    "faults.injected",
    // Feedback load balancer (plan::balance): controller invocations,
    // applied placement switches, current adaptive verify interval, and the
    // per-window utilization signals the feedback law read (gauges).
    "balance.updates",
    "balance.switches",
    "balance.k",
    "balance.gpu_util",
    "balance.cpu_util",
    "balance.dma_util",
    "balance.queue_frac",
    // Multi-device sharding (plan::shard): per-device compute busy time
    // and outbound link traffic, aggregate peer-link counters, the shard
    // grid size, per-device memory-pool gauges, the number of end-of-column
    // XOR parity refreshes, and the cost of the device-loss recovery pass.
    "shard.dev.*.busy_secs",
    "shard.dev.*.link_bytes",
    "shard.dev.*.mem_bytes",
    "shard.link.bytes",
    "shard.link.transfers",
    "shard.link.busy_secs",
    "shard.devices",
    "shard.parity_refreshes",
    "shard.recovery_secs",
    "shard.recovered_tiles",
    // Plan layer (recorded only off the byte-stable in-order path:
    // reordered attempts and batched runs).
    "plan.nodes",
    "plan.edges",
    "plan.reordered",
    "plan.batch.plans",
];

/// Registered event-kind patterns for [`crate::Obs::event`].
pub const EVENTS: &[&str] = &[
    "fault.injected",
    "fault.detected",
    "fault.corrected",
    "fault.uncorrectable",
    "run.restart",
    "run.failstop",
    "balance.rebalance",
    "device.lost",
    "device.recovered",
];

/// Registered scope-span label patterns (opened via `scope!` or
/// `SpanRecorder::open`). Op-span labels are kernel names and are not
/// registered — they are free-form by design.
pub const SCOPES: &[&str] = &[
    "* n=* b=*", // run roots: "<scheme> n=.. b=..", "MAGMA n=..", "CULA n=.."
    "attempt *",
    "iter *",
    "run",
    "setup",
    "reload",
    "encode",
    "syrk",
    "diag d2h",
    "gemm",
    "potf2",
    "trsm",
    "verify",
    "final verify",
    "drain",
    "restart drain",
];

/// Does `pattern` (with `*` wildcards) match `name` exactly?
///
/// `*` matches one or more arbitrary characters. A `*` in `name` (from a
/// normalized `format!` literal) only matches a `*` in the pattern at the
/// same position, so patterned producers must be registered as patterns.
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match p.first() {
            None => n.is_empty(),
            Some(b'*') => {
                if n.first() == Some(&b'*') {
                    return rec(&p[1..], &n[1..]);
                }
                // Consume one or more name characters.
                (1..=n.len()).any(|k| rec(&p[1..], &n[k..]))
            }
            Some(&c) => n.first() == Some(&c) && rec(&p[1..], &n[1..]),
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

fn registered_in(registry: &[&str], name: &str) -> bool {
    registry.iter().any(|p| pattern_matches(p, name))
}

/// Is `name` (a concrete or `*`-normalized metric name) registered?
pub fn metric_registered(name: &str) -> bool {
    registered_in(METRICS, name)
}

/// Is `kind` a registered event kind?
pub fn event_registered(kind: &str) -> bool {
    registered_in(EVENTS, kind)
}

/// Is `label` a registered scope-span label?
pub fn scope_registered(label: &str) -> bool {
    registered_in(SCOPES, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_names_match_wildcards() {
        assert!(metric_registered("busy_secs.engine.gpu"));
        assert!(metric_registered("kernels.class.Blas3"));
        assert!(metric_registered("verify.batches"));
        assert!(metric_registered("verify.fused.kernels"));
        assert!(metric_registered("verify.fused.epilogue_secs"));
        assert!(metric_registered("verify.threshold"));
        assert!(metric_registered("balance.updates"));
        assert!(metric_registered("balance.k"));
        assert!(!metric_registered("balance.kk"));
        assert!(!metric_registered("busy_secs.engine"));
        assert!(!metric_registered("kernels.klass.Blas3"));
    }

    #[test]
    fn normalized_format_literals_match() {
        // format!("idle_secs.{engine}") normalizes to "idle_secs.*".
        assert!(metric_registered("idle_secs.*"));
        assert!(metric_registered("flops.cat.*"));
        // A wildcard in the name does not unify with a literal segment.
        assert!(!metric_registered("verify.*"));
    }

    #[test]
    fn shard_names_registered() {
        assert!(metric_registered("shard.dev.*.busy_secs"));
        assert!(metric_registered("shard.dev.3.link_bytes"));
        assert!(metric_registered("shard.link.bytes"));
        assert!(metric_registered("shard.devices"));
        assert!(metric_registered("shard.parity_refreshes"));
        assert!(metric_registered("shard.recovery_secs"));
        assert!(!metric_registered("shard.dev.busy_secs"));
        assert!(event_registered("device.lost"));
        assert!(event_registered("device.recovered"));
    }

    #[test]
    fn events_and_scopes() {
        assert!(event_registered("fault.corrected"));
        assert!(event_registered("balance.rebalance"));
        assert!(!event_registered("fault.correted"));
        assert!(scope_registered("final verify"));
        assert!(scope_registered("iter *"));
        assert!(scope_registered("* n=* b=*"));
        assert!(!scope_registered("warmup"));
    }

    #[test]
    fn wildcard_needs_at_least_one_char() {
        assert!(!pattern_matches("transfers.*", "transfers."));
        assert!(pattern_matches("transfers.*", "transfers.h2d"));
        assert!(pattern_matches("* n=* b=*", "MAGMA n=1024 b=128"));
    }
}
