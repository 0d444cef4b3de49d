//! Boundary behaviour of the driver context: empty programs, zero-size
//! transfers, event semantics, and worker-lane load balancing.

use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
use hchol_gpusim::profile::{KernelClass, SystemProfile};
use hchol_gpusim::{AccessSet, ExecMode, Lane, SimContext};

fn ctx() -> SimContext {
    SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly)
}

fn desc(flops: u64) -> KernelDesc {
    KernelDesc::new("k", KernelClass::Blas3, flops, WorkCategory::Factorization)
}

#[test]
fn syncs_on_an_idle_machine_are_free() {
    let mut c = ctx();
    c.sync_device();
    c.sync_cpu_workers();
    c.sync_all();
    assert_eq!(c.now().as_secs(), 0.0);
}

#[test]
fn event_recorded_before_any_work_is_at_time_zero() {
    let mut c = ctx();
    let s = c.default_stream();
    let e = c.record_event(s);
    c.launch(s, desc(1_000_000_000), |_| {});
    let waiter = c.create_stream();
    c.stream_wait_event(waiter, e);
    c.sync_stream(waiter);
    // The event captured the frontier *before* the kernel.
    assert_eq!(c.now().as_secs(), 0.0);
}

#[test]
fn event_is_a_snapshot_not_a_live_reference() {
    let mut c = ctx();
    let s = c.default_stream();
    c.launch(s, desc(1_000_000_000), |_| {});
    let e = c.record_event(s);
    c.launch(s, desc(1_000_000_000), |_| {});
    let waiter = c.create_stream();
    c.stream_wait_event(waiter, e);
    c.sync_stream(waiter);
    let t = c.now().as_secs();
    assert!(
        (1.0..1.5).contains(&t),
        "waited only for the first kernel: {t}"
    );
}

#[test]
fn zero_byte_transfer_costs_only_latency() {
    let mut c = SimContext::new(
        SystemProfile::test_profile(), // zero pcie latency in the test rig
        ExecMode::TimingOnly,
    );
    let s = c.default_stream();
    c.bulk_transfer_with_access(0, s, true, AccessSet::none(), |_, _| {});
    c.sync_stream(s);
    assert_eq!(c.now().as_secs(), 0.0);
}

#[test]
fn cpu_submit_balances_across_lanes() {
    let mut c = ctx(); // 2 worker lanes in the test profile
    for _ in 0..4 {
        c.cpu_submit(
            KernelDesc::new(
                "t",
                KernelClass::Blas2,
                1_000_000_000,
                WorkCategory::ChecksumUpdate,
            ),
            |_, _| {},
        );
    }
    c.sync_cpu_workers();
    // 4 × 1s tasks over 2 lanes ⇒ 2s, not 4s.
    assert!((c.now().as_secs() - 2.0).abs() < 1e-9);
}

#[test]
fn timeline_disabled_still_counts_work() {
    let mut c = ctx();
    c.disable_timeline();
    let s = c.default_stream();
    c.launch(s, desc(123), |_| {});
    assert_eq!(c.log.ops().count(), 0);
    assert_eq!(c.obs.metrics.count("flops.cat.Factorization"), 123);
}

#[test]
fn execute_mode_transfer_moves_real_tiles() {
    let mut c = SimContext::new(SystemProfile::test_profile(), ExecMode::Execute);
    let dev = c
        .dev_mem
        .alloc(hchol_matrix::TileMatrix::zeros(2, 2, 2).unwrap());
    let host = c.host_mem.alloc(hchol_matrix::Matrix::filled(2, 2, 5.0));
    let s = c.default_stream();
    c.bulk_transfer_with_access(32, s, true, AccessSet::none(), move |d, h| {
        *d.tile_mut(dev, 0, 0) = h.buf(host).clone();
    });
    c.sync_stream(s);
    assert_eq!(c.dev_mem.tile(dev, 0, 0).get(1, 1), 5.0);
}

#[test]
fn gantt_of_a_real_run_contains_all_lanes() {
    let mut c = ctx();
    let s = c.default_stream();
    c.launch(s, desc(1_000_000_000), |_| {});
    c.cpu_exec(
        KernelDesc::new(
            "p",
            KernelClass::Potf2,
            500_000_000,
            WorkCategory::Factorization,
        ),
        |_| {},
    );
    c.bulk_transfer_with_access(1_000_000, s, false, AccessSet::none(), |_, _| {});
    c.sync_all();
    let g = c.log.ascii_gantt(60);
    assert!(g.contains("gpu/stream0"));
    assert!(g.contains("cpu/main"));
    assert!(g.contains("copy/d2h"));
    assert!(!c.log.utilization_summary().is_empty());
    assert_eq!(c.log.lane_busy(Lane::CpuWorker(0)).as_secs(), 0.0);
}
