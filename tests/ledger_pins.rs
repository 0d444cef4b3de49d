//! Fault-ledger pins: in TimingOnly mode no data exists, so the injector's
//! ledger alone decides what every verification finds, and the RunReport of
//! a faulted TimingOnly run is a function of how the ledger propagates
//! corruption through the plan. These pins hold one FNV-1a digest per
//! (scheme × configuration) over the `report().to_json()` of every
//! single-fault TimingOnly run on the grid n = 96, b = 16 (nt = 6): each of
//! the 30 fault points (five per iteration) × each of the 21 lower-triangle
//! tiles. The fault kind is irrelevant here (TimingOnly ignores it), and
//! Execute outcomes never read the ledger, so the pins cover exactly what a
//! change to the ledger's propagation rule could move. On a mismatch the
//! test prints this build's digests in pasteable form. The grid takes
//! minutes in a debug build, so the test runs in release builds only:
//! `cargo test --release --test ledger_pins`.

use hchol::core::options::ShardOptions;
use hchol::prelude::*;
use hchol_faults::{FaultClass, FaultSite, InjectionPoint};

const N: usize = 96;
const B: usize = 16;
const NT: usize = N / B;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn points() -> Vec<InjectionPoint> {
    (0..NT)
        .flat_map(|iter| {
            [
                InjectionPoint::IterStart { iter },
                InjectionPoint::PostSyrk { iter },
                InjectionPoint::PostGemm { iter },
                InjectionPoint::PostPotf2 { iter },
                InjectionPoint::PostTrsm { iter },
            ]
        })
        .collect()
}

/// The digest of every single-fault TimingOnly report of `kind` under
/// `opts`, in (point, tile) order.
fn digest(kind: SchemeKind, opts: &AbftOptions) -> u64 {
    let profile = SystemProfile::tardis();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for point in points() {
        for bj in 0..NT {
            for bi in bj..NT {
                let site = FaultSite {
                    point,
                    bi,
                    bj,
                    class: FaultClass::Computing,
                };
                let plan = FaultPlan::single(site.to_spec(B));
                let out = run_scheme(kind, &profile, ExecMode::TimingOnly, N, B, opts, plan, None)
                    .unwrap_or_else(|e| panic!("{kind:?} {site:?}: {e}"));
                h = fnv(h, out.report().to_json().as_bytes());
            }
        }
    }
    h
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn single_fault_timing_reports_are_pinned_to_the_captured_digests() {
    let configs = [
        ("default", AbftOptions::default()),
        ("k3", AbftOptions::default().with_interval(3)),
        (
            "shard2",
            AbftOptions::default().with_shard(ShardOptions::new(2)),
        ),
        ("fused", AbftOptions::default().with_chk_fused(true)),
    ];
    let pins: [(&str, u64); 12] = [
        ("Enhanced default", 0x0a04ab6ac775f2d0),
        ("Enhanced k3", 0xa049be1266377d77),
        ("Enhanced shard2", 0xd7071ae4c1f8f32b),
        ("Enhanced fused", 0x19a6b8094727533d),
        ("Online default", 0x68350f42acbc2791),
        ("Online k3", 0xd4e0c962a11539ed),
        ("Online shard2", 0x350728d2c65b4db3),
        ("Online fused", 0x85ab5fe16e5ad07d),
        ("Offline default", 0x4741230083a8e24b),
        ("Offline k3", 0x4fc6bcb9b3ef9253),
        ("Offline shard2", 0xa397e7c02c7b5d9d),
        ("Offline fused", 0x92e1d5037ca62dfb),
    ];
    let got: Vec<(String, u64)> = SchemeKind::all()
        .into_iter()
        .flat_map(|kind| {
            configs
                .iter()
                .map(move |(name, opts)| (format!("{kind:?} {name}"), digest(kind, opts)))
        })
        .collect();
    let want: Vec<(String, u64)> = pins.iter().map(|&(w, d)| (w.to_string(), d)).collect();
    assert_eq!(got, want, "this build's pins: {got:#x?}");
}
