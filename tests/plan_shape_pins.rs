//! Plan-shape pins: FNV-1a digests of the plans the planner builds, so
//! "the same plans" is an equality rather than an inference.
//!
//! A plan's digest covers its header (grid size, drive style, flags, shard
//! grid) and, node by node in authored issue order, the node's kind, its
//! scope (numbered by first appearance, with label and phase), its
//! iteration and its dependency list (as issue positions, in list order).
//! The grid: every scheme at nt ∈ {1, 2, 3, 7, 12, 40, 80}; at nt ∈ {7, 12,
//! 40} the option axes that shape a plan (K ∈ {1, 3}, fused, placement
//! Gpu/Cpu/Inline, shard D ∈ {1, 2, 4}, a faulty run) and the lookahead-2
//! issue order; the two baselines; the plans a balancer leaves behind after
//! tail rewrites; and, one digest per nt ∈ 1..=20, every axis with the
//! default and a faulty run beside the baselines, plus a tail spliced at
//! every cut. A change to how plans are built, edited or given edges must
//! move no digest; on a mismatch the test prints this build's digests in
//! pasteable form.

use hchol::core::options::ShardOptions;
use hchol::core::plan::{for_cula, for_magma, for_scheme};
use hchol::gpusim::{EngineWindow, IssuePolicy};
use hchol::prelude::*;
use std::collections::HashMap;
use std::fmt::Write;

fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The plan as text: header, then one line per node in issue order.
fn shape_text(plan: &FactorPlan) -> String {
    let pos: HashMap<_, usize> = plan
        .order()
        .iter()
        .enumerate()
        .map(|(p, &id)| (id, p))
        .collect();
    let mut scopes: HashMap<usize, usize> = HashMap::new();
    let mut out = format!(
        "nt {} {:?} defer {} faulty {} mirrors {} shard {:?}\n",
        plan.nt, plan.style, plan.defer_potf2_error, plan.faulty, plan.cpu_mirrors, plan.shard
    );
    for &id in plan.order() {
        let n = plan.node(id);
        let scope = n.scope.map(|s| {
            let next = scopes.len();
            let spec = &plan.scopes()[s.0];
            let k = *scopes.entry(s.0).or_insert(next);
            format!("{k} {} {:?}", spec.label, spec.phase)
        });
        let deps: Vec<usize> = plan.deps(id).iter().map(|d| pos[d]).collect();
        let _ = writeln!(out, "{:?} | {scope:?} | {:?} | {deps:?}", n.kind, n.iter);
    }
    out
}

fn gpu() -> AbftOptions {
    AbftOptions::default().with_placement(ChecksumPlacement::Gpu)
}

/// `(what, digest)` for every plan of the grid, in a fixed order.
fn digests() -> Vec<(String, u64)> {
    let mut got = Vec::new();
    let schemes = [
        SchemeKind::Enhanced,
        SchemeKind::Online,
        SchemeKind::Offline,
    ];
    for nt in [1, 2, 3, 7, 12, 40, 80] {
        for kind in schemes {
            let plan = for_scheme(kind, nt, &gpu(), false);
            got.push((format!("{kind:?} nt={nt}"), fnv(&shape_text(&plan))));
        }
    }
    let axes: [(&str, AbftOptions, bool); 9] = [
        ("k3", gpu().with_interval(3), false),
        ("fused", gpu().with_chk_fused(true), false),
        ("cpu", gpu().with_placement(ChecksumPlacement::Cpu), false),
        (
            "inline",
            gpu().with_placement(ChecksumPlacement::Inline),
            false,
        ),
        ("d1", gpu().with_shard(ShardOptions::new(1)), false),
        ("d2", gpu().with_shard(ShardOptions::new(2)), false),
        ("d4", gpu().with_shard(ShardOptions::new(4)), false),
        (
            "faulty cpu k3",
            gpu()
                .with_placement(ChecksumPlacement::Cpu)
                .with_interval(3),
            true,
        ),
        (
            "fused k3",
            gpu().with_chk_fused(true).with_interval(3),
            false,
        ),
    ];
    for nt in [7, 12, 40] {
        for (name, opts, faulty) in &axes {
            for kind in schemes {
                let plan = for_scheme(kind, nt, opts, *faulty);
                got.push((format!("{kind:?} nt={nt} {name}"), fnv(&shape_text(&plan))));
            }
        }
        for kind in schemes {
            let plan = for_scheme(kind, nt, &gpu().with_lookahead(2), false);
            let order = plan.to_schedule().issue_order(IssuePolicy::Lookahead(2));
            got.push((
                format!("{kind:?} nt={nt} lookahead2 order"),
                fnv(&format!("{order:?}")),
            ));
        }
        got.push((format!("magma nt={nt}"), fnv(&shape_text(&for_magma(nt)))));
        got.push((format!("cula nt={nt}"), fnv(&shape_text(&for_cula(nt)))));
    }
    got.extend(rewritten());
    got.extend(every_small_grid());
    got
}

/// One digest per nt ∈ 1..=20 over every option axis plus the default and
/// a faulty run, all three schemes, and both baselines: the grid the
/// `derive_deps` oracle sweeps, edge list for edge list.
fn every_small_grid() -> Vec<(String, u64)> {
    let mut configs: Vec<(AbftOptions, bool)> = vec![(gpu(), false), (gpu(), true)];
    configs.extend(
        [
            gpu().with_interval(3),
            gpu().with_chk_fused(true),
            gpu().with_placement(ChecksumPlacement::Cpu),
            gpu().with_placement(ChecksumPlacement::Inline),
            gpu().with_shard(ShardOptions::new(2)),
            gpu().with_shard(ShardOptions::new(4)),
        ]
        .map(|opts| (opts, false)),
    );
    configs.push((
        gpu()
            .with_placement(ChecksumPlacement::Cpu)
            .with_interval(3),
        true,
    ));
    let mut got: Vec<(String, u64)> = (1..=20)
        .map(|nt| {
            let mut text = String::new();
            for (opts, faulty) in &configs {
                for kind in [
                    SchemeKind::Enhanced,
                    SchemeKind::Online,
                    SchemeKind::Offline,
                ] {
                    text += &shape_text(&for_scheme(kind, nt, opts, *faulty));
                }
            }
            text += &shape_text(&for_magma(nt));
            text += &shape_text(&for_cula(nt));
            (format!("grid nt={nt}"), fnv(&text))
        })
        .collect();
    // A CPU-placement, K = 3 tail spliced into a GPU plan at every cut.
    let opts = gpu().with_balance(BalanceOptions::default().with_k_bounds(1, 3));
    let mut ctrl = BalanceController::new(SchemeKind::Enhanced, &opts);
    ctrl.step_window(2, quiet_window(0.9, 0.1, 0.6), 0);
    ctrl.step_window(4, quiet_window(0.5, 0.5, 0.0), 0);
    let mut text = String::new();
    for cut in 0..9 {
        let mut plan = for_scheme(SchemeKind::Enhanced, 9, &gpu(), false);
        ctrl.rewrite(&mut plan, cut);
        text += &shape_text(&plan);
    }
    got.push(("Enhanced nt=9 splice at every cut".into(), fnv(&text)));
    got
}

/// A controller window with an idle link.
fn quiet_window(gpu_util: f64, cpu_util: f64, queue_frac: f64) -> Option<EngineWindow> {
    Some(EngineWindow {
        wall_secs: 1.0,
        gpu_util,
        cpu_util,
        dma_util: 0.0,
        queue_frac,
    })
}

/// A balancer's tail rewrites: GPU → CPU placement with K relaxing to 3 at
/// iteration 4, then back to the GPU with K = 1 at iteration 8.
fn rewritten() -> Vec<(String, u64)> {
    let mut got = Vec::new();
    for kind in [
        SchemeKind::Enhanced,
        SchemeKind::Online,
        SchemeKind::Offline,
    ] {
        let opts = gpu().with_balance(BalanceOptions::default().with_k_bounds(1, 3));
        let mut ctrl = BalanceController::new(kind, &opts);
        let mut plan = ctrl.plan(12, false);
        ctrl.step_window(2, quiet_window(0.9, 0.1, 0.6), 0);
        ctrl.step_window(4, quiet_window(0.5, 0.5, 0.0), 0);
        ctrl.rewrite(&mut plan, 4);
        got.push((format!("{kind:?} rewrite@4"), fnv(&shape_text(&plan))));
        ctrl.step_window(8, quiet_window(0.1, 0.9, 0.0), 1);
        ctrl.rewrite(&mut plan, 8);
        got.push((format!("{kind:?} rewrite@8"), fnv(&shape_text(&plan))));
    }
    got
}

#[test]
fn plan_shapes_are_pinned_to_the_captured_digests() {
    // Every digest holds on the commit before plan edits became link
    // updates, once its renders leave out the `propagate` field the
    // Syrk / GemmPanel / TrsmPanel kinds carried until the fault ledger
    // read their declared tiles instead (the nine lookahead orders never
    // rendered a kind and did not move).
    let pins: [(&str, u64); 144] = [
        ("Enhanced nt=1", 0x10567bda54f218a9),
        ("Online nt=1", 0x2b2cd844583ac366),
        ("Offline nt=1", 0x2004fa321fe7750b),
        ("Enhanced nt=2", 0x6145d1c9abe62013),
        ("Online nt=2", 0xd3fd3e13699ec075),
        ("Offline nt=2", 0x078c540edca790b4),
        ("Enhanced nt=3", 0xd55d33339a1c2e01),
        ("Online nt=3", 0x7c1af80ca4f70245),
        ("Offline nt=3", 0x6b1e62567865acd7),
        ("Enhanced nt=7", 0xc0441e0233a97144),
        ("Online nt=7", 0x90d2b833bcd206c0),
        ("Offline nt=7", 0xbed74e13cc91663b),
        ("Enhanced nt=12", 0x8cc1be52a902c39f),
        ("Online nt=12", 0x117e64438eedd755),
        ("Offline nt=12", 0xa78affe02b421351),
        ("Enhanced nt=40", 0x93730576d0eda00a),
        ("Online nt=40", 0xb2119dcc96fcb87f),
        ("Offline nt=40", 0x9020a4f1ad5b2869),
        ("Enhanced nt=80", 0xd0d7c795c226c742),
        ("Online nt=80", 0x444d3617b9d2be8d),
        ("Offline nt=80", 0xa2798c11ee733a12),
        ("Enhanced nt=7 k3", 0xa09291f94a7c71fb),
        ("Online nt=7 k3", 0x90d2b833bcd206c0),
        ("Offline nt=7 k3", 0xbed74e13cc91663b),
        ("Enhanced nt=7 fused", 0x2f5b003c685c4997),
        ("Online nt=7 fused", 0x90d2b833bcd206c0),
        ("Offline nt=7 fused", 0xbed74e13cc91663b),
        ("Enhanced nt=7 cpu", 0x84043d601ff9405d),
        ("Online nt=7 cpu", 0x1599253b141c3f9b),
        ("Offline nt=7 cpu", 0xc0b7c2c42072bd92),
        ("Enhanced nt=7 inline", 0xc0441e0233a97144),
        ("Online nt=7 inline", 0x90d2b833bcd206c0),
        ("Offline nt=7 inline", 0xbed74e13cc91663b),
        ("Enhanced nt=7 d1", 0xc0441e0233a97144),
        ("Online nt=7 d1", 0x90d2b833bcd206c0),
        ("Offline nt=7 d1", 0xbed74e13cc91663b),
        ("Enhanced nt=7 d2", 0xfc8d76dfaf31faba),
        ("Online nt=7 d2", 0x0b6df97509eae323),
        ("Offline nt=7 d2", 0xd50d4b00985ffe2e),
        ("Enhanced nt=7 d4", 0xd29cc1b1e2d79c5c),
        ("Online nt=7 d4", 0xf078872238f0ef94),
        ("Offline nt=7 d4", 0x08e310bc2cb15267),
        ("Enhanced nt=7 faulty cpu k3", 0xcccf9b5a716df045),
        ("Online nt=7 faulty cpu k3", 0xa2d7bc1fab386823),
        ("Offline nt=7 faulty cpu k3", 0x434a51324dd6f84e),
        ("Enhanced nt=7 fused k3", 0x08eda336ab45db87),
        ("Online nt=7 fused k3", 0x90d2b833bcd206c0),
        ("Offline nt=7 fused k3", 0xbed74e13cc91663b),
        ("Enhanced nt=7 lookahead2 order", 0xa4fe1b045715b225),
        ("Online nt=7 lookahead2 order", 0x49a1940e6d6cc569),
        ("Offline nt=7 lookahead2 order", 0xb7a927607014e41c),
        ("magma nt=7", 0x4cda1f457d7f86c3),
        ("cula nt=7", 0x476a90a81e2d2ba1),
        ("Enhanced nt=12 k3", 0x6cd2e879f5f21b21),
        ("Online nt=12 k3", 0x117e64438eedd755),
        ("Offline nt=12 k3", 0xa78affe02b421351),
        ("Enhanced nt=12 fused", 0x700f9f040a60e888),
        ("Online nt=12 fused", 0x117e64438eedd755),
        ("Offline nt=12 fused", 0xa78affe02b421351),
        ("Enhanced nt=12 cpu", 0x664f81b30f0bc676),
        ("Online nt=12 cpu", 0x1c779302cc8ed160),
        ("Offline nt=12 cpu", 0x114fb0f44ee3a506),
        ("Enhanced nt=12 inline", 0x8cc1be52a902c39f),
        ("Online nt=12 inline", 0x117e64438eedd755),
        ("Offline nt=12 inline", 0xa78affe02b421351),
        ("Enhanced nt=12 d1", 0x8cc1be52a902c39f),
        ("Online nt=12 d1", 0x117e64438eedd755),
        ("Offline nt=12 d1", 0xa78affe02b421351),
        ("Enhanced nt=12 d2", 0x72fc34763a360c41),
        ("Online nt=12 d2", 0xd4383f6c9ec47718),
        ("Offline nt=12 d2", 0xe4f9b013e2b29ba3),
        ("Enhanced nt=12 d4", 0xb5c30041fea3bb04),
        ("Online nt=12 d4", 0x34db0eac4ea35e24),
        ("Offline nt=12 d4", 0x94c9e9307f429065),
        ("Enhanced nt=12 faulty cpu k3", 0x20dad4e9fefced92),
        ("Online nt=12 faulty cpu k3", 0xf5c27fcd901db33b),
        ("Offline nt=12 faulty cpu k3", 0x3a3082e91e996360),
        ("Enhanced nt=12 fused k3", 0xafa97381288f009c),
        ("Online nt=12 fused k3", 0x117e64438eedd755),
        ("Offline nt=12 fused k3", 0xa78affe02b421351),
        ("Enhanced nt=12 lookahead2 order", 0x3dedd364ca7a1fb8),
        ("Online nt=12 lookahead2 order", 0x07e973ecbadf3639),
        ("Offline nt=12 lookahead2 order", 0x0a0a80741222d32a),
        ("magma nt=12", 0xb3ffaf9dd8e9cb38),
        ("cula nt=12", 0xa376f4fd2feb5756),
        ("Enhanced nt=40 k3", 0x1ce85c9781aa2f72),
        ("Online nt=40 k3", 0xb2119dcc96fcb87f),
        ("Offline nt=40 k3", 0x9020a4f1ad5b2869),
        ("Enhanced nt=40 fused", 0x1682c4bf3748355e),
        ("Online nt=40 fused", 0xb2119dcc96fcb87f),
        ("Offline nt=40 fused", 0x9020a4f1ad5b2869),
        ("Enhanced nt=40 cpu", 0x9076533b441451f7),
        ("Online nt=40 cpu", 0xf18f92bce7bc1eec),
        ("Offline nt=40 cpu", 0x56485a396d76795b),
        ("Enhanced nt=40 inline", 0x93730576d0eda00a),
        ("Online nt=40 inline", 0xb2119dcc96fcb87f),
        ("Offline nt=40 inline", 0x9020a4f1ad5b2869),
        ("Enhanced nt=40 d1", 0x93730576d0eda00a),
        ("Online nt=40 d1", 0xb2119dcc96fcb87f),
        ("Offline nt=40 d1", 0x9020a4f1ad5b2869),
        ("Enhanced nt=40 d2", 0xf72c9e33bf8b5d63),
        ("Online nt=40 d2", 0x5ada6a6e152d79b4),
        ("Offline nt=40 d2", 0x481551d22e3e6ef4),
        ("Enhanced nt=40 d4", 0xd35f5fe1e5f72069),
        ("Online nt=40 d4", 0x4f3cd67b9e4f1a9b),
        ("Offline nt=40 d4", 0xf047baeed6325f85),
        ("Enhanced nt=40 faulty cpu k3", 0x6a7a6bbc1663c335),
        ("Online nt=40 faulty cpu k3", 0x2fe0b3c6bf1d4086),
        ("Offline nt=40 faulty cpu k3", 0x45bf7c3bd6f88201),
        ("Enhanced nt=40 fused k3", 0xc215778d3c98c208),
        ("Online nt=40 fused k3", 0xb2119dcc96fcb87f),
        ("Offline nt=40 fused k3", 0x9020a4f1ad5b2869),
        ("Enhanced nt=40 lookahead2 order", 0x3d3507bf0badd55c),
        ("Online nt=40 lookahead2 order", 0xfa099aa9d79ec524),
        ("Offline nt=40 lookahead2 order", 0x94930e6ed59de084),
        ("magma nt=40", 0x7b62fafd32c081b4),
        ("cula nt=40", 0x2e8dddb3206e0e0d),
        ("Enhanced rewrite@4", 0xbdd97d637955c7dd),
        ("Enhanced rewrite@8", 0xe3f777bcaa4e35fb),
        ("Online rewrite@4", 0xe6d2b34450c6bbde),
        ("Online rewrite@8", 0x3fc365d631a309b5),
        ("Offline rewrite@4", 0xe52e844de24aa41f),
        ("Offline rewrite@8", 0xce3e9d798f9d017a),
        ("grid nt=1", 0x2afac9305d400f3e),
        ("grid nt=2", 0xc0d821bbe5442395),
        ("grid nt=3", 0xf8d3d28b1efb5008),
        ("grid nt=4", 0xd07a72e09d2c121a),
        ("grid nt=5", 0x3925ba53ee9adec0),
        ("grid nt=6", 0x8363bb77a1ccd389),
        ("grid nt=7", 0xe35cb3a3e2dd7672),
        ("grid nt=8", 0x15cd1321d8702993),
        ("grid nt=9", 0x5f9a2cfaa6fb7ccd),
        ("grid nt=10", 0x5f6d60e66c64a651),
        ("grid nt=11", 0x4ea0a13737e7ace4),
        ("grid nt=12", 0x3ad77e7465496880),
        ("grid nt=13", 0x27ae2ad852cec3a6),
        ("grid nt=14", 0xa26c0464d5027ac5),
        ("grid nt=15", 0x078baf96d86509ab),
        ("grid nt=16", 0x33c7fbb238d6cd07),
        ("grid nt=17", 0x639261dd19c7a566),
        ("grid nt=18", 0xa11e31d7dbc6c274),
        ("grid nt=19", 0xc4f009c79825db2d),
        ("grid nt=20", 0x6c4e4c5595b2e385),
        ("Enhanced nt=9 splice at every cut", 0x8df04cfc7ad2003e),
    ];
    let got = digests();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(w, d)| (w.as_str(), *d)).collect();
    assert_eq!(got_ref, pins, "this build's pins: {got_ref:#x?}");
}
