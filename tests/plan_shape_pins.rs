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
//! issue order, the two baselines and the right-looking variant; the plans
//! a balancer leaves behind after tail rewrites; and, one digest per nt ∈ 1..=20, every axis with the
//! default and a faulty run beside the baselines, plus a tail spliced at
//! every cut. A change to how plans are built, edited or given edges must
//! move no digest; on a mismatch the test prints this build's digests in
//! pasteable form.

use hchol::core::options::ShardOptions;
use hchol::core::plan::{for_cula, for_magma, for_outer, for_scheme};
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
        got.push((format!("outer nt={nt}"), fnv(&shape_text(&for_outer(nt)))));
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
    // Every digest but the three `outer` ones holds on the commit before
    // the Syrk / GemmPanel kinds named their update chain, once its
    // renders leave out the `cols: 0..j, ` field (the nine lookahead
    // orders never rendered a kind and did not move). The `outer` plans
    // are the right-looking form, whose chains are one column each.
    let pins: [(&str, u64); 147] = [
        ("Enhanced nt=1", 0x57ab90e5ee04324e),
        ("Online nt=1", 0xccd91b35585c6d14),
        ("Offline nt=1", 0x004d2675d28143c1),
        ("Enhanced nt=2", 0x53e6f4718280d564),
        ("Online nt=2", 0x042a4cc105451b93),
        ("Offline nt=2", 0xae6285dcde928e4a),
        ("Enhanced nt=3", 0xb8337041854e8d07),
        ("Online nt=3", 0x4f5eeb2b992b1261),
        ("Offline nt=3", 0x6ec163f0cdaf2f43),
        ("Enhanced nt=7", 0x75300fca543a7a2a),
        ("Online nt=7", 0x141e9b2c8fd54400),
        ("Offline nt=7", 0xd40e3242a5839b53),
        ("Enhanced nt=12", 0x7c90f559d12adad9),
        ("Online nt=12", 0x6a55270e07ad2585),
        ("Offline nt=12", 0xdb547ca9153db26b),
        ("Enhanced nt=40", 0x7aab18b98be3ad3a),
        ("Online nt=40", 0x1ecf47eaec8577c1),
        ("Offline nt=40", 0x84e3723eb4461e23),
        ("Enhanced nt=80", 0x3b1b1cbde965df6e),
        ("Online nt=80", 0x42b6182e795cc365),
        ("Offline nt=80", 0x067abcd9808ba67c),
        ("Enhanced nt=7 k3", 0x6146f48467e53ed9),
        ("Online nt=7 k3", 0x141e9b2c8fd54400),
        ("Offline nt=7 k3", 0xd40e3242a5839b53),
        ("Enhanced nt=7 fused", 0x6407a313697cc0df),
        ("Online nt=7 fused", 0x141e9b2c8fd54400),
        ("Offline nt=7 fused", 0xd40e3242a5839b53),
        ("Enhanced nt=7 cpu", 0x846e6bde072cfb5d),
        ("Online nt=7 cpu", 0x2040f107aa6cac93),
        ("Offline nt=7 cpu", 0xf640e5667ab6d1aa),
        ("Enhanced nt=7 inline", 0x75300fca543a7a2a),
        ("Online nt=7 inline", 0x141e9b2c8fd54400),
        ("Offline nt=7 inline", 0xd40e3242a5839b53),
        ("Enhanced nt=7 d1", 0x75300fca543a7a2a),
        ("Online nt=7 d1", 0x141e9b2c8fd54400),
        ("Offline nt=7 d1", 0xd40e3242a5839b53),
        ("Enhanced nt=7 d2", 0xb14a8c0e9d5de93a),
        ("Online nt=7 d2", 0x48be45a082a2d87d),
        ("Offline nt=7 d2", 0x37d851842124666c),
        ("Enhanced nt=7 d4", 0x805340b36608e38e),
        ("Online nt=7 d4", 0x4e1ed206fac82228),
        ("Offline nt=7 d4", 0x5328fa9cf944f943),
        ("Enhanced nt=7 faulty cpu k3", 0x1c36068b5eefa105),
        ("Online nt=7 faulty cpu k3", 0x81533aad96b0c293),
        ("Offline nt=7 faulty cpu k3", 0x8a46de4293eb2232),
        ("Enhanced nt=7 fused k3", 0x7840657465918727),
        ("Online nt=7 fused k3", 0x141e9b2c8fd54400),
        ("Offline nt=7 fused k3", 0xd40e3242a5839b53),
        ("Enhanced nt=7 lookahead2 order", 0xa4fe1b045715b225),
        ("Online nt=7 lookahead2 order", 0x49a1940e6d6cc569),
        ("Offline nt=7 lookahead2 order", 0xb7a927607014e41c),
        ("magma nt=7", 0x21515e75fd902f3b),
        ("cula nt=7", 0xc54cb3a3fead8ce1),
        ("outer nt=7", 0x3a7c287a62b06649),
        ("Enhanced nt=12 k3", 0xe33e036c1ee3adef),
        ("Online nt=12 k3", 0x6a55270e07ad2585),
        ("Offline nt=12 k3", 0xdb547ca9153db26b),
        ("Enhanced nt=12 fused", 0xcabd2a27a3ab8516),
        ("Online nt=12 fused", 0x6a55270e07ad2585),
        ("Offline nt=12 fused", 0xdb547ca9153db26b),
        ("Enhanced nt=12 cpu", 0x0d27d9c7b9d0dc78),
        ("Online nt=12 cpu", 0xfbc3cf5735f58c50),
        ("Offline nt=12 cpu", 0x9f60015b6631a9d2),
        ("Enhanced nt=12 inline", 0x7c90f559d12adad9),
        ("Online nt=12 inline", 0x6a55270e07ad2585),
        ("Offline nt=12 inline", 0xdb547ca9153db26b),
        ("Enhanced nt=12 d1", 0x7c90f559d12adad9),
        ("Online nt=12 d1", 0x6a55270e07ad2585),
        ("Offline nt=12 d1", 0xdb547ca9153db26b),
        ("Enhanced nt=12 d2", 0xf160a967961e6659),
        ("Online nt=12 d2", 0x157fcd8cdcda88de),
        ("Offline nt=12 d2", 0x6780c9dc633fbac5),
        ("Enhanced nt=12 d4", 0x7755af02b86cc36b),
        ("Online nt=12 d4", 0x85c9f03b824bf0d3),
        ("Offline nt=12 d4", 0xe95e059297e23b52),
        ("Enhanced nt=12 faulty cpu k3", 0x56060e413f42c926),
        ("Online nt=12 faulty cpu k3", 0xe732743b3897ea31),
        ("Offline nt=12 faulty cpu k3", 0xc2dc2a9009604a50),
        ("Enhanced nt=12 fused k3", 0x40dc234bab65d4fe),
        ("Online nt=12 fused k3", 0x6a55270e07ad2585),
        ("Offline nt=12 fused k3", 0xdb547ca9153db26b),
        ("Enhanced nt=12 lookahead2 order", 0x3dedd364ca7a1fb8),
        ("Online nt=12 lookahead2 order", 0x07e973ecbadf3639),
        ("Offline nt=12 lookahead2 order", 0x0a0a80741222d32a),
        ("magma nt=12", 0x2095c13f9435ead4),
        ("cula nt=12", 0x31c4d2f5bef0861c),
        ("outer nt=12", 0x66b120ae53f057d6),
        ("Enhanced nt=40 k3", 0xe513e59e20d321ac),
        ("Online nt=40 k3", 0x1ecf47eaec8577c1),
        ("Offline nt=40 k3", 0x84e3723eb4461e23),
        ("Enhanced nt=40 fused", 0x0999ca91620f559e),
        ("Online nt=40 fused", 0x1ecf47eaec8577c1),
        ("Offline nt=40 fused", 0x84e3723eb4461e23),
        ("Enhanced nt=40 cpu", 0xdb6ec2304287a2c5),
        ("Online nt=40 cpu", 0x51af601958ab7d7c),
        ("Offline nt=40 cpu", 0x7d9058eebbacdb41),
        ("Enhanced nt=40 inline", 0x7aab18b98be3ad3a),
        ("Online nt=40 inline", 0x1ecf47eaec8577c1),
        ("Offline nt=40 inline", 0x84e3723eb4461e23),
        ("Enhanced nt=40 d1", 0x7aab18b98be3ad3a),
        ("Online nt=40 d1", 0x1ecf47eaec8577c1),
        ("Offline nt=40 d1", 0x84e3723eb4461e23),
        ("Enhanced nt=40 d2", 0x208b8db575d3eb1b),
        ("Online nt=40 d2", 0x1c77ffbf07e5ece4),
        ("Offline nt=40 d2", 0x34098b456307200e),
        ("Enhanced nt=40 d4", 0xbc47093f470922df),
        ("Online nt=40 d4", 0xd2ff78c141723adf),
        ("Offline nt=40 d4", 0x5ea050e66c774655),
        ("Enhanced nt=40 faulty cpu k3", 0x1a703a7a8b72920d),
        ("Online nt=40 faulty cpu k3", 0x723916d0bbd95260),
        ("Offline nt=40 faulty cpu k3", 0xcbe380e012f03313),
        ("Enhanced nt=40 fused k3", 0xdfd9942e2e6772a0),
        ("Online nt=40 fused k3", 0x1ecf47eaec8577c1),
        ("Offline nt=40 fused k3", 0x84e3723eb4461e23),
        ("Enhanced nt=40 lookahead2 order", 0x3d3507bf0badd55c),
        ("Online nt=40 lookahead2 order", 0xfa099aa9d79ec524),
        ("Offline nt=40 lookahead2 order", 0x94930e6ed59de084),
        ("magma nt=40", 0x6f4c26f29ddb8cd2),
        ("cula nt=40", 0xbf34496996eb3fa9),
        ("outer nt=40", 0xb82dfa37f26a25ab),
        ("Enhanced rewrite@4", 0x4f98aac1f76c4825),
        ("Enhanced rewrite@8", 0x511309bd451fa625),
        ("Online rewrite@4", 0x6d4dde5501270b4e),
        ("Online rewrite@8", 0x8b31cb71cb889f27),
        ("Offline rewrite@4", 0xfaa0420959befb2f),
        ("Offline rewrite@8", 0xd2c5a848e429a96e),
        ("grid nt=1", 0x22ae1143674935db),
        ("grid nt=2", 0xcaa3d1c48ac92710),
        ("grid nt=3", 0x9171289fb3b3b01a),
        ("grid nt=4", 0xd7a278c69b710a59),
        ("grid nt=5", 0xda400fff72dc48ca),
        ("grid nt=6", 0xcb6c0121fa3d3837),
        ("grid nt=7", 0x38066efcac6b8e84),
        ("grid nt=8", 0x65eb22ce6515f2e5),
        ("grid nt=9", 0xe30c230c7591d1c1),
        ("grid nt=10", 0x7e9abe997aa93853),
        ("grid nt=11", 0xa83e491dbdb999cd),
        ("grid nt=12", 0xc1df4abc4eea16c1),
        ("grid nt=13", 0x8af5c1d894c80663),
        ("grid nt=14", 0xfa58585bd916c7cf),
        ("grid nt=15", 0x6e6eeca44cbde899),
        ("grid nt=16", 0x3d986c31f404642d),
        ("grid nt=17", 0xe2b5b2cf3355d7de),
        ("grid nt=18", 0x080c6980c130aec0),
        ("grid nt=19", 0xf08afd2d7b1a3049),
        ("grid nt=20", 0x8d34e519b6f2bcc3),
        ("Enhanced nt=9 splice at every cut", 0xc597c9ea6ffadb84),
    ];
    let got = digests();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(w, d)| (w.as_str(), *d)).collect();
    assert_eq!(got_ref, pins, "this build's pins: {got_ref:#x?}");
}
