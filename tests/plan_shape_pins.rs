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
//! a balancer leaves behind after tail rewrites; one digest per nt ∈ 1..=20, every axis with the
//! default and a faulty run beside the baselines, plus a tail spliced at
//! every cut; and the issue order at lookahead depths 0, 1 and 3 at nt ∈
//! {7, 40}, and at depth 2 over a D = 4 shard grid. A change to how plans
//! are built, edited, given edges or issued must move no digest; on a
//! mismatch the test prints this build's digests in pasteable form.

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
        plan.nt(),
        plan.style,
        plan.defer_potf2_error,
        plan.faulty(),
        plan.cpu_mirrors(),
        plan.shard()
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
    got.extend(lookahead_orders());
    got
}

/// The lookahead issue order beside the depth-2 one above: depths 0, 1
/// and 3 at nt ∈ {7, 40}, and depth 2 over a D = 4 shard grid at nt = 40.
fn lookahead_orders() -> Vec<(String, u64)> {
    let schemes = [
        SchemeKind::Enhanced,
        SchemeKind::Online,
        SchemeKind::Offline,
    ];
    let order_digest = |opts: AbftOptions, nt: usize, kind: SchemeKind| {
        let plan = for_scheme(kind, nt, &opts, false);
        let order = plan
            .to_schedule()
            .issue_order(IssuePolicy::Lookahead(opts.lookahead));
        fnv(&format!("{order:?}"))
    };
    let mut got = Vec::new();
    for nt in [7, 40] {
        for depth in [0, 1, 3] {
            for kind in schemes {
                let digest = order_digest(gpu().with_lookahead(depth), nt, kind);
                got.push((format!("{kind:?} nt={nt} lookahead{depth} order"), digest));
            }
        }
    }
    for kind in schemes {
        let opts = gpu().with_shard(ShardOptions::new(4)).with_lookahead(2);
        let digest = order_digest(opts, 40, kind);
        got.push((format!("{kind:?} nt=40 d4 lookahead2 order"), digest));
    }
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
    // A check is one `VerifyBatch` node, whose dependencies are all its
    // detection and its correction need.
    let pins: [(&str, u64); 168] = [
        ("Enhanced nt=1", 0xdef6330c3e85bfc5),
        ("Online nt=1", 0x2540afdc4e84f98c),
        ("Offline nt=1", 0x21af74e030197b17),
        ("Enhanced nt=2", 0xf1bf7fd4cdc52a26),
        ("Online nt=2", 0x6a8967c9b9fb40bf),
        ("Offline nt=2", 0x48b6b7fc450ced73),
        ("Enhanced nt=3", 0x03c558b24afa7d42),
        ("Online nt=3", 0xdc23fbf82b5bb446),
        ("Offline nt=3", 0xf18488be727402fb),
        ("Enhanced nt=7", 0x0d633f7805c7ea2f),
        ("Online nt=7", 0x3551c76bfd29e577),
        ("Offline nt=7", 0xc87e9e06f36f64bd),
        ("Enhanced nt=12", 0xf868848c67510a9b),
        ("Online nt=12", 0xb93cc86438bf0f0e),
        ("Offline nt=12", 0x0677bef303a6f932),
        ("Enhanced nt=40", 0x1c8a3a45abf93ca0),
        ("Online nt=40", 0x7d6614184dd6047a),
        ("Offline nt=40", 0x3b4e13953386eada),
        ("Enhanced nt=80", 0xba98dd5511564241),
        ("Online nt=80", 0x0754f3a06d6334b7),
        ("Offline nt=80", 0xbeee3832e4f9d43c),
        ("Enhanced nt=7 k3", 0xd4d4f88f9ba410ea),
        ("Online nt=7 k3", 0x3551c76bfd29e577),
        ("Offline nt=7 k3", 0xc87e9e06f36f64bd),
        ("Enhanced nt=7 fused", 0xd65f8178ecaa40cb),
        ("Online nt=7 fused", 0x3551c76bfd29e577),
        ("Offline nt=7 fused", 0xc87e9e06f36f64bd),
        ("Enhanced nt=7 cpu", 0x25c374bc4a5da50d),
        ("Online nt=7 cpu", 0xde1e64e12c1ba869),
        ("Offline nt=7 cpu", 0xd708cfd1103c876b),
        ("Enhanced nt=7 inline", 0x0d633f7805c7ea2f),
        ("Online nt=7 inline", 0x3551c76bfd29e577),
        ("Offline nt=7 inline", 0xc87e9e06f36f64bd),
        ("Enhanced nt=7 d1", 0x0d633f7805c7ea2f),
        ("Online nt=7 d1", 0x3551c76bfd29e577),
        ("Offline nt=7 d1", 0xc87e9e06f36f64bd),
        ("Enhanced nt=7 d2", 0x8fd90d0bbf68b8ef),
        ("Online nt=7 d2", 0x3a550987f35e64c5),
        ("Offline nt=7 d2", 0x75ed39bac6c6427f),
        ("Enhanced nt=7 d4", 0x02f02997b3c3847c),
        ("Online nt=7 d4", 0xdbf6a5cf4894b8fc),
        ("Offline nt=7 d4", 0x2c4a23a83bed262d),
        ("Enhanced nt=7 faulty cpu k3", 0x5387069d4784ac9c),
        ("Online nt=7 faulty cpu k3", 0x62a1ee832f006c38),
        ("Offline nt=7 faulty cpu k3", 0xa5c0dfd196655bc9),
        ("Enhanced nt=7 fused k3", 0x1737e99f28118cbc),
        ("Online nt=7 fused k3", 0x3551c76bfd29e577),
        ("Offline nt=7 fused k3", 0xc87e9e06f36f64bd),
        ("Enhanced nt=7 lookahead2 order", 0xb668906d64cab1e0),
        ("Online nt=7 lookahead2 order", 0x14d4676f78998abd),
        ("Offline nt=7 lookahead2 order", 0x47070c927d3914b9),
        ("magma nt=7", 0x21515e75fd902f3b),
        ("cula nt=7", 0xc54cb3a3fead8ce1),
        ("outer nt=7", 0x3a7c287a62b06649),
        ("Enhanced nt=12 k3", 0xf9e4de9fb429da83),
        ("Online nt=12 k3", 0xb93cc86438bf0f0e),
        ("Offline nt=12 k3", 0x0677bef303a6f932),
        ("Enhanced nt=12 fused", 0x43b4a818a1ed5305),
        ("Online nt=12 fused", 0xb93cc86438bf0f0e),
        ("Offline nt=12 fused", 0x0677bef303a6f932),
        ("Enhanced nt=12 cpu", 0x71caa7be70748f66),
        ("Online nt=12 cpu", 0x3f1723ed6ce0600f),
        ("Offline nt=12 cpu", 0x2e40d9cc5c7782a9),
        ("Enhanced nt=12 inline", 0xf868848c67510a9b),
        ("Online nt=12 inline", 0xb93cc86438bf0f0e),
        ("Offline nt=12 inline", 0x0677bef303a6f932),
        ("Enhanced nt=12 d1", 0xf868848c67510a9b),
        ("Online nt=12 d1", 0xb93cc86438bf0f0e),
        ("Offline nt=12 d1", 0x0677bef303a6f932),
        ("Enhanced nt=12 d2", 0xdda8e87467da3c36),
        ("Online nt=12 d2", 0x380d3bbf6be12db1),
        ("Offline nt=12 d2", 0xb14636ba1cc0b62d),
        ("Enhanced nt=12 d4", 0x5a2d7e67c97292bf),
        ("Online nt=12 d4", 0xd6278f9cf408cf14),
        ("Offline nt=12 d4", 0xd2b9cc24716658ae),
        ("Enhanced nt=12 faulty cpu k3", 0x2c7962a8f58370fe),
        ("Online nt=12 faulty cpu k3", 0x7540dda2d07f3520),
        ("Offline nt=12 faulty cpu k3", 0xbb9489dcaaa17b8f),
        ("Enhanced nt=12 fused k3", 0x4efd2c3a710ffa82),
        ("Online nt=12 fused k3", 0xb93cc86438bf0f0e),
        ("Offline nt=12 fused k3", 0x0677bef303a6f932),
        ("Enhanced nt=12 lookahead2 order", 0x67e8df2699d0807c),
        ("Online nt=12 lookahead2 order", 0xab71891d50b72a6b),
        ("Offline nt=12 lookahead2 order", 0xf3f21510ad71a89d),
        ("magma nt=12", 0x2095c13f9435ead4),
        ("cula nt=12", 0x31c4d2f5bef0861c),
        ("outer nt=12", 0x66b120ae53f057d6),
        ("Enhanced nt=40 k3", 0xa618741fb85bc72d),
        ("Online nt=40 k3", 0x7d6614184dd6047a),
        ("Offline nt=40 k3", 0x3b4e13953386eada),
        ("Enhanced nt=40 fused", 0xef562bc6f930413a),
        ("Online nt=40 fused", 0x7d6614184dd6047a),
        ("Offline nt=40 fused", 0x3b4e13953386eada),
        ("Enhanced nt=40 cpu", 0x49200dc45278826b),
        ("Online nt=40 cpu", 0x6fef5588d8defc9f),
        ("Offline nt=40 cpu", 0xfeacfb80f03c7c97),
        ("Enhanced nt=40 inline", 0x1c8a3a45abf93ca0),
        ("Online nt=40 inline", 0x7d6614184dd6047a),
        ("Offline nt=40 inline", 0x3b4e13953386eada),
        ("Enhanced nt=40 d1", 0x1c8a3a45abf93ca0),
        ("Online nt=40 d1", 0x7d6614184dd6047a),
        ("Offline nt=40 d1", 0x3b4e13953386eada),
        ("Enhanced nt=40 d2", 0xf5f5c7c109d29b34),
        ("Online nt=40 d2", 0xccc07cd14aa4a3a1),
        ("Offline nt=40 d2", 0x0717a941a1311b40),
        ("Enhanced nt=40 d4", 0x3c0b85010802b087),
        ("Online nt=40 d4", 0x12c8c6cbbc70ef5e),
        ("Offline nt=40 d4", 0xf38c5193310216d8),
        ("Enhanced nt=40 faulty cpu k3", 0x217b06f9c871c615),
        ("Online nt=40 faulty cpu k3", 0x40ebe4d07e14e6c7),
        ("Offline nt=40 faulty cpu k3", 0xc19b6526c1f14e5d),
        ("Enhanced nt=40 fused k3", 0x6ab34229ae3c629b),
        ("Online nt=40 fused k3", 0x7d6614184dd6047a),
        ("Offline nt=40 fused k3", 0x3b4e13953386eada),
        ("Enhanced nt=40 lookahead2 order", 0x8c1dea838e2ce538),
        ("Online nt=40 lookahead2 order", 0x251c702d125a5584),
        ("Offline nt=40 lookahead2 order", 0xf95f178daa69896d),
        ("magma nt=40", 0x6f4c26f29ddb8cd2),
        ("cula nt=40", 0xbf34496996eb3fa9),
        ("outer nt=40", 0xb82dfa37f26a25ab),
        ("Enhanced rewrite@4", 0xe32675beef7fac2e),
        ("Enhanced rewrite@8", 0x78773599f3f973e6),
        ("Online rewrite@4", 0xd090ea8e1ee68e44),
        ("Online rewrite@8", 0x02c19d8023a80d45),
        ("Offline rewrite@4", 0xa4f2fdfa1c50d537),
        ("Offline rewrite@8", 0x32ee2f97e4b9404c),
        ("grid nt=1", 0xe6e6eb82ffb9c98e),
        ("grid nt=2", 0x9536471cb8b8f1e9),
        ("grid nt=3", 0x2db582fbde20ab68),
        ("grid nt=4", 0x071b7447b2250241),
        ("grid nt=5", 0x7236a50f44e433d5),
        ("grid nt=6", 0xa91d997378516f53),
        ("grid nt=7", 0x91113f5596b61d7b),
        ("grid nt=8", 0xfb810a61d9db854c),
        ("grid nt=9", 0x6c5c0e084502713e),
        ("grid nt=10", 0xa54d53ef29542baf),
        ("grid nt=11", 0x865db959c5dfaaff),
        ("grid nt=12", 0xe3bc7a000c8aa853),
        ("grid nt=13", 0x00570006ee77dc04),
        ("grid nt=14", 0xd1b77de5cc148c73),
        ("grid nt=15", 0x61ed82d65e8547dd),
        ("grid nt=16", 0x258ea9aac67d7744),
        ("grid nt=17", 0xd4a2b9f2edafa5ce),
        ("grid nt=18", 0xb729fae0d4bcc95f),
        ("grid nt=19", 0xa755a8ead50a530c),
        ("grid nt=20", 0xf8466aaa1233a705),
        ("Enhanced nt=9 splice at every cut", 0xdabc35c806418441),
        ("Enhanced nt=7 lookahead0 order", 0xb3e6eaad3175408c),
        ("Online nt=7 lookahead0 order", 0xb3fb4fade5bbbe4d),
        ("Offline nt=7 lookahead0 order", 0x13cdcff0a74ae41d),
        ("Enhanced nt=7 lookahead1 order", 0xd38ad16f5bfd1a3e),
        ("Online nt=7 lookahead1 order", 0xbba4f4bfa70972a5),
        ("Offline nt=7 lookahead1 order", 0xda1902ff7a524979),
        ("Enhanced nt=7 lookahead3 order", 0x8efde8cc31613c40),
        ("Online nt=7 lookahead3 order", 0xe761f9413f5c3df7),
        ("Offline nt=7 lookahead3 order", 0xe4ad14dabede2fa1),
        ("Enhanced nt=40 lookahead0 order", 0x2ae659dce4f92e12),
        ("Online nt=40 lookahead0 order", 0xeac99f3f9f81ffb6),
        ("Offline nt=40 lookahead0 order", 0xde1cf6103a7de391),
        ("Enhanced nt=40 lookahead1 order", 0x88696de2a249016e),
        ("Online nt=40 lookahead1 order", 0xe3b428432eb79b22),
        ("Offline nt=40 lookahead1 order", 0x3e89e33f87a49a27),
        ("Enhanced nt=40 lookahead3 order", 0x7462e64ec2f4a576),
        ("Online nt=40 lookahead3 order", 0xe7403fa618dd4aba),
        ("Offline nt=40 lookahead3 order", 0x4769c0479d560425),
        ("Enhanced nt=40 d4 lookahead2 order", 0xac0575d1907d6383),
        ("Online nt=40 d4 lookahead2 order", 0xc270da0233acb0b5),
        ("Offline nt=40 d4 lookahead2 order", 0x5a1318652f050982),
    ];
    let got = digests();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(w, d)| (w.as_str(), *d)).collect();
    assert_eq!(got_ref, pins, "this build's pins: {got_ref:#x?}");
}
