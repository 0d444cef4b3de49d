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
    // updates.
    let pins: [(&str, u64); 144] = [
        ("Enhanced nt=1", 0x9586f0b1c7303c32),
        ("Online nt=1", 0x5de8b789d3abdb27),
        ("Offline nt=1", 0x867821fd97025d7e),
        ("Enhanced nt=2", 0x9bf0621d5d0f0740),
        ("Online nt=2", 0xfc37072a8744fe83),
        ("Offline nt=2", 0x1ff48818136431a4),
        ("Enhanced nt=3", 0x374c2c87f0dbffc9),
        ("Online nt=3", 0xef8695a8ccacf6d6),
        ("Offline nt=3", 0x6b872aee59c31720),
        ("Enhanced nt=7", 0x2f5d686ba557f036),
        ("Online nt=7", 0xf539e1c1ede8ea49),
        ("Offline nt=7", 0x74582100352c5622),
        ("Enhanced nt=12", 0x2c8f328f697c3a76),
        ("Online nt=12", 0xeed865ac2a6eb879),
        ("Offline nt=12", 0xb66318cb00dd5857),
        ("Enhanced nt=40", 0x6bf24f490aaa56ed),
        ("Online nt=40", 0x76b6ab3aa2b110e5),
        ("Offline nt=40", 0xe29a88399ebe87d3),
        ("Enhanced nt=80", 0xfcb7f14b88a5d22d),
        ("Online nt=80", 0x46194ddac892893f),
        ("Offline nt=80", 0x61d5c293c2efc874),
        ("Enhanced nt=7 k3", 0xdd7c1cebd90664cd),
        ("Online nt=7 k3", 0xf539e1c1ede8ea49),
        ("Offline nt=7 k3", 0x74582100352c5622),
        ("Enhanced nt=7 fused", 0x8db54b3b4132a9db),
        ("Online nt=7 fused", 0xf539e1c1ede8ea49),
        ("Offline nt=7 fused", 0x74582100352c5622),
        ("Enhanced nt=7 cpu", 0x411c0357026770e9),
        ("Online nt=7 cpu", 0xd60d89a7aaf3f31e),
        ("Offline nt=7 cpu", 0x53602abbe79765e3),
        ("Enhanced nt=7 inline", 0x2f5d686ba557f036),
        ("Online nt=7 inline", 0xf539e1c1ede8ea49),
        ("Offline nt=7 inline", 0x74582100352c5622),
        ("Enhanced nt=7 d1", 0x2f5d686ba557f036),
        ("Online nt=7 d1", 0xf539e1c1ede8ea49),
        ("Offline nt=7 d1", 0x74582100352c5622),
        ("Enhanced nt=7 d2", 0x1ab5e31115f8f588),
        ("Online nt=7 d2", 0x4abe535f29e0d927),
        ("Offline nt=7 d2", 0x8165e67e71c83ae),
        ("Enhanced nt=7 d4", 0x3ef538464cb82464),
        ("Online nt=7 d4", 0x430470799c467e12),
        ("Offline nt=7 d4", 0x52509d550ec0d021),
        ("Enhanced nt=7 faulty cpu k3", 0x364b35e088d41609),
        ("Online nt=7 faulty cpu k3", 0xf487e9ec5b605786),
        ("Offline nt=7 faulty cpu k3", 0x55628918d9813b9),
        ("Enhanced nt=7 fused k3", 0xdbf18c3a1fe28459),
        ("Online nt=7 fused k3", 0xf539e1c1ede8ea49),
        ("Offline nt=7 fused k3", 0x74582100352c5622),
        ("Enhanced nt=7 lookahead2 order", 0xa4fe1b045715b225),
        ("Online nt=7 lookahead2 order", 0x49a1940e6d6cc569),
        ("Offline nt=7 lookahead2 order", 0xb7a927607014e41c),
        ("magma nt=7", 0xe5a7c49d9783a757),
        ("cula nt=7", 0xdd9eafca09ec2d75),
        ("Enhanced nt=12 k3", 0x5b60c2d6fa7525b4),
        ("Online nt=12 k3", 0xeed865ac2a6eb879),
        ("Offline nt=12 k3", 0xb66318cb00dd5857),
        ("Enhanced nt=12 fused", 0x94eef78fa891f0e1),
        ("Online nt=12 fused", 0xeed865ac2a6eb879),
        ("Offline nt=12 fused", 0xb66318cb00dd5857),
        ("Enhanced nt=12 cpu", 0xd13df5993fa07315),
        ("Online nt=12 cpu", 0xad7c14a3f58c9502),
        ("Offline nt=12 cpu", 0xb4c5b6d468d15322),
        ("Enhanced nt=12 inline", 0x2c8f328f697c3a76),
        ("Online nt=12 inline", 0xeed865ac2a6eb879),
        ("Offline nt=12 inline", 0xb66318cb00dd5857),
        ("Enhanced nt=12 d1", 0x2c8f328f697c3a76),
        ("Online nt=12 d1", 0xeed865ac2a6eb879),
        ("Offline nt=12 d1", 0xb66318cb00dd5857),
        ("Enhanced nt=12 d2", 0x9321d1a7be2ef9ec),
        ("Online nt=12 d2", 0x6d6bdd9931100f41),
        ("Offline nt=12 d2", 0x9306906b3f405974),
        ("Enhanced nt=12 d4", 0xc4d89e40b08c2081),
        ("Online nt=12 d4", 0xcb452419066663fd),
        ("Offline nt=12 d4", 0x1889da1734dbc4c2),
        ("Enhanced nt=12 faulty cpu k3", 0x36ed3c2afd07cde3),
        ("Online nt=12 faulty cpu k3", 0xd38e392ab7ac764d),
        ("Offline nt=12 faulty cpu k3", 0x8ca08faa8511af02),
        ("Enhanced nt=12 fused k3", 0x25fa4e0d6f17d829),
        ("Online nt=12 fused k3", 0xeed865ac2a6eb879),
        ("Offline nt=12 fused k3", 0xb66318cb00dd5857),
        ("Enhanced nt=12 lookahead2 order", 0x3dedd364ca7a1fb8),
        ("Online nt=12 lookahead2 order", 0x7e973ecbadf3639),
        ("Offline nt=12 lookahead2 order", 0xa0a80741222d32a),
        ("magma nt=12", 0x2676ae2b0c549c50),
        ("cula nt=12", 0x1f9b3076622cfa36),
        ("Enhanced nt=40 k3", 0x8c0ba7324babc3cf),
        ("Online nt=40 k3", 0x76b6ab3aa2b110e5),
        ("Offline nt=40 k3", 0xe29a88399ebe87d3),
        ("Enhanced nt=40 fused", 0x114e535b57db5f3d),
        ("Online nt=40 fused", 0x76b6ab3aa2b110e5),
        ("Offline nt=40 fused", 0xe29a88399ebe87d3),
        ("Enhanced nt=40 cpu", 0xd45a600993412ae2),
        ("Online nt=40 cpu", 0x172ffc19d11a4bc6),
        ("Offline nt=40 cpu", 0x4350592dad979e5d),
        ("Enhanced nt=40 inline", 0x6bf24f490aaa56ed),
        ("Online nt=40 inline", 0x76b6ab3aa2b110e5),
        ("Offline nt=40 inline", 0xe29a88399ebe87d3),
        ("Enhanced nt=40 d1", 0x6bf24f490aaa56ed),
        ("Online nt=40 d1", 0x76b6ab3aa2b110e5),
        ("Offline nt=40 d1", 0xe29a88399ebe87d3),
        ("Enhanced nt=40 d2", 0x430fa6e7e6aaaa),
        ("Online nt=40 d2", 0x6d257643984aa043),
        ("Offline nt=40 d2", 0x49080c5ab56575ed),
        ("Enhanced nt=40 d4", 0xe23968f7a7e86cfe),
        ("Online nt=40 d4", 0x293f05d43cce506a),
        ("Offline nt=40 d4", 0x42e684312ba521ce),
        ("Enhanced nt=40 faulty cpu k3", 0x4b200cd56b6e67fa),
        ("Online nt=40 faulty cpu k3", 0xa9d0df09f83b3cb4),
        ("Offline nt=40 faulty cpu k3", 0x6243caa3d5b1952f),
        ("Enhanced nt=40 fused k3", 0xea44bea2bf638ec1),
        ("Online nt=40 fused k3", 0x76b6ab3aa2b110e5),
        ("Offline nt=40 fused k3", 0xe29a88399ebe87d3),
        ("Enhanced nt=40 lookahead2 order", 0x3d3507bf0badd55c),
        ("Online nt=40 lookahead2 order", 0xfa099aa9d79ec524),
        ("Offline nt=40 lookahead2 order", 0x94930e6ed59de084),
        ("magma nt=40", 0x46ce97e6a1333efc),
        ("cula nt=40", 0x43d93ce4456e2705),
        ("Enhanced rewrite@4", 0xcb87f06688dd7596),
        ("Enhanced rewrite@8", 0x59af8cdb63ce7628),
        ("Online rewrite@4", 0xe4797b3c02735b50),
        ("Online rewrite@8", 0x3e241013a22b95cd),
        ("Offline rewrite@4", 0x19908a3135479985),
        ("Offline rewrite@8", 0xb94fc588235da7a4),
        ("grid nt=1", 0xe09ea8088dc5bd71),
        ("grid nt=2", 0xce3435a6e338bbfa),
        ("grid nt=3", 0x3782664b1f4b22ce),
        ("grid nt=4", 0x8c5f65952b00cd87),
        ("grid nt=5", 0x31f3f4cb92b59e8e),
        ("grid nt=6", 0x320121214a9867c2),
        ("grid nt=7", 0xd1cf53595399f0f6),
        ("grid nt=8", 0x3213722678347150),
        ("grid nt=9", 0x55aebf741f3fb891),
        ("grid nt=10", 0x14e8624ba6a28840),
        ("grid nt=11", 0x3109a32066083bb0),
        ("grid nt=12", 0x99fd09cac463ac5),
        ("grid nt=13", 0xa12bcb70ee5fe10e),
        ("grid nt=14", 0x282e57ef594d1c12),
        ("grid nt=15", 0x2c0f025002619959),
        ("grid nt=16", 0xb46784e6ed285670),
        ("grid nt=17", 0xa90bd3d8eee700ce),
        ("grid nt=18", 0x81d466eaeaec435f),
        ("grid nt=19", 0xc4de9ad378600213),
        ("grid nt=20", 0x42e1134a7bc25070),
        ("Enhanced nt=9 splice at every cut", 0x623cb8b9526c9136),
    ];
    let got = digests();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(w, d)| (w.as_str(), *d)).collect();
    assert_eq!(got_ref, pins, "this build's pins: {got_ref:#x?}");
}
