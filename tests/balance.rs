//! Integration: the runtime feedback load balancer and adaptive
//! verification (DESIGN.md §11).
//!
//! The controller is exercised through whole factorizations: placement
//! migration on a profile the static analytic model gets wrong, adaptive-K
//! bounds under injected faults, and — via recorded rewritten plans — a
//! mechanical re-proof that every mid-run rewrite still satisfies the
//! static ABFT contract.

use hchol::prelude::*;
use hchol_analyze::check_plan;
use hchol_core::options::BalanceOptions as B;
use hchol_faults::{FaultKind, FaultSpec, FaultTarget, InjectionPoint};

fn fault_at(iter: usize, bi: usize, bj: usize, kind: FaultKind) -> FaultSpec {
    FaultSpec {
        point: InjectionPoint::PostGemm { iter },
        target: FaultTarget {
            bi,
            bj,
            row: 3,
            col: 5,
        },
        kind,
    }
}

fn adaptive(b: B) -> AbftOptions {
    AbftOptions::default().with_balance(b)
}

/// On the skewed Tardis (degraded PCIe link) the analytic model still
/// places checksum updating on the CPU — its `max` assumes the mirror
/// traffic overlaps, so link speed never changes its answer; the balancer
/// observes the saturated DMA lane and migrates to the GPU, beating the
/// static run.
#[test]
fn balancer_beats_static_placement_on_skewed_profile() {
    let p = SystemProfile::tardis_skewed();
    let (n, b) = (2048usize, 128usize);
    let stat = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &AbftOptions::default(),
        None,
    )
    .expect("static run");
    // The control that gives the test teeth: the model must actually pick
    // the CPU here, otherwise nothing is being corrected.
    assert_eq!(stat.opts.placement, ChecksumPlacement::Cpu);

    let out = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &adaptive(B::default().with_update_interval(2).with_k_bounds(1, 1)),
        None,
    )
    .expect("balanced run");
    let log = out.balance_log.as_ref().expect("balanced run keeps a log");
    assert!(
        log.switches() >= 1,
        "expected a CPU→GPU migration, decisions: {:?}",
        log.decisions
    );
    assert_eq!(out.ctx.obs.metrics.count("balance.switches") as usize, {
        log.switches()
    });
    assert!(
        out.time.as_secs() < stat.time.as_secs(),
        "adaptive {:.4}s must beat static {:.4}s on the skewed profile",
        out.time.as_secs(),
        stat.time.as_secs()
    );
}

/// On the real (well-described) machines the static model is already
/// right, so the balancer must not make things worse: no migration, and a
/// makespan within a whisker of the static run (the controller itself is
/// free — it only reads counters).
#[test]
fn balancer_is_no_worse_on_balanced_profiles() {
    for p in [SystemProfile::tardis(), SystemProfile::bulldozer64()] {
        let (n, b) = (2048usize, 256usize);
        let stat = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &AbftOptions::default(),
            None,
        )
        .expect("static run");
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &adaptive(B::default().with_update_interval(2).with_k_bounds(1, 1)),
            None,
        )
        .expect("balanced run");
        let log = out.balance_log.as_ref().unwrap();
        assert_eq!(log.switches(), 0, "{}: {:?}", p.name, log.decisions);
        assert!(
            out.time.as_secs() <= stat.time.as_secs() * 1.001,
            "{}: adaptive {:.4}s vs static {:.4}s",
            p.name,
            out.time.as_secs(),
            stat.time.as_secs()
        );
    }
}

/// Runtime adaptive-K: quiet windows relax the interval toward `k_max`,
/// faults snap it back, and no decision ever leaves the configured bounds.
#[test]
fn adaptive_k_stays_in_bounds_under_faults() {
    let (k_min, k_max) = (1usize, 3usize);
    let plan = FaultPlan {
        faults: vec![
            fault_at(5, 7, 5, FaultKind::storage()),
            fault_at(9, 11, 9, FaultKind::computing()),
        ],
        ..FaultPlan::default()
    };
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        1024,
        64,
        &adaptive(
            B::default()
                .with_update_interval(2)
                .with_k_bounds(k_min, k_max),
        ),
        plan,
        None,
    )
    .expect("faulty balanced run");
    let log = out.balance_log.as_ref().unwrap();
    assert!(!log.decisions.is_empty());
    for d in &log.decisions {
        assert!(
            (k_min..=k_max).contains(&d.k),
            "K={} escaped [{k_min}, {k_max}] at iter {}",
            d.k,
            d.at_iter
        );
    }
    // The run saw both quiet and faulty windows: K must have moved off its
    // floor and been snapped back at least once.
    assert!(log.max_k() > k_min, "quiet windows never relaxed K");
    assert!(
        log.decisions
            .iter()
            .any(|d| d.window_faults > 0 && d.k == k_min),
        "a faulty window must snap K to k_min: {:?}",
        log.decisions
    );
    let gauge = out.ctx.obs.metrics.gauge("balance.k").expect("k gauge");
    assert!((k_min as f64..=k_max as f64).contains(&gauge));
}

/// Contract re-proof: every plan the balancer rewrote mid-run — placement
/// migrations and K re-gating alike — still passes the static ABFT
/// checker, under the verify-interval contract matching the K the rewrite
/// installed.
#[test]
fn every_rewritten_plan_passes_the_static_checker() {
    let plan = FaultPlan::single(fault_at(7, 9, 7, FaultKind::storage()));
    let out = run_scheme(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::TimingOnly,
        2048,
        128,
        &adaptive(
            B::default()
                .with_update_interval(2)
                .with_k_bounds(1, 4)
                .with_record_plans(true),
        ),
        plan,
        None,
    )
    .expect("balanced run");
    let log = out.balance_log.as_ref().unwrap();
    assert!(
        !log.rewrites.is_empty(),
        "the run must have rewritten the plan at least once: {:?}",
        log.decisions
    );
    // A rewrite only re-gates *future* iterations, so a plan that was ever
    // gated at K > 1 keeps relaxed-rule obligations in its executed prefix
    // even after K returns to 1: each snapshot is checked under the
    // loosest interval installed so far (K=1 throughout ⇒ the full rule).
    let mut loosest = 1usize;
    for rw in &log.rewrites {
        loosest = loosest.max(rw.k);
        let opts = out.opts.clone().with_interval(loosest);
        let check = check_plan(SchemeKind::Enhanced, &rw.plan, &opts);
        assert!(
            check.is_clean(),
            "rewrite at iter {} (K={}, {:?}) violates the contract:\n{}",
            rw.at_iter,
            rw.k,
            rw.placement,
            check.render_text()
        );
    }
}

/// `balance: None` (the default) records none of the balance machinery:
/// no log, no `balance.*` metrics, no extra config keys — the byte-stable
/// default path the golden fixtures pin.
#[test]
fn balance_off_leaves_no_trace() {
    let out = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::test_profile(),
        ExecMode::TimingOnly,
        256,
        32,
        &AbftOptions::default(),
        None,
    )
    .expect("static run");
    assert!(out.balance_log.is_none());
    assert_eq!(out.ctx.obs.metrics.count("balance.updates"), 0);
    assert!(out.ctx.obs.metrics.gauge("balance.k").is_none());
    let json = serde_json::to_string(&out.report()).unwrap();
    assert!(!json.contains("balance"));
}

/// Balanced runs restart like static ones: an uncorrectable Offline-style
/// escape is impossible under Enhanced, but a storage hit on a verified
/// tile is corrected in place — the balanced run must still complete
/// cleanly and keep its factor bit-exact against the static run.
#[test]
fn balanced_execute_run_matches_static_factor() {
    use hchol_matrix::generate::spd_diag_dominant;
    let (n, b) = (192usize, 32usize);
    let a = spd_diag_dominant(n, 3);
    let stat = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::Execute,
        n,
        b,
        &AbftOptions::default(),
        Some(&a),
    )
    .expect("static run");
    let bal = run_clean(
        SchemeKind::Enhanced,
        &SystemProfile::tardis_skewed(),
        ExecMode::Execute,
        n,
        b,
        &adaptive(B::default().with_update_interval(1).with_k_bounds(1, 2)),
        Some(&a),
    )
    .expect("balanced run");
    let (f1, f2) = (stat.factor.unwrap(), bal.factor.unwrap());
    assert_eq!(
        f1.as_slice(),
        f2.as_slice(),
        "balancing must not perturb numerics"
    );
}

/// The balanced runs the rewrite pins and the rewrite definition below are
/// taken over: every scheme on a balanced, a link-degraded and a
/// queue-pressured machine, at two grid sizes, waking every other iteration.
fn recorded_balanced_runs() -> Vec<(String, SchemeKind, usize, FactorOutcome)> {
    let profiles = [
        SystemProfile::tardis(),
        SystemProfile::tardis_skewed(),
        SystemProfile::bulldozer64(),
    ];
    let opts = adaptive(B::default().with_update_interval(2).with_record_plans(true));
    let mut runs = Vec::new();
    for kind in SchemeKind::all() {
        for p in &profiles {
            for (n, b) in [(2048usize, 128usize), (1280, 64)] {
                let out = run_clean(kind, p, ExecMode::TimingOnly, n, b, &opts, None)
                    .expect("balanced run");
                runs.push((format!("{kind:?} {} n={n} b={b}", p.name), kind, n / b, out));
            }
        }
    }
    runs
}

/// What a plan *is* for these tests: per node in issue order, its task, its
/// iteration and the label of the scope span it runs under.
fn node_shapes(plan: &FactorPlan) -> Vec<String> {
    plan.order()
        .iter()
        .map(|&id| {
            let n = plan.node(id);
            let label = n.scope.map(|s| plan.scopes()[s.0].label.as_str());
            format!("{:?}|{:?}|{label:?}", n.kind, n.iter)
        })
        .collect()
}

/// Position of the first node of iteration `j` in the issue order.
fn iter_start(plan: &FactorPlan, j: usize) -> usize {
    plan.order()
        .iter()
        .position(|&id| plan.node(id).iter == Some(j))
        .expect("iteration has nodes")
}

/// Pins captured on the commit before the balancer's in-place plan edits
/// were replaced by re-planning the tail: the makespan to the bit, the
/// number of rewrites and placement switches, and an FNV-1a digest over
/// every recorded rewritten plan — state, node shapes, per-node in-degree
/// and edge count. A refactor of the rewrite path must move none of them.
/// A check in a rewritten plan is one `VerifyBatch` node.
#[test]
fn rewritten_plans_are_pinned_to_the_captured_digests() {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // (makespan bits, rewrites, switches, digest), in `recorded_balanced_runs` order.
    let pins: [(u64, usize, usize, u64); 18] = [
        (0x3f8b792b89b02d0f, 7, 0, 0x0f0e3a5692491f39),
        (0x3f74339c51dc209d, 7, 0, 0x2cf82781384c9b88),
        (0x3f93b072e91ffb3e, 7, 1, 0x95851deb1acc33cd),
        (0x3f7a269b5791eba4, 7, 0, 0x28a6f68eac16351a),
        (0x3f70afcde86164cd, 7, 0, 0xf2b3b521176fdbb4),
        (0x3f6597a2ab3fdae7, 7, 0, 0x28a6f68eac16351a),
        (0x3f8c31ea14c0cc0d, 7, 0, 0x6d240902158ea306),
        (0x3f77355444ffcacb, 7, 0, 0xae7fb766c1384a17),
        (0x3f93d79e2c91872a, 7, 1, 0x80e89ed7bc7eca9d),
        (0x3f7c30e7afdbe3e1, 7, 0, 0xce5ad37fc4688dda),
        (0x3f72432dd23d0d03, 7, 0, 0x21efed12c040d298),
        (0x3f6940218ee94713, 7, 0, 0xce5ad37fc4688dda),
        (0x3f8926f666fb41cd, 7, 0, 0x4b519e2811997877),
        (0x3f750b4aa700bf8a, 7, 2, 0x2b19a9849671e216),
        (0x3f92781c4a8cd02a, 7, 1, 0xc91fc5dc617ece99),
        (0x3f778811e4d12ee6, 7, 0, 0x3ecaee60aca2f83b),
        (0x3f6ed47beb3b7e7e, 7, 0, 0xc62b0a4f061dc2c2),
        (0x3f5d998f8529dec5, 7, 0, 0x3ecaee60aca2f83b),
    ];
    let mut got = Vec::new();
    for (_, _, _, out) in recorded_balanced_runs() {
        let log = out.balance_log.as_ref().expect("balanced run keeps a log");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for rw in &log.rewrites {
            let state = format!("{}|{}|{}", rw.at_iter, rw.k, rw.plan.cpu_mirrors());
            fnv(&mut h, state.as_bytes());
            for (shape, &id) in node_shapes(&rw.plan).iter().zip(rw.plan.order()) {
                fnv(&mut h, shape.as_bytes());
                fnv(&mut h, &rw.plan.deps(id).len().to_le_bytes());
            }
            fnv(&mut h, &rw.plan.edge_count().to_le_bytes());
        }
        got.push((
            out.time.as_secs().to_bits(),
            log.rewrites.len(),
            log.switches(),
            h,
        ));
    }
    assert_eq!(got, pins, "this build's pins: {got:#x?}");
}

/// The definition of a rewrite: the plan after it is the previous plan up
/// to iteration `at_iter`, followed by the plan the planner builds for the
/// controller's new (placement, K) from iteration `at_iter` on — and that
/// splice satisfies the scheme's static ABFT contract.
#[test]
fn a_rewrite_is_the_old_prefix_plus_the_new_states_tail() {
    for (what, kind, nt, out) in recorded_balanced_runs() {
        let log = out.balance_log.as_ref().expect("balanced run keeps a log");
        // The run starts on the plan of its resolved options (K inside the
        // default bounds already).
        let mut prev = hchol_core::plan::for_scheme(kind, nt, &out.opts, false);
        let mut loosest = out.opts.verify_interval;
        for rw in &log.rewrites {
            let state = out
                .opts
                .clone()
                .with_placement(rw.placement)
                .with_interval(rw.k);
            let fresh = hchol_core::plan::for_scheme(kind, nt, &state, false);
            let mut want = node_shapes(&prev);
            want.truncate(iter_start(&prev, rw.at_iter));
            want.extend_from_slice(&node_shapes(&fresh)[iter_start(&fresh, rw.at_iter)..]);
            assert_eq!(
                node_shapes(&rw.plan),
                want,
                "{what}: rewrite at iteration {}",
                rw.at_iter
            );
            // As in `every_rewritten_plan_passes_the_static_checker`: the
            // executed prefix keeps the loosest interval ever installed.
            loosest = loosest.max(rw.k);
            let check = check_plan(kind, &rw.plan, &state.with_interval(loosest));
            assert!(
                check.is_clean(),
                "{what}: rewrite at iteration {} violates the contract:\n{}",
                rw.at_iter,
                check.render_text()
            );
            prev = rw.plan.clone();
        }
    }
}
