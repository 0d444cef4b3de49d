//! Integration: the two execution modes the plan layer unlocked.
//!
//! The legacy imperative drivers hard-coded Algorithm 1's one-iteration
//! pipelining and drove exactly one factorization per context. With schemes
//! expressed as [`FactorPlan`]s the executor can (a) issue
//! dependency-satisfied nodes across iteration boundaries (`lookahead`) and
//! (b) interleave several plans round-robin through one simulator
//! (`run_batch`). Both modes must stay race-free under the vector-clock
//! analyzer — the derived plan edges, not the authored order, are what
//! guarantees correctness once nodes move.

use hchol::prelude::*;
use hchol_analyze::analyze_outcome;

fn batch_request(kind: SchemeKind, n: usize, b: usize) -> BatchRequest {
    BatchRequest {
        kind,
        n,
        b,
        opts: AbftOptions::default(),
    }
}

/// Acceptance: a batch of 4 concurrent n=512 runs beats the same 4 runs
/// back to back on virtual makespan — one plan's host-blocking POTF2 and
/// verification stalls are reclaimed by the other plans' device work.
#[test]
fn batch_of_four_beats_sequential() {
    let p = SystemProfile::test_profile();
    let (n, b) = (512usize, 64usize);

    let sequential: f64 = (0..4)
        .map(|_| {
            run_clean(
                SchemeKind::Enhanced,
                &p,
                ExecMode::TimingOnly,
                n,
                b,
                &AbftOptions::default(),
                None,
            )
            .expect("scheme runs")
            .time
            .as_secs()
        })
        .sum();

    let reqs: Vec<BatchRequest> = (0..4)
        .map(|_| batch_request(SchemeKind::Enhanced, n, b))
        .collect();
    let batch = run_batch(&p, &reqs).expect("batch runs");
    let batched = batch.time.as_secs();

    assert_eq!(batch.runs.len(), 4);
    assert!(
        batched < sequential,
        "batched makespan {batched} should beat sequential total {sequential}"
    );
    // Sanity: the batch cannot be faster than one member run on its own.
    assert!(
        batched > sequential / 4.0,
        "batched makespan {batched} vs single-run time {}",
        sequential / 4.0
    );
    assert_eq!(batch.ctx.obs.metrics.count("plan.batch.plans"), 4);
}

/// Mixed batches work: different schemes (different plan shapes and node
/// counts) interleave in one context without tripping the race detector —
/// in authored order, with each lane in its own lookahead order, and with
/// each lane sharded over its own devices. The batch counts each member
/// plan's size once, reordered or not.
#[test]
fn mixed_scheme_batch_is_race_free() {
    use hchol::core::options::ShardOptions;
    let p = SystemProfile::test_profile();
    let d = AbftOptions::default;
    let configs = [
        ("in order", d()),
        ("lookahead 2", d().with_lookahead(2)),
        ("D = 2", d().with_shard(ShardOptions::new(2))),
    ];
    for (what, opts) in configs {
        let reqs: Vec<BatchRequest> = SchemeKind::all()
            .into_iter()
            .map(|kind| BatchRequest {
                opts: opts.clone(),
                ..batch_request(kind, 256, 64)
            })
            .collect();
        let batch = run_batch(&p, &reqs).unwrap_or_else(|e| panic!("{what}: {e:?}"));
        assert!(batch.time.as_secs() > 0.0);
        let analysis = hchol_analyze::analyze_schedule(&batch.ctx.log);
        assert!(analysis.ops > 0, "{what}: batch must record a program");
        assert!(analysis.is_clean(), "{what}:\n{}", analysis.render_text());
        let m = &batch.ctx.obs.metrics;
        let reordered = m.count("plan.reordered") > 0;
        assert_eq!(reordered, opts.lookahead > 0, "{what}: reordered nodes");
        let sharded = (opts.shard_devices() > 1).then_some(2.0);
        assert_eq!(m.gauge("shard.devices"), sharded, "{what}: sharded lanes");
        let (mut nodes, mut edges) = (0, 0);
        for r in &reqs {
            let resolved = r.opts.resolved_for(&p, r.n, r.b);
            let plan = hchol::core::plan::for_scheme(r.kind, r.n / r.b, &resolved, false);
            nodes += plan.len() as u64;
            edges += plan.edge_count() as u64;
        }
        assert_eq!(m.count("plan.nodes"), nodes, "{what}: plan nodes");
        assert_eq!(m.count("plan.edges"), edges, "{what}: plan edges");
    }
}

/// Lookahead issue actually reorders nodes, never regresses the makespan,
/// and the reordered program is still race-free *and* conformant with the
/// Enhanced verify-before-read protocol — the plan's dependency edges carry
/// the whole correctness argument once the authored order is abandoned.
#[test]
fn lookahead_reorders_without_racing_or_regressing() {
    let p = SystemProfile::test_profile();
    let (n, b) = (512usize, 64usize);
    let base = run_clean(
        SchemeKind::Enhanced,
        &p,
        ExecMode::TimingOnly,
        n,
        b,
        &AbftOptions::default(),
        None,
    )
    .expect("scheme runs");

    for depth in [1usize, 2, 4] {
        let out = run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::TimingOnly,
            n,
            b,
            &AbftOptions::default().with_lookahead(depth),
            None,
        )
        .expect("scheme runs");
        let analysis = analyze_outcome(&out);
        assert!(
            analysis.is_clean(),
            "lookahead={depth}:\n{}",
            analysis.render_text()
        );
        assert!(
            out.time.as_secs() <= base.time.as_secs() * (1.0 + 1e-9),
            "lookahead={depth}: {} vs in-order {}",
            out.time,
            base.time
        );
        assert!(
            out.ctx.obs.metrics.count("plan.nodes") > 0,
            "reordered runs must report plan-shape metrics"
        );
        if depth > 1 {
            assert!(
                out.ctx.obs.metrics.count("plan.reordered") > 0,
                "lookahead={depth} should move at least one node"
            );
        }
    }
}

/// Lookahead in Execute mode computes the same factor bits as in-order:
/// reordering is a schedule transformation, not a numerical one.
#[test]
fn lookahead_execute_matches_in_order_factor() {
    use hchol_matrix::generate::spd_diag_dominant;
    let (n, b) = (96usize, 16usize);
    let a = spd_diag_dominant(n, 3);
    let p = SystemProfile::test_profile();
    let run = |depth: usize| {
        run_clean(
            SchemeKind::Enhanced,
            &p,
            ExecMode::Execute,
            n,
            b,
            &AbftOptions::default().with_lookahead(depth),
            Some(&a),
        )
        .expect("scheme runs")
        .factor
        .expect("Execute mode factor")
    };
    let base = run(0);
    let reordered = run(2);
    let (rows, cols) = base.shape();
    for i in 0..rows {
        for j in 0..cols {
            assert_eq!(
                base.get(i, j).to_bits(),
                reordered.get(i, j).to_bits(),
                "factor bits differ at ({i},{j})"
            );
        }
    }
}

/// `run_batch` refuses, with a typed error and before building anything,
/// what one shared context cannot honour — it never ignores an option and
/// never panics on a request.
#[test]
fn batch_refuses_what_it_cannot_honour() {
    use hchol::core::options::ShardOptions;
    use hchol_matrix::MatrixError;
    let p = SystemProfile::test_profile();
    let with = |opts: AbftOptions| {
        vec![
            batch_request(SchemeKind::Enhanced, 256, 64),
            BatchRequest {
                opts,
                ..batch_request(SchemeKind::Enhanced, 256, 64)
            },
        ]
    };
    let d = AbftOptions::default;
    let cases = [
        ("empty batch", Vec::new()),
        ("balance", with(d().with_balance(BalanceOptions::default()))),
        (
            "a combination validate_options refuses",
            with(
                d().with_shard(ShardOptions::new(2))
                    .with_placement(ChecksumPlacement::Cpu),
            ),
        ),
    ];
    for (what, reqs) in cases {
        match run_batch(&p, &reqs) {
            Err(MatrixError::UnsupportedConfig(_)) => {}
            Err(e) => panic!("{what}: expected UnsupportedConfig, got {e:?}"),
            Ok(_) => panic!("{what}: expected UnsupportedConfig, got a completed batch"),
        }
    }
    // The options a batch does honour still run.
    let fused = with(d().with_chk_fused(true).with_interval(3));
    assert_eq!(run_batch(&p, &fused).expect("batch runs").runs.len(), 2);
}

/// The static proofs reach the paper's largest grid: at nt = 80
/// (n = 20480, b = 256 — Figure 14's last point, `sim_paper_scale`'s plan)
/// every scheme's plan satisfies its ABFT contract on its edges and is
/// deadlock-free. Affordable in a debug tier-1 run only because the
/// checkers answer each obligation from the tile's own lists.
#[test]
fn paper_scale_plans_are_clean_and_live() {
    use hchol_analyze::{check_liveness, check_plan};
    let opts = AbftOptions::default().with_placement(ChecksumPlacement::Gpu);
    for kind in SchemeKind::all() {
        let plan = hchol::core::plan::for_scheme(kind, 80, &opts, false);
        let chk = check_plan(kind, &plan, &opts);
        assert!(chk.is_clean(), "{}", chk.render_text());
        let live = check_liveness(kind, &plan, &opts);
        assert!(live.is_live(), "{}", live.render_text());
    }
}
