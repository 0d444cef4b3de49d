//! The hand-rolled outer-product driver is the one program in the
//! workspace that launches kernels off the plan layer, so no plan checker
//! covers it: its recorded schedule goes through the vector-clock analyzer
//! here.

use hchol_analyze::analyze_schedule;
use hchol_bench::outer::factor_outer;
use hchol_gpusim::profile::SystemProfile;
use hchol_gpusim::ExecMode;

/// The right-looking outer-product baseline keeps its trace on; its schedule
/// must be race-free.
#[test]
fn outer_product_baseline_is_race_free() {
    let p = SystemProfile::test_profile();
    let rep = factor_outer(&p, ExecMode::TimingOnly, 256, 32, None, true).expect("baseline runs");
    let analysis = analyze_schedule(&rep.ctx.log);
    assert!(analysis.ops > 0, "baseline must record a program");
    assert!(analysis.is_clean(), "{}", analysis.render_text());
}
