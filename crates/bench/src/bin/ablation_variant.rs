//! Ablation: inner-product vs outer-product Cholesky on the hybrid machine,
//! plus the general-redundancy baselines (DMR/TMR) from the introduction.
//!
//! Two claims from the paper's front matter, measured:
//!
//! * Section II-A: MAGMA uses the *inner-product* blocked Cholesky "because
//!   it has more BLAS Level-3 operations, hence, can utilize the
//!   heterogeneous system more efficiently" — here both variants run on the
//!   same simulated machine with identical flops, and the outer-product
//!   form loses exactly the POTF2-overlap the inner form hides.
//! * Section I: DMR/TMR cost 100 %/200 % where ABFT costs a few percent —
//!   the table prints all of them side by side.

use hchol_bench::outer::factor_outer;
use hchol_bench::report::{fmt_pct, Table};
use hchol_bench::runner::overhead_pct;
use hchol_bench::{paper_sizes, BenchArgs};
use hchol_core::magma::factor_magma;
use hchol_core::options::AbftOptions;
use hchol_core::schemes::{run_clean, SchemeKind};
use hchol_gpusim::ExecMode;

fn main() {
    let args = BenchArgs::parse();
    for profile in args.systems() {
        let b = profile.default_block;
        let mut t = Table::new(
            &format!(
                "Ablation — algorithm variant & redundancy baselines on {} (overhead vs inner-product MAGMA)",
                profile.name
            ),
            &[
                "n",
                "inner (s)",
                "outer-product",
                "Enhanced ABFT",
                "DMR (detect only)",
                "TMR (correct)",
            ],
        );
        for n in paper_sizes(&profile, !args.quick).into_iter().take(6) {
            let inner = factor_magma(&profile, ExecMode::TimingOnly, n, b, None, false)
                .expect("baseline")
                .time
                .as_secs();
            let outer = factor_outer(&profile, ExecMode::TimingOnly, n, b, None, false)
                .expect("outer variant")
                .time
                .as_secs();
            let enhanced = run_clean(
                SchemeKind::Enhanced,
                &profile,
                ExecMode::TimingOnly,
                n,
                b,
                &AbftOptions::default(),
                None,
            )
            .expect("scheme")
            .time
            .as_secs();
            // DMR: run twice and compare (detection only). TMR: thrice and
            // vote (correction). Their overheads are definitional.
            let dmr = 2.0 * inner;
            let tmr = 3.0 * inner;
            t.row(&[
                n.to_string(),
                format!("{inner:.3}"),
                fmt_pct(overhead_pct(outer, inner)),
                fmt_pct(overhead_pct(enhanced, inner)),
                fmt_pct(overhead_pct(dmr, inner)),
                fmt_pct(overhead_pct(tmr, inner)),
            ]);
        }
        t.print();
        if args.json {
            let p = t.save_json(&format!(
                "ablation_variant_{}.json",
                profile.name.to_lowercase()
            ));
            println!("table written to {}", p.display());
        }
    }
    println!(
        "reading: the outer-product form pays its exposed POTF2 round trips (Section\n\
         II-A's rationale for MAGMA's choice); Enhanced Online-ABFT corrects BOTH error\n\
         species for ~1-7% where replication pays 100-200% (Section I's motivation)."
    );
}
