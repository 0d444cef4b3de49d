//! `--compare a.json b.json`: two result sets (written by `--out`) side by
//! side, judged by the bounds in `BENCHMARK.json`.
//!
//! Per workload × end-to-end metric it prints both medians with their
//! quartiles, the relative difference and the bound. A pair whose median
//! worsened past the bound is a **breach** (nonzero exit). A pair whose
//! quartile ranges are wider than the bound is **unresolved**, not
//! unchanged — unless every run of `b` reads better than every run of `a`.
//! Values that must repeat exactly (the virtual clock and the exact
//! counts) are compared bit for bit.

use crate::json::{field, number};
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles};
use serde::Value;
use std::fmt::Write as _;

/// Per-layer metrics that must be bit-identical between two sets of one
/// commit: everything on the virtual clock, and the exact counts.
pub fn is_exact(name: &str) -> bool {
    const EXACT: [&str; 12] = [
        "blas.gemm_nt.calls",
        "blas.trsm.calls",
        "blas.potf2.calls",
        "core.plan.nodes",
        "core.plan.edges",
        "core.recovery.attempts",
        "core.recovery.corrected",
        "core.recovery.detections",
        "faults.injected",
        "analyze.coverage.sites",
        "analyze.schedule.ops",
        "obs.report.json_bytes",
    ];
    name.starts_with("virt.") || EXACT.contains(&name)
}

fn values(set: &Value, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let m = field(
        field(field(field(set, "workloads")?, workload)?, section)?,
        metric,
    )?;
    field(m, "values")?.as_array()?.iter().map(number).collect()
}

/// How one workload × metric pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Spread wider than the bound: no claim either way.
    Unresolved,
    /// Median worsened by more than the bound.
    Breach,
}

/// Judge `b` against `a` for one end-to-end metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let rel = (mb - ma) / ma.abs();
    let worse = if def.lower_is_better { rel } else { -rel };
    if worse > bound {
        return (Verdict::Breach, rel);
    }
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    let spread = iqr(a).max(iqr(b)) / ma.abs();
    let all_better = if def.lower_is_better {
        b.iter().all(|x| a.iter().all(|y| x < y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x > y))
    };
    if spread > bound && !all_better {
        (Verdict::Unresolved, rel)
    } else {
        (Verdict::Ok, rel)
    }
}

/// Compare two parsed result sets; returns the report text and whether
/// any pair breached its bound or any exact value differed.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut breach = false;
    for w in &spec.workloads {
        let _ = writeln!(out, "{w}");
        for def in &spec.end_to_end {
            let (Some(xa), Some(xb)) = (
                values(a, w, "end_to_end", &def.name),
                values(b, w, "end_to_end", &def.name),
            ) else {
                let _ = writeln!(out, "  {:<20} missing from one set", def.name);
                breach = true;
                continue;
            };
            let (verdict, rel) = judge(def, &xa, &xb);
            breach |= verdict == Verdict::Breach;
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                format!("{:.6} [{:.6}, {:.6}]", median(xs), q1, q3)
            };
            let _ = writeln!(
                out,
                "  {:<20} a {}  b {}  {}  diff {:+.3}%  bound {:.3e}%  {}",
                def.name,
                show(&xa),
                show(&xb),
                def.unit,
                100.0 * rel,
                100.0 * def.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                    Verdict::Breach => "BREACH",
                }
            );
        }
        for def in spec.per_layer.iter().filter(|d| is_exact(&d.name)) {
            let (xa, xb) = (
                values(a, w, "per_layer", &def.name),
                values(b, w, "per_layer", &def.name),
            );
            // Sets made without --trace carry no per-layer values.
            if let (Some(xa), Some(xb)) = (xa, xb) {
                let same = xa.len() == xb.len()
                    && xa.iter().zip(&xb).all(|(x, y)| x.to_bits() == y.to_bits());
                if !same {
                    let _ = writeln!(
                        out,
                        "  {:<20} EXACT VALUE DIFFERS: {xa:?} vs {xb:?}",
                        def.name
                    );
                    breach = true;
                }
            }
        }
    }
    (out, breach)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64) -> MetricDef {
        MetricDef {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn breach_unresolved_and_ok() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&def(0.1), &a, &slower).0, Verdict::Breach);
        assert_eq!(judge(&def(0.1), &a, &a).0, Verdict::Ok);
        let noisy = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0, 0.75, 1.25];
        assert_eq!(judge(&def(0.1), &a, &noisy).0, Verdict::Unresolved);
        // Wide spread, but every run of b beats every run of a.
        let faster: Vec<f64> = noisy.iter().map(|x| x * 0.1).collect();
        assert_eq!(judge(&def(0.1), &noisy, &faster).0, Verdict::Ok);
    }

    #[test]
    fn exact_bound_flags_any_drift() {
        let d = def(1e-9);
        assert_eq!(judge(&d, &[10.0; 3], &[10.0; 3]).0, Verdict::Ok);
        assert_eq!(judge(&d, &[10.0; 3], &[10.000001; 3]).0, Verdict::Breach);
    }
}
