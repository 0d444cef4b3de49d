//! The form the paper's five paired figures (8/9 … 16/17) share: one table
//! per system, a row per paper size, a column per configuration.

use crate::driver::Grid;
use crate::report::{fmt_pct, Table};
use crate::runner::{gflops, overhead_pct, Case, Variant};
use hchol_core::options::AbftOptions;
use hchol_gpusim::profile::SystemProfile;

/// A paired figure: Tardis's panel is figure `first`, Bulldozer64's is
/// `first + 1`.
pub struct Figure {
    /// Tardis's figure number.
    pub first: u32,
    /// File stem part: `fig<NN>_<slug>_<system>.{csv,json}`.
    pub slug: &'static str,
    /// The caption after "Figure N — ".
    pub caption: fn(&SystemProfile) -> String,
    /// One column per configuration.
    pub columns: &'static [Column],
    /// What a cell reports about its run.
    pub metric: Metric,
    /// Append a "gain (points)" column: the first column minus the second.
    pub gain: bool,
    /// A line under the table, from the largest size's values.
    pub footer: Option<fn(&[f64]) -> String>,
}

/// One configuration of a figure: header, the variant run, and its
/// options on a system.
pub type Column = (&'static str, Variant, fn(&SystemProfile) -> AbftOptions);

/// What a figure's cell reports.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Percent overhead against MAGMA at the same size.
    Overhead,
    /// GFLOP/s.
    Gflops,
}

impl Figure {
    /// The figure `profile`'s panel is numbered.
    pub fn number(&self, profile: &SystemProfile) -> u32 {
        self.first + u32::from(profile.name == "Bulldozer64")
    }

    /// The panel's artifact stem, `fig<NN>_<slug>_<system>`.
    pub fn stem(&self, profile: &SystemProfile) -> String {
        let tag = profile.name.to_lowercase();
        format!("fig{:02}_{}_{tag}", self.number(profile), self.slug)
    }

    /// Print and write one panel per system of `g`.
    pub fn run(&self, g: &Grid) {
        for p in &g.systems {
            let mut header = vec!["n"];
            header.extend(self.columns.iter().map(|c| c.0));
            if self.gain {
                header.push("gain (points)");
            }
            let title = format!("Figure {} — {}", self.number(p), (self.caption)(p));
            let mut t = Table::new(&title, &header);
            let mut last = Vec::new();
            for n in g.sizes(p) {
                let case = Case::new(p, n, p.default_block);
                let base = (self.metric == Metric::Overhead).then(|| case.secs(Variant::Magma));
                let values: Vec<f64> = self
                    .columns
                    .iter()
                    .map(|&(_, variant, opts)| {
                        let s = case.clone().with_opts(opts(p)).secs(variant);
                        base.map_or_else(|| gflops(n, s), |base| overhead_pct(s, base))
                    })
                    .collect();
                let mut cells = vec![n.to_string()];
                cells.extend(values.iter().map(|&v| match self.metric {
                    Metric::Overhead => fmt_pct(v),
                    Metric::Gflops => format!("{v:.1}"),
                }));
                if self.gain {
                    cells.push(format!("{:.2}", values[0] - values[1]));
                }
                t.row(&cells);
                last = values;
            }
            let stem = self.stem(p);
            g.table(&t, &format!("{stem}.json"));
            g.csv(&t, &format!("{stem}.csv"));
            if let Some(footer) = self.footer {
                println!("{}", footer(&last));
            }
        }
    }
}
