//! Fault descriptions: what goes wrong, where, and when.

use hchol_matrix::MatrixError;
use serde::{Deserialize, Serialize};

/// The two silent-error species of the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A computing error: the updating operation produced a wrong value.
    /// The stored element is perturbed by `magnitude` (relative to its own
    /// scale: `x ← x + magnitude · max(|x|, 1)`), modeling a miscalculation
    /// whose wrongness does not depend on the bit layout.
    Computing {
        /// Relative size of the miscalculation.
        magnitude: f64,
    },
    /// A storage error: DRAM bit flips in the element as it rests in memory.
    /// One bit models what slips past a machine with no ECC; two or more
    /// bits model the multi-bit upsets ECC cannot correct (the paper's
    /// justification for needing ABFT even on ECC machines).
    Storage {
        /// Which bits of the IEEE-754 double flip (0 = mantissa LSB,
        /// 63 = sign).
        bits: Vec<u32>,
    },
}

impl FaultKind {
    /// A canonical computing error (large enough to exceed any rounding
    /// threshold, small enough to keep the matrix well scaled).
    pub fn computing() -> Self {
        FaultKind::Computing { magnitude: 1.0 }
    }

    /// A canonical double-bit storage upset (uncorrectable by SEC-DED ECC):
    /// one mid-mantissa bit and one exponent bit.
    pub fn storage() -> Self {
        FaultKind::Storage { bits: vec![30, 53] }
    }
}

/// Where the corrupted element lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTarget {
    /// Block-row of the target tile in the matrix grid.
    pub bi: usize,
    /// Block-column of the target tile.
    pub bj: usize,
    /// Row within the tile.
    pub row: usize,
    /// Column within the tile.
    pub col: usize,
}

/// A point in the blocked factorization's control flow at which faults can
/// strike. `iter` is the outer iteration (block column) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InjectionPoint {
    /// At the top of outer iteration `iter`, before any verification —
    /// this is the "while the block rests in memory" window where storage
    /// errors live.
    IterStart {
        /// Outer iteration index.
        iter: usize,
    },
    /// Right after the SYRK of iteration `iter` writes the diagonal block.
    PostSyrk {
        /// Outer iteration index.
        iter: usize,
    },
    /// Right after the panel GEMM of iteration `iter`.
    PostGemm {
        /// Outer iteration index.
        iter: usize,
    },
    /// Right after the POTF2 result returns to device memory.
    PostPotf2 {
        /// Outer iteration index.
        iter: usize,
    },
    /// Right after the panel TRSM of iteration `iter`.
    PostTrsm {
        /// Outer iteration index.
        iter: usize,
    },
}

impl InjectionPoint {
    /// The outer iteration this point belongs to.
    pub fn iter(&self) -> usize {
        match *self {
            InjectionPoint::IterStart { iter }
            | InjectionPoint::PostSyrk { iter }
            | InjectionPoint::PostGemm { iter }
            | InjectionPoint::PostPotf2 { iter }
            | InjectionPoint::PostTrsm { iter } => iter,
        }
    }
}

/// The species of a fault site, without its parameters — the static
/// coverage checker enumerates sites per class and proves one detection
/// path for both (a single-element corruption is the same proof obligation
/// whether the wrong value came from a miscalculation or a bit flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// A [`FaultKind::Computing`] miscalculation.
    Computing,
    /// A [`FaultKind::Storage`] bit upset.
    Storage,
}

impl FaultClass {
    /// Both classes, in registry order.
    pub fn all() -> [FaultClass; 2] {
        [FaultClass::Computing, FaultClass::Storage]
    }

    /// The canonical concrete fault of this class.
    pub fn canonical_kind(&self) -> FaultKind {
        match self {
            FaultClass::Computing => FaultKind::computing(),
            FaultClass::Storage => FaultKind::storage(),
        }
    }
}

/// One statically enumerable fault site: a control-flow point × a target
/// tile × an error species. The coverage checker (`hchol-analyze`)
/// enumerates every live site of a plan and proves a detection-plus-
/// correction path for each; [`FaultSite::to_spec`] lowers a site to a
/// concrete injectable [`FaultSpec`] so static verdicts can be
/// cross-validated against actual injection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSite {
    /// When the fault strikes.
    pub point: InjectionPoint,
    /// Block row of the corrupted tile.
    pub bi: usize,
    /// Block column of the corrupted tile.
    pub bj: usize,
    /// The error species.
    pub class: FaultClass,
}

impl FaultSite {
    /// The corrupted tile `(block row, block column)`.
    pub fn tile(&self) -> (usize, usize) {
        (self.bi, self.bj)
    }

    /// Lower to a concrete [`FaultSpec`], picking a deterministic in-tile
    /// element from the site coordinates (`block` is the tile edge). Every
    /// site maps to a distinct, reproducible fault.
    // lint:allow(dead-pub) coverage_static injects each static site through it
    pub fn to_spec(&self, block: usize) -> FaultSpec {
        let (bi, bj) = (self.bi, self.bj);
        FaultSpec {
            point: self.point,
            target: FaultTarget {
                bi,
                bj,
                row: (bi * 3 + bj + 1) % block,
                col: (bi + bj * 5 + 2) % block,
            },
            kind: self.class.canonical_kind(),
        }
    }
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// When to strike.
    pub point: InjectionPoint,
    /// Which element to corrupt.
    pub target: FaultTarget,
    /// How to corrupt it.
    pub kind: FaultKind,
}

/// Loss of one whole simulated device in a sharded run: at the top of
/// outer iteration `at_iter`, every tile homed on logical shard `device`
/// (matrix and checksum rows alike) vanishes. The executor reconstructs
/// the shard from the surviving devices' XOR parity and remaps the
/// logical shard onto a surviving physical device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceLoss {
    /// Logical shard (home device index) that fails.
    pub device: usize,
    /// Outer iteration at whose start the loss strikes.
    pub at_iter: usize,
}

/// An experiment's full fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// All planned faults (order irrelevant; matching is by point).
    pub faults: Vec<FaultSpec>,
    /// Whole-device losses (sharded runs only; at most one per run is
    /// recoverable — see DESIGN.md §12).
    pub device_losses: Vec<DeviceLoss>,
}

impl FaultPlan {
    /// The empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Plan with a single fault.
    pub fn single(spec: FaultSpec) -> Self {
        FaultPlan {
            faults: vec![spec],
            ..FaultPlan::default()
        }
    }

    /// Plan with a single whole-device loss and no element faults.
    pub fn device_loss(device: usize, at_iter: usize) -> Self {
        FaultPlan {
            device_losses: vec![DeviceLoss { device, at_iter }],
            ..FaultPlan::default()
        }
    }

    /// The paper's Table VII/VIII "Computation Error" scenario: one
    /// miscalculation in the panel produced by the GEMM of the middle
    /// iteration. `grid` is the number of block rows/cols; `block` the tile
    /// edge. A panel GEMM with both an update chain and rows below the
    /// diagonal needs `0 < iter < grid - 1`, which a grid of fewer than three
    /// tiles lacks, so there the scenario is empty ([`FaultPlan::none`]).
    pub fn paper_computing_error(grid: usize, block: usize) -> Self {
        if grid < 3 {
            return FaultPlan::none();
        }
        let iter = grid / 2;
        let bi = iter + 1;
        FaultPlan::single(FaultSpec {
            point: InjectionPoint::PostGemm { iter },
            target: FaultTarget {
                bi,
                bj: iter,
                row: block / 3,
                col: block / 2,
            },
            kind: FaultKind::computing(),
        })
    }

    /// The paper's "Memory Error" scenario: a multi-bit flip in an
    /// already-verified panel block of the *previous* iteration, striking
    /// after verification but before the block's next read — the window
    /// only the Enhanced scheme protects. The strike lands late in the run
    /// (the window grows as more of the factor sits at rest), which is what
    /// makes the post-update schemes' recovery cost approach a full 2×.
    /// A one-tile grid has no earlier column for a block to rest in, so
    /// there the scenario is empty ([`FaultPlan::none`]).
    pub fn paper_storage_error(grid: usize, block: usize) -> Self {
        if grid < 2 {
            return FaultPlan::none();
        }
        let iter = 3 * grid / 4;
        let bi = (iter + 1).min(grid - 1);
        FaultPlan::single(FaultSpec {
            point: InjectionPoint::IterStart { iter },
            target: FaultTarget {
                bi,
                // a factorized block from an earlier column: it will be
                // *read* (by GEMM) but never updated or re-verified by
                // post-update schemes.
                bj: iter - 1,
                row: block / 4,
                col: block / 5,
            },
            kind: FaultKind::storage(),
        })
    }

    /// Number of planned faults (element faults only; device losses are
    /// counted separately).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if no faults and no device losses are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.device_losses.is_empty()
    }

    /// Merge two plans.
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.faults.extend(other.faults);
        self.device_losses.extend(other.device_losses);
        self
    }

    /// Check that the plan names only what a run of size `n`, block `b`
    /// over `devices` devices has: every element fault at an iteration
    /// below `nt`, its target tile inside the `nt × nt` grid (either
    /// triangle) and its element inside that tile (the last tile row and
    /// column are short when `b` does not divide `n`), and every device
    /// loss on a sharded run, naming one of its devices at an iteration
    /// below `nt`. Anything else would index out of bounds or never fire,
    /// so it is refused with a typed [`MatrixError::FaultOutsideRun`].
    pub fn fits(&self, n: usize, b: usize, devices: usize) -> Result<(), MatrixError> {
        let refuse = |what| Err(MatrixError::FaultOutsideRun(what));
        if self.is_empty() {
            return Ok(());
        }
        if b == 0 {
            return Err(MatrixError::ZeroBlockSize);
        }
        let nt = n.div_ceil(b);
        // Rows (or columns) of tile row (or column) `t < nt`.
        let edge = |t: usize| b.min(n - t * b);
        for f in &self.faults {
            if f.point.iter() >= nt {
                return refuse("fault point past the last iteration");
            }
            let t = f.target;
            if t.bi >= nt || t.bj >= nt {
                return refuse("target tile outside the grid");
            }
            if t.row >= edge(t.bi) || t.col >= edge(t.bj) {
                return refuse("target element outside its tile");
            }
        }
        for l in &self.device_losses {
            if devices < 2 {
                return refuse("device loss on an unsharded run");
            }
            if l.device >= devices {
                return refuse("lost device outside the shard grid");
            }
            if l.at_iter >= nt {
                return refuse("device loss past the last iteration");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_point_iter() {
        assert_eq!(InjectionPoint::PostGemm { iter: 3 }.iter(), 3);
        assert_eq!(InjectionPoint::IterStart { iter: 0 }.iter(), 0);
    }

    #[test]
    fn canonical_kinds() {
        assert!(matches!(
            FaultKind::computing(),
            FaultKind::Computing { magnitude } if magnitude == 1.0
        ));
        match FaultKind::storage() {
            FaultKind::Storage { bits } => assert_eq!(bits.len(), 2),
            _ => panic!("expected storage"),
        }
    }

    #[test]
    fn paper_scenarios_are_well_formed() {
        let grid = 8;
        let block = 16;
        let c = FaultPlan::paper_computing_error(grid, block);
        assert_eq!(c.len(), 1);
        let f = &c.faults[0];
        assert!(matches!(f.point, InjectionPoint::PostGemm { .. }));
        assert!(f.target.bi < grid && f.target.bj < grid);
        assert!(f.target.row < block && f.target.col < block);

        let s = FaultPlan::paper_storage_error(grid, block);
        let f = &s.faults[0];
        assert!(matches!(f.point, InjectionPoint::IterStart { .. }));
        // storage target is in an already-factorized column
        assert!(f.target.bj < f.point.iter());
        // A one-tile grid has no earlier column: nothing to strike.
        assert!(FaultPlan::paper_storage_error(1, block).is_empty());
        // Below three tiles no panel GEMM has both a chain and rows.
        assert!(FaultPlan::paper_computing_error(1, block).is_empty());
        assert!(FaultPlan::paper_computing_error(2, block).is_empty());
        let c = FaultPlan::paper_computing_error(3, block);
        assert_eq!(c.len(), 1);
        let f = &c.faults[0];
        assert_eq!(f.point, InjectionPoint::PostGemm { iter: 1 });
        assert_eq!((f.target.bi, f.target.bj), (2, 1));
        let f = &FaultPlan::paper_storage_error(2, block).faults[0];
        assert_eq!((f.point.iter(), f.target.bi, f.target.bj), (1, 1, 0));
    }

    #[test]
    fn plans_merge() {
        let a = FaultPlan::paper_computing_error(4, 8);
        let b = FaultPlan::paper_storage_error(4, 8);
        let m = a.merged(b);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn device_loss_plans() {
        let p = FaultPlan::device_loss(1, 3);
        assert!(!p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(
            p.device_losses,
            vec![DeviceLoss {
                device: 1,
                at_iter: 3
            }]
        );
        let j = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&j).unwrap();
        assert_eq!(p, back);
        let m = FaultPlan::none().merged(p.clone());
        assert_eq!(m.device_losses.len(), 1);
    }

    #[test]
    fn fault_sites_lower_to_deterministic_specs() {
        let site = FaultSite {
            point: InjectionPoint::PostGemm { iter: 2 },
            bi: 4,
            bj: 2,
            class: FaultClass::Storage,
        };
        let s1 = site.to_spec(16);
        let s2 = site.to_spec(16);
        assert_eq!(s1, s2);
        assert_eq!((s1.target.bi, s1.target.bj), (4, 2));
        assert!(s1.target.row < 16 && s1.target.col < 16);
        assert!(matches!(s1.kind, FaultKind::Storage { .. }));
        assert!(matches!(
            FaultSite {
                class: FaultClass::Computing,
                ..site
            }
            .to_spec(16)
            .kind,
            FaultKind::Computing { .. }
        ));
        // Distinct sites pick distinct elements.
        let other = FaultSite { bi: 5, ..site }.to_spec(16);
        assert_ne!(s1.target, other.target);
    }

    #[test]
    fn serde_roundtrip() {
        let p = FaultPlan::paper_storage_error(6, 32);
        let j = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&j).unwrap();
        assert_eq!(p, back);
    }
}
