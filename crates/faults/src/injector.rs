//! The injector: applies a [`FaultPlan`] to simulated device memory and
//! keeps the ground-truth ledger of corrupted tiles.

use crate::spec::{DeviceLoss, FaultKind, FaultPlan, FaultSpec, InjectionPoint};
use hchol_matrix::{bits, Scalar, TileMatrix};
use std::collections::HashMap;

/// How a tile came to be corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dirtiness {
    /// A planned fault struck this tile directly: at most one wrong element,
    /// which two weighted checksums can locate and correct.
    Direct,
    /// Corruption flowed in through an operation that read a dirty tile:
    /// typically many wrong elements, beyond single-error-per-column
    /// correction capability.
    Propagated,
}

/// Record of a fault that actually struck.
#[derive(Debug, Clone)]
pub struct AppliedFault {
    /// The plan entry that fired.
    pub spec: FaultSpec,
    /// Value before corruption, widened to `f64` for the ledger (NaN in
    /// TimingOnly mode, where no data exists).
    pub original: f64,
    /// Value after corruption, widened to `f64` (NaN in TimingOnly mode).
    pub corrupted: f64,
}

/// Applies planned faults at the driver's hook points and tracks which
/// tiles are currently corrupt.
///
/// The *dirty set* is ground truth, not something the protected algorithm
/// may consult for detection in Execute mode — there, detection must come
/// from checksum arithmetic. It exists for (a) test assertions ("the scheme
/// corrected everything it should have") and (b) the TimingOnly oracle,
/// where verification outcomes are decided by the ledger because no numeric
/// data exists.
#[derive(Debug, Default)]
pub struct Injector {
    pending: HashMap<InjectionPoint, Vec<FaultSpec>>,
    pending_losses: HashMap<usize, DeviceLoss>,
    applied: Vec<AppliedFault>,
    dirty: HashMap<(usize, usize), Dirtiness>,
}

impl Injector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let mut pending: HashMap<InjectionPoint, Vec<FaultSpec>> = HashMap::new();
        for f in plan.faults {
            pending.entry(f.point).or_default().push(f);
        }
        let pending_losses = plan
            .device_losses
            .into_iter()
            .map(|l| (l.at_iter, l))
            .collect();
        Injector {
            pending,
            pending_losses,
            applied: Vec::new(),
            dirty: HashMap::new(),
        }
    }

    /// An injector that never fires.
    pub fn inert() -> Self {
        Injector::default()
    }

    /// Corrupt one value of any supported precision. Computing errors are
    /// relative offsets applied through `f64` (exact for both precisions at
    /// the plan's magnitudes); storage errors flip the spec's canonical
    /// 64-bit positions reduced modulo [`Scalar::BITS`].
    fn corrupt_value<S: Scalar>(kind: &FaultKind, x: S) -> S {
        match kind {
            FaultKind::Computing { magnitude } => {
                let xf = x.to_f64();
                S::from_f64(xf + magnitude * xf.abs().max(1.0))
            }
            FaultKind::Storage { bits: bs } => bits::flip_bits_scalar(x, bs),
        }
    }

    /// Apply all faults scheduled for `point` to `mat` (Execute mode).
    /// Returns how many fired.
    pub fn poll<S: Scalar>(&mut self, point: InjectionPoint, mat: &mut TileMatrix<S>) -> usize {
        let Some(specs) = self.pending.remove(&point) else {
            return 0;
        };
        let n = specs.len();
        for spec in specs {
            let t = spec.target;
            let tile = mat.tile_mut(t.bi, t.bj);
            let original = tile.get(t.row, t.col);
            let corrupted = Self::corrupt_value(&spec.kind, original);
            tile.set(t.row, t.col, corrupted);
            self.taint((t.bi, t.bj), Dirtiness::Direct);
            self.applied.push(AppliedFault {
                spec,
                original: original.to_f64(),
                corrupted: corrupted.to_f64(),
            });
        }
        n
    }

    /// Mark the faults scheduled for `point` as having struck without
    /// touching any data (TimingOnly mode). Returns how many fired.
    pub fn poll_timing(&mut self, point: InjectionPoint) -> usize {
        let Some(specs) = self.pending.remove(&point) else {
            return 0;
        };
        let n = specs.len();
        for spec in specs {
            let t = spec.target;
            self.taint((t.bi, t.bj), Dirtiness::Direct);
            self.applied.push(AppliedFault {
                spec,
                original: f64::NAN,
                corrupted: f64::NAN,
            });
        }
        n
    }

    fn taint(&mut self, key: (usize, usize), how: Dirtiness) {
        // Propagated corruption never downgrades direct corruption, and a
        // direct hit on an already-propagated tile stays propagated (it has
        // many wrong elements either way).
        self.dirty
            .entry(key)
            .and_modify(|d| {
                if how == Dirtiness::Propagated {
                    *d = Dirtiness::Propagated;
                }
            })
            .or_insert(how);
    }

    /// Is any tile currently corrupt? (A clean ledger has nothing to
    /// propagate.)
    pub fn any_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Ground truth: is tile `(bi, bj)` currently corrupt?
    pub fn is_dirty(&self, bi: usize, bj: usize) -> bool {
        self.dirty.contains_key(&(bi, bj))
    }

    /// How tile `(bi, bj)` is corrupt, if at all.
    pub fn dirtiness(&self, bi: usize, bj: usize) -> Option<Dirtiness> {
        self.dirty.get(&(bi, bj)).copied()
    }

    /// Record that corruption flowed into tile `(bi, bj)` through an
    /// operation that read a dirty tile. Which operations spread what is
    /// the caller's model (the plan's declared tiles); call it at every
    /// update in TimingOnly mode, and optionally in Execute mode, where it
    /// serves test assertions only.
    pub fn mark_propagated(&mut self, bi: usize, bj: usize) {
        self.taint((bi, bj), Dirtiness::Propagated);
    }

    /// Forget all corruption state (the run restarted from pristine data).
    pub fn reset_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Notify the ledger that a scheme corrected tile `(bi, bj)`.
    pub fn mark_corrected(&mut self, bi: usize, bj: usize) {
        self.dirty.remove(&(bi, bj));
    }

    /// Number of currently-corrupt tiles.
    #[cfg(test)]
    fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// All faults that have struck so far.
    pub fn applied(&self) -> &[AppliedFault] {
        &self.applied
    }

    /// Number of faults not yet fired.
    #[cfg(test)]
    fn pending_count(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Take the device loss scheduled for the start of iteration `iter`,
    /// if any (fires at most once; the executor's recovery pass consumes
    /// it). Element faults and the dirty ledger are unaffected — a lost
    /// shard is reconstructed exactly, so it never taints tiles.
    pub fn take_device_loss(&mut self, iter: usize) -> Option<DeviceLoss> {
        self.pending_losses.remove(&iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultTarget, InjectionPoint};
    use hchol_matrix::Matrix;

    fn plan_at(point: InjectionPoint) -> FaultPlan {
        FaultPlan::single(FaultSpec {
            point,
            target: FaultTarget {
                bi: 1,
                bj: 0,
                row: 1,
                col: 1,
            },
            kind: FaultKind::computing(),
        })
    }

    fn tiles() -> TileMatrix {
        TileMatrix::from_dense(&Matrix::filled(4, 4, 2.0), 2).unwrap()
    }

    #[test]
    fn fires_exactly_once_at_its_point() {
        let point = InjectionPoint::PostGemm { iter: 1 };
        let mut inj = Injector::new(plan_at(point));
        let mut m = tiles();
        assert_eq!(inj.pending_count(), 1);
        assert_eq!(inj.poll(InjectionPoint::PostGemm { iter: 0 }, &mut m), 0);
        assert_eq!(inj.poll(point, &mut m), 1);
        assert_eq!(inj.poll(point, &mut m), 0, "must not re-fire");
        assert_eq!(inj.pending_count(), 0);
        // element (1,1) of tile (1,0) = global (3,1): 2.0 + 1.0*2.0 = 4.0
        assert_eq!(m.get(3, 1), 4.0);
        assert_eq!(m.get(0, 0), 2.0, "other elements untouched");
        assert!(inj.is_dirty(1, 0));
        assert!(!inj.is_dirty(0, 0));
    }

    #[test]
    fn storage_kind_flips_bits() {
        let point = InjectionPoint::IterStart { iter: 2 };
        let mut inj = Injector::new(FaultPlan::single(FaultSpec {
            point,
            target: FaultTarget {
                bi: 0,
                bj: 0,
                row: 0,
                col: 0,
            },
            kind: FaultKind::Storage { bits: vec![63] },
        }));
        let mut m = tiles();
        inj.poll(point, &mut m);
        assert_eq!(m.get(0, 0), -2.0, "sign flip");
        let a = &inj.applied()[0];
        assert_eq!(a.original, 2.0);
        assert_eq!(a.corrupted, -2.0);
    }

    #[test]
    fn f32_faults_strike_reduced_precision_tiles() {
        // Storage spec written against the canonical f64 layout: the sign
        // bit 63 reduces to f32 bit 31 — still a sign flip.
        let point = InjectionPoint::IterStart { iter: 0 };
        let mut inj = Injector::new(FaultPlan::single(FaultSpec {
            point,
            target: FaultTarget {
                bi: 0,
                bj: 0,
                row: 0,
                col: 0,
            },
            kind: FaultKind::Storage { bits: vec![63] },
        }));
        let mut m = TileMatrix::<f32>::from_dense(&Matrix::filled(4, 4, 2.0), 2).unwrap();
        assert_eq!(inj.poll(point, &mut m), 1);
        assert_eq!(m.get(0, 0), -2.0f32);
        assert_eq!(inj.applied()[0].original, 2.0);
        assert_eq!(inj.applied()[0].corrupted, -2.0);

        // Computing errors offset relative to magnitude in any precision.
        let point2 = InjectionPoint::PostGemm { iter: 1 };
        let mut inj2 = Injector::new(FaultPlan::single(FaultSpec {
            point: point2,
            target: FaultTarget {
                bi: 1,
                bj: 0,
                row: 1,
                col: 1,
            },
            kind: FaultKind::computing(),
        }));
        let mut m2 = TileMatrix::<f32>::from_dense(&Matrix::filled(4, 4, 2.0), 2).unwrap();
        assert_eq!(inj2.poll(point2, &mut m2), 1);
        assert_eq!(m2.get(3, 1), 4.0f32);
    }

    #[test]
    fn corrected_tiles_leave_ledger() {
        let point = InjectionPoint::PostSyrk { iter: 0 };
        let mut inj = Injector::new(plan_at(point));
        let mut m = tiles();
        inj.poll(point, &mut m);
        assert_eq!(inj.dirty_count(), 1);
        inj.mark_corrected(1, 0);
        assert_eq!(inj.dirty_count(), 0);
    }

    #[test]
    fn timing_poll_marks_without_data() {
        let point = InjectionPoint::PostTrsm { iter: 3 };
        let mut inj = Injector::new(plan_at(point));
        assert_eq!(inj.poll_timing(point), 1);
        assert!(inj.is_dirty(1, 0));
        assert!(inj.applied()[0].original.is_nan());
    }

    #[test]
    fn inert_injector_never_fires() {
        let mut inj = Injector::inert();
        let mut m = tiles();
        for i in 0..4 {
            assert_eq!(inj.poll(InjectionPoint::IterStart { iter: i }, &mut m), 0);
        }
        assert_eq!(inj.dirty_count(), 0);
        assert_eq!(inj.applied().len(), 0);
    }

    #[test]
    fn propagation_marks_destination() {
        let point = InjectionPoint::IterStart { iter: 0 };
        let mut inj = Injector::new(plan_at(point));
        let mut m = tiles();
        inj.poll(point, &mut m);
        assert_eq!(inj.dirtiness(1, 0), Some(Dirtiness::Direct));
        assert!(inj.any_dirty());
        // Corruption flowing into a clean tile marks it propagated...
        inj.mark_propagated(1, 1);
        assert_eq!(inj.dirtiness(1, 1), Some(Dirtiness::Propagated));
        assert!(!inj.is_dirty(0, 1));
        // ...and upgrades a direct hit, which a later direct hit never
        // downgrades.
        inj.mark_propagated(1, 0);
        assert_eq!(inj.dirtiness(1, 0), Some(Dirtiness::Propagated));
        inj.taint((1, 0), Dirtiness::Direct);
        assert_eq!(inj.dirtiness(1, 0), Some(Dirtiness::Propagated));
    }

    #[test]
    fn reset_dirty_clears_ledger() {
        let point = InjectionPoint::IterStart { iter: 0 };
        let mut inj = Injector::new(plan_at(point));
        let mut m = tiles();
        inj.poll(point, &mut m);
        inj.mark_propagated(1, 1);
        assert_eq!(inj.dirty_count(), 2);
        inj.reset_dirty();
        assert_eq!(inj.dirty_count(), 0);
        assert!(!inj.any_dirty());
        // Already-fired faults do not re-fire after a restart.
        assert_eq!(inj.pending_count(), 0);
    }

    #[test]
    fn device_loss_fires_once_at_its_iteration() {
        let mut inj = Injector::new(FaultPlan::device_loss(1, 2));
        assert!(inj.take_device_loss(0).is_none());
        assert!(inj.take_device_loss(1).is_none());
        let l = inj.take_device_loss(2).expect("loss fires at iter 2");
        assert_eq!((l.device, l.at_iter), (1, 2));
        assert!(inj.take_device_loss(2).is_none(), "must not re-fire");
        assert_eq!(inj.dirty_count(), 0, "a device loss taints no tiles");
    }

    #[test]
    fn multiple_faults_same_point_all_fire() {
        let point = InjectionPoint::IterStart { iter: 1 };
        let mut plan = plan_at(point);
        plan.faults.push(FaultSpec {
            point,
            target: FaultTarget {
                bi: 0,
                bj: 1,
                row: 0,
                col: 0,
            },
            kind: FaultKind::storage(),
        });
        let mut inj = Injector::new(plan);
        let mut m = tiles();
        assert_eq!(inj.poll(point, &mut m), 2);
        assert_eq!(inj.dirty_count(), 2);
    }
}
