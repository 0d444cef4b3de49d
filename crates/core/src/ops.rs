//! Shared building blocks for every factorization driver: buffer layout,
//! MAGMA's four per-iteration operations, checksum encode/update, and
//! batched verification.
//!
//! Every scheme (`magma`, `cula`, `schemes::*`) is a different composition
//! of these pieces; none of them owns private kernel code. All functions
//! work in both [`hchol_gpusim::ExecMode`]s: numerics run inside kernel closures (skipped
//! in `TimingOnly`), while cost, stream ordering, and counters always apply.

use crate::checksum;
use crate::chkops;
use crate::options::{AbftOptions, ChecksumPlacement, ToleranceModel};
use crate::plan::{chk_tile, dpt_tile, mat_tile, UpdateOp};
use crate::verify::{verify_and_correct, TileTolerance, VerifyOutcome, VerifyPolicy};
use hchol_blas::par::{self, RankUpdate};
use hchol_blas::{flops, potf2, trsm};
use hchol_faults::{Dirtiness, InjectionPoint, Injector};
use hchol_gpusim::context::KernelDesc;
use hchol_gpusim::counters::WorkCategory;
#[cfg(test)]
use hchol_gpusim::ExecMode;
use hchol_gpusim::{
    AccessSet, BufferId, DeviceMemory, EventId, HostBufferId, KernelClass, Label, SimContext,
    StreamId, TileRef,
};
use hchol_matrix::tile::TileFill;
use hchol_matrix::{
    triangular::force_lower, Diag, Matrix, MatrixError, Scalar, Side, TileMatrix, Trans, Uplo,
};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Buffer and stream layout of one factorization run.
pub struct CholLayout {
    /// Matrix size.
    pub n: usize,
    /// Block (tile) size.
    pub b: usize,
    /// Grid size `n / b` (rounded up).
    pub nt: usize,
    /// The matrix, tiled, on the device.
    pub mat: BufferId,
    /// Per-block-row checksum buffers (`2 × n`, tiled `2 × B`); empty when
    /// the driver runs without fault tolerance.
    pub cks: Vec<BufferId>,
    /// Recalculation scratch tiles (`2 × B` each), grown on demand.
    pub scratch: Vec<BufferId>,
    /// Per-block-row checksum *deposit* buffers (`2 × n`, tiled `2 × B`,
    /// mirroring [`CholLayout::cks`]) written by the fused SYRK/GEMM
    /// epilogues; allocated on first fused launch, empty otherwise.
    pub dpt: Vec<BufferId>,
    /// Host staging block for the POTF2 round trip.
    pub host_diag: HostBufferId,
    /// The streams kernels and transfers are issued on. The executor
    /// points this at the acting shard's set before every node of a
    /// sharded plan, so the ops below need no sharding awareness.
    pub streams: StreamSet,
    /// Column whose host mirror (CPU checksum-update placement) is queued
    /// but not yet issued — flushed right *after* the next iteration's
    /// latency-critical diagonal-block transfer so the bulky mirror never
    /// delays the POTF2 round trip on the shared DMA engine.
    pub pending_mirror: Option<usize>,
    /// Resolved checksum-update placement.
    pub placement: ChecksumPlacement,
    /// Multiplier on charged kernel flops (models a less efficient BLAS —
    /// used by the simulated CULA baseline; 1.0 everywhere else).
    pub flop_inflation: f64,
    /// Running per-grid-column magnitude statistic `max|x|` over the
    /// column's lower-triangle tiles, captured at encode and refreshed
    /// (monotone max) at every recalculation — the variance input of the
    /// adaptive tolerance model ([`crate::tolerance`]), its only reader.
    /// Execute mode under an adaptive tolerance only; stays all-zero
    /// otherwise (in TimingOnly the adaptive threshold falls back to its
    /// magnitude floor).
    pub col_stats: Vec<f64>,
}

/// The streams one device's share of a factorization is issued on, plus
/// the panel-complete event recorded on them: one set for a single-device
/// run, one per logical shard for a sharded one.
#[derive(Debug, Clone)]
pub struct StreamSet {
    /// Main compute stream (SYRK/GEMM/TRSM).
    pub comp: StreamId,
    /// Transfer stream (diag block round trip).
    pub tran: StreamId,
    /// Checksum-update stream (Optimization 2, GPU placement).
    pub chk: StreamId,
    /// Stream for verification-related transfers (CPU placement): kept
    /// separate from `tran` so the small compare traffic never queues
    /// behind bulky panel mirrors.
    pub verif: StreamId,
    /// Streams for concurrent checksum recalculation (Optimization 1).
    pub recalc: Vec<StreamId>,
    /// Event marking completion of the most recent panel TRSM on the
    /// compute stream; checksum-update kernels reading factorized tiles
    /// order themselves behind it.
    pub panel_ready: Option<EventId>,
}

impl StreamSet {
    /// Create a set on device `dev`. The compute stream is a fresh one
    /// (`dedicated_comp`) or the context's default stream, which lives on
    /// device 0.
    pub fn create<S: Scalar>(ctx: &mut SimContext<S>, dev: usize, dedicated_comp: bool) -> Self {
        assert!(
            dedicated_comp || dev == 0,
            "the default stream is on device 0"
        );
        let comp = if dedicated_comp {
            ctx.create_stream_on(dev)
        } else {
            ctx.default_stream()
        };
        // The paper creates N recalculation streams (the hardware's
        // concurrent-kernel cap) and distributes the kernels evenly.
        let n_recalc = ctx.profile().gpu.max_concurrent_kernels;
        StreamSet {
            comp,
            tran: ctx.create_stream_on(dev),
            chk: ctx.create_stream_on(dev),
            verif: ctx.create_stream_on(dev),
            recalc: (0..n_recalc).map(|_| ctx.create_stream_on(dev)).collect(),
            panel_ready: None,
        }
    }
}

impl CholLayout {
    #[inline]
    fn charge(&self, f: u64) -> u64 {
        (f as f64 * self.flop_inflation).round() as u64
    }

    /// Bind an access set authored in the plan's canonical buffer ids
    /// ([`mat_tile`], [`chk_tile`], [`dpt_tile`]) to this run's real
    /// buffers: `BufferId(0) → mat`, `1 + bi → cks[bi]`,
    /// `1 + nt + bi → dpt[bi]`. The ops author their tile sets once, in
    /// canonical form, for the plan and the kernel launch alike.
    pub fn bind(&self, mut access: AccessSet) -> AccessSet {
        for t in access.reads.iter_mut().chain(&mut access.writes) {
            t.buf = match t.buf.0 {
                0 => self.mat,
                c if c <= self.nt => self.cks[c - 1],
                c => self.dpt[c - 1 - self.nt],
            };
        }
        access
    }
}

/// Allocate buffers and streams for an `n × n` factorization with block
/// size `b`. `input` must be `Some` in Execute mode (its tiles are placed
/// in device memory — the paper uses the MAGMA variant whose input already
/// resides on the GPU, so no initial transfer is charged). A missing or
/// non-`n × n` input, and a checksummed Execute run at `b = 1`, are
/// refused before anything is allocated.
pub fn setup<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
) -> Result<CholLayout, MatrixError> {
    setup_impl(ctx, n, b, with_checksums, placement, input, false)
}

/// Like [`setup`], but with a *created* (non-default) compute stream, so
/// several layouts can coexist in one context without sharing the default
/// stream — the foundation of batched multi-matrix runs
/// (`plan::exec::run_batch`).
pub fn setup_batch<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
) -> Result<CholLayout, MatrixError> {
    setup_impl(ctx, n, b, with_checksums, placement, input, true)
}

fn setup_impl<S: Scalar>(
    ctx: &mut SimContext<S>,
    n: usize,
    b: usize,
    with_checksums: bool,
    placement: ChecksumPlacement,
    input: Option<&Matrix<S>>,
    dedicated_comp: bool,
) -> Result<CholLayout, MatrixError> {
    assert!(
        !matches!(placement, ChecksumPlacement::Auto),
        "resolve placement via decision::choose before setup"
    );
    let nt = n.div_ceil(b.max(1));
    let execute = ctx.mode.executes();
    if execute && with_checksums && b == 1 {
        // A block row's two checksum rows share one tile row of the `2 × n`
        // buffer, which a block of one row cannot hold.
        return Err(MatrixError::UnsupportedConfig(
            "checksummed runs need a block size of at least 2",
        ));
    }
    let mat = if execute {
        let dense = input.ok_or(MatrixError::UnsupportedConfig(
            "Execute mode requires input data",
        ))?;
        if dense.shape() != (n, n) {
            return Err(MatrixError::ShapeMismatch {
                op: "setup input",
                lhs: dense.shape(),
                rhs: (n, n),
            });
        }
        ctx.dev_mem.alloc(tile_input(dense, b)?)
    } else {
        ctx.dev_mem.alloc(TileMatrix::zeros(0, 0, b)?)
    };
    let cks = if with_checksums {
        (0..nt)
            .map(|_| alloc_dev(ctx, checksum::CHECKSUM_COUNT, n, b))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let host_b = if execute { b } else { 0 };
    let host_diag = ctx.host_mem.alloc_zeros(host_b, host_b);
    let streams = StreamSet::create(ctx, 0, dedicated_comp);
    Ok(CholLayout {
        n,
        b,
        nt,
        mat,
        cks,
        scratch: Vec::new(),
        dpt: Vec::new(),
        host_diag,
        streams,
        pending_mirror: None,
        placement,
        flop_inflation: 1.0,
        col_stats: vec![0.0; nt],
    })
}

/// Tile `dense` by `b`, copying one tile per unit of work on the host team.
fn tile_input<S: Scalar>(dense: &Matrix<S>, b: usize) -> Result<TileMatrix<S>, MatrixError> {
    TileMatrix::from_dense_by(dense, b, |fills| par::for_each(fills, TileFill::run))
}

/// A zeroed `rows × cols` device buffer tiled by `b` — sized to nothing in
/// TimingOnly, where no kernel body ever runs to touch it.
pub(crate) fn alloc_dev<S: Scalar>(
    ctx: &mut SimContext<S>,
    rows: usize,
    cols: usize,
    b: usize,
) -> Result<BufferId, MatrixError> {
    let (rows, cols) = if ctx.mode.executes() {
        (rows, cols)
    } else {
        (0, 0)
    };
    ctx.dev_mem.alloc_zeros(rows, cols, b)
}

/// Grow the scratch pool to at least `count` slots. A slot is tiled by
/// `b` and holds one tile per tile width of the grid: the full `2 × b`
/// tile, then, when `b` does not divide `n`, the narrower edge tile.
fn ensure_scratch<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, count: usize) {
    let (n, b) = (lay.n, lay.b);
    let cols = b.min(n) + if n > b { n % b } else { 0 };
    while lay.scratch.len() < count {
        let id = alloc_dev(ctx, checksum::CHECKSUM_COUNT, cols, b).expect("nonzero block size");
        lay.scratch.push(id);
    }
}

/// The tile of scratch slot `idx` that fresh checksums of tile column `bj`
/// are recalculated into: the one as wide as that column.
fn scratch_tile(lay: &CholLayout, idx: usize, bj: usize) -> TileRef {
    let edge = lay.n > lay.b && (bj + 1) * lay.b > lay.n;
    TileRef::new(lay.scratch[idx], 0, usize::from(edge))
}

/// Allocate the fused-epilogue deposit buffers (one `2 × n` row per block
/// row, like the maintained checksums) on first use.
fn ensure_dpt<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    if !lay.dpt.is_empty() {
        return;
    }
    lay.dpt = (0..lay.nt)
        .map(|_| alloc_dev(ctx, checksum::CHECKSUM_COUNT, lay.n, lay.b))
        .collect::<Result<Vec<_>, _>>()
        .expect("nonzero block size");
}

// ---------------------------------------------------------------------------
// Fault hooks
// ---------------------------------------------------------------------------

/// Fire any faults planned for `point` (data corruption in Execute mode,
/// ledger-only in TimingOnly).
pub fn poll_faults<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    inj: &mut Injector,
    point: InjectionPoint,
) {
    let before = inj.applied().len();
    if ctx.mode.executes() {
        inj.poll(point, ctx.dev_mem.buf_mut(lay.mat));
    } else {
        inj.poll_timing(point);
    }
    let after = inj.applied().len();
    if after > before {
        // The event detail carries only the fault *spec* (site, species,
        // trigger), never the corrupted values — specs are identical across
        // Execute and TimingOnly, so reports stay mode-invariant.
        let t = ctx.now().as_secs();
        ctx.obs
            .metrics
            .add_count("faults.injected", (after - before) as u64);
        for k in before..after {
            let detail = format!("{:?}", inj.applied()[k].spec);
            ctx.obs.event(t, "fault.injected", detail);
        }
    }
}

// ---------------------------------------------------------------------------
// The four MAGMA operations (Algorithm 1)
// ---------------------------------------------------------------------------

/// The matrix buffer plus the deposit tile `(0, j)` of each of `deposits`
/// (a fused launch's per-row checksum deposit buffers; none unfused).
fn mat_and_deposits<'m, S: Scalar>(
    mem: &'m mut DeviceMemory<S>,
    mat: BufferId,
    deposits: &[BufferId],
    j: usize,
) -> (&'m mut TileMatrix<S>, Vec<&'m mut Matrix<S>>) {
    let ids: Vec<BufferId> = std::iter::once(mat)
        .chain(deposits.iter().copied())
        .collect();
    let mut bufs = mem.bufs_mut(&ids).into_iter();
    let m = bufs.next().expect("the matrix buffer");
    (m, bufs.map(|d| d.tile_mut(0, j)).collect())
}

/// Tiles `rows` (ascending, as every plan lists panel rows) of one block
/// column whose tile `first` is `col[0]`, mutably.
fn pick_rows<'c, S: Scalar>(
    col: &'c mut [Matrix<S>],
    first: usize,
    rows: &[usize],
) -> Vec<&'c mut Matrix<S>> {
    let mut tiles = col.iter_mut().zip(first..);
    rows.iter()
        .map(|&i| tiles.find(|t| t.1 == i).expect("ascending panel rows").0)
        .collect()
}

/// Trace label of panel kernel `name` (`"GEMM"`, or `"GEMM+CHK"` with a
/// fused epilogue) at iteration `j`: `"GEMM j=3"`, or `"GEMM j=3 d=1"` for
/// device 1's rows of a sharded panel.
fn panel_label(name: &'static str, j: usize, dev: Option<usize>) -> Label {
    match dev {
        Some(d) => Label::IterAnd(name, j, 'd', d),
        None => Label::Iter(name, j),
    }
}

/// Tiles the SYRK of diagonal tile `j` over the update chain `cols` reads
/// and writes, in the plan's canonical form — the one definition behind
/// [`FactorPlan::node_access`](crate::plan::FactorPlan::node_access). The
/// executor hands that footprint to the [`syrk_diag`] launch, which binds
/// it to real buffers ([`CholLayout::bind`]). Empty for an empty chain
/// (Algorithm 1's `j = 0`), where the SYRK is a no-op.
pub fn syrk_access(nt: usize, j: usize, cols: Range<usize>, fused: bool) -> AccessSet {
    if cols.is_empty() {
        return AccessSet::none();
    }
    let reads = cols
        .map(|k| mat_tile(j, k))
        .chain([mat_tile(j, j)])
        .collect();
    let mut writes = vec![mat_tile(j, j)];
    if fused {
        writes.push(dpt_tile(nt, j, j));
    }
    AccessSet::new(reads, writes)
}

/// SYRK: `A[j,j] -= Σ_{k ∈ cols} A[j,k] · A[j,k]ᵀ` on the compute stream —
/// `cols` is `0..j` in Algorithm 1 and the one column `s..s+1` of step `s`'s
/// trailing update in the right-looking form.
///
/// The full symmetric tile is updated (not just a triangle) so that its
/// column checksums remain exact.
///
/// With `fused`, the same kernel also deposits fresh column checksums of
/// the updated diagonal tile into `lay.dpt[j]`, charged as extra epilogue
/// flops on the *same* launch (no second kernel startup). A fused
/// `VerifyBatch` then compares the deposit against the maintained
/// checksums without any recalculation kernel. The launch declares
/// `access`, the node's footprint ([`syrk_access`]); an empty one is a no-op.
pub fn syrk_diag<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    j: usize,
    cols: Range<usize>,
    fused: bool,
    access: AccessSet,
) {
    if access.is_empty() {
        return;
    }
    if fused {
        ensure_dpt(ctx, lay);
    }
    let f = lay.charge(flops::gemm(lay.b, lay.b, cols.len() * lay.b));
    let epi = if fused {
        lay.charge(flops::fused_epilogue(lay.b, lay.b))
    } else {
        0
    };
    let mat = lay.mat;
    let deposits: Vec<BufferId> = fused.then(|| lay.dpt[j]).into_iter().collect();
    ctx.launch(
        lay.streams.comp,
        KernelDesc::new(
            panel_label(if fused { "SYRK+CHK" } else { "SYRK" }, j, None),
            KernelClass::Syrk,
            f,
            WorkCategory::Factorization,
        )
        .with_access(lay.bind(access))
        .with_epilogue(epi),
        move |mem| {
            let (m, mut deposits) = mat_and_deposits(mem, mat, &deposits, j);
            let (done, col) = m.split_col_mut(j);
            let chain: Vec<_> = cols.map(|k| (done.tile(j, k), done.tile(j, k))).collect();
            par::rank_update_batch(vec![RankUpdate {
                c: &mut col[j],
                chain: &chain,
                deposit: deposits.pop(),
            }]);
        },
    );
}

/// Tiles the panel GEMM of column `j` over the update chain `cols` and
/// panel rows `rows` reads and writes, in canonical form (see
/// [`syrk_access`]). Empty when the GEMM is a no-op (an empty chain or no
/// rows).
pub fn gemm_panel_access(
    nt: usize,
    j: usize,
    cols: Range<usize>,
    rows: &[usize],
    fused: bool,
) -> AccessSet {
    if cols.is_empty() || rows.is_empty() {
        return AccessSet::none();
    }
    let mut reads = Vec::with_capacity(rows.len() * (cols.len() + 1) + cols.len());
    let mut writes = Vec::with_capacity(rows.len() * (1 + fused as usize));
    for &i in rows {
        writes.push(mat_tile(i, j));
        if fused {
            writes.push(dpt_tile(nt, i, j));
        }
        reads.push(mat_tile(i, j));
        reads.extend(cols.clone().map(|k| mat_tile(i, k)));
    }
    reads.extend(cols.map(|k| mat_tile(j, k)));
    AccessSet::new(reads, writes)
}

/// GEMM: `A[rows, j] -= Σ_{k ∈ cols} A[rows, k] · A[j, k]ᵀ` on the compute
/// stream, one kernel over the panel rows `rows` (`cols` as for
/// [`syrk_diag`]).
///
/// `rows` is every row below the diagonal (`dev = None`: one big kernel,
/// as MAGMA issues it) or the rows homed on device `dev` of a sharded
/// plan. Per-tile numerics do not depend on the row set, so the union of
/// every device's slice reproduces the single-device panel bit-for-bit.
/// For a slice the caller (the plan executor) steers `lay.streams.comp` to the
/// executing device's compute stream and orders the launch behind the
/// row-panel broadcast receive when the device is not the panel owner.
///
/// With `fused`, the kernel deposits fresh column checksums of every
/// updated tile `(i, j)` into `lay.dpt[i]` from the same launch, charged
/// as epilogue flops with no extra kernel startup. `access` as for
/// [`syrk_diag`] ([`gemm_panel_access`]).
#[allow(clippy::too_many_arguments)] // a panel node's fields and its footprint are the signature
pub fn gemm_panel<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    j: usize,
    cols: Range<usize>,
    rows: &[usize],
    dev: Option<usize>,
    fused: bool,
    access: AccessSet,
) {
    if access.is_empty() {
        return;
    }
    if fused {
        ensure_dpt(ctx, lay);
    }
    let f = lay.charge(flops::gemm(rows.len() * lay.b, lay.b, cols.len() * lay.b));
    let epi = if fused {
        lay.charge(rows.len() as u64 * flops::fused_epilogue(lay.b, lay.b))
    } else {
        0
    };
    let mat = lay.mat;
    let rows = rows.to_vec();
    let deposits: Vec<BufferId> = rows.iter().filter(|_| fused).map(|&i| lay.dpt[i]).collect();
    ctx.launch(
        lay.streams.comp,
        KernelDesc::new(
            panel_label(if fused { "GEMM+CHK" } else { "GEMM" }, j, dev),
            KernelClass::Blas3,
            f,
            WorkCategory::Factorization,
        )
        .with_access(lay.bind(access))
        .with_epilogue(epi),
        move |mem| {
            let (m, deposits) = mat_and_deposits(mem, mat, &deposits, j);
            let (done, col) = m.split_col_mut(j);
            // Every row's k-chain, back to back: one allocation per launch.
            let chains: Vec<_> = rows
                .iter()
                .flat_map(|&i| {
                    cols.clone()
                        .map(move |k| (done.tile(i, k), done.tile(j, k)))
                })
                .collect();
            let mut deposits = deposits.into_iter();
            let batch = pick_rows(col, 0, &rows)
                .into_iter()
                .zip(chains.chunks(cols.len()))
                .map(|(c, chain)| RankUpdate {
                    c,
                    chain,
                    deposit: deposits.next(),
                })
                .collect();
            par::rank_update_batch(batch);
        },
    );
}

/// Transfer the diagonal block to the host (async, on the transfer
/// stream), then flush any pending panel mirror behind it.
pub fn diag_to_host<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, j: usize) {
    let bytes = S::BYTES * (lay.b * lay.b) as u64;
    let (mat, host_diag) = (lay.mat, lay.host_diag);
    ctx.bulk_transfer_with_access(
        bytes,
        lay.streams.tran,
        false,
        AccessSet::new(vec![TileRef::new(mat, j, j)], vec![]),
        move |dev, host| {
            *host.buf_mut(host_diag) = dev.tile(mat, j, j).clone();
        },
    );
    flush_mirror(ctx, lay);
}

/// POTF2 on the host staging block (synchronous CPU work, overlapping
/// whatever the GPU is doing). Fails if the block lost positive
/// definiteness — exactly what an uncorrected error can cause.
pub fn host_potf2<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
) -> Result<(), MatrixError> {
    let f = lay.charge(flops::potf2(lay.b));
    let host_diag = lay.host_diag;
    let pivot_offset = j * lay.b;
    let mut failure: Option<MatrixError> = None;
    {
        let failure = &mut failure;
        ctx.cpu_exec(
            KernelDesc::new(
                Label::Iter("POTF2", j),
                KernelClass::Potf2,
                f,
                WorkCategory::Factorization,
            ),
            move |host| {
                let blk = host.buf_mut(host_diag);
                match potf2(blk, pivot_offset) {
                    Ok(()) => force_lower(blk),
                    Err(e) => *failure = Some(e),
                }
            },
        );
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Transfer the factorized diagonal block back to the device, declaring
/// `access`, the node's footprint (the write of `(j, j)`).
pub fn diag_to_device<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
    access: AccessSet,
) {
    let bytes = S::BYTES * (lay.b * lay.b) as u64;
    let (mat, host_diag) = (lay.mat, lay.host_diag);
    ctx.bulk_transfer_with_access(
        bytes,
        lay.streams.tran,
        true,
        lay.bind(access),
        move |dev, host| {
            *dev.tile_mut(mat, j, j) = host.buf(host_diag).clone();
        },
    );
}

/// Tiles the panel TRSM of iteration `j` over panel rows `rows` reads and
/// writes, in canonical form (see [`syrk_access`]). Empty without rows.
pub fn trsm_panel_access(j: usize, rows: &[usize]) -> AccessSet {
    if rows.is_empty() {
        return AccessSet::none();
    }
    let panel: Vec<TileRef> = rows.iter().map(|&i| mat_tile(i, j)).collect();
    let reads = [mat_tile(j, j)]
        .into_iter()
        .chain(panel.iter().copied())
        .collect();
    AccessSet::new(reads, panel)
}

/// TRSM: `A[rows, j] := A[rows, j] · (L[j,j]ᵀ)⁻¹` on the compute stream.
/// `rows`/`dev` select the whole panel or one device's slice of it, and
/// `access` is the node's footprint ([`trsm_panel_access`]), as for
/// [`gemm_panel`].
pub fn trsm_panel<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    j: usize,
    rows: &[usize],
    dev: Option<usize>,
    access: AccessSet,
) {
    if access.is_empty() {
        return;
    }
    let f = lay.charge(flops::trsm(lay.b, rows.len() * lay.b));
    let mat = lay.mat;
    let rows = rows.to_vec();
    ctx.launch(
        lay.streams.comp,
        KernelDesc::new(
            panel_label("TRSM", j, dev),
            KernelClass::Trsm,
            f,
            WorkCategory::Factorization,
        )
        .with_access(lay.bind(access)),
        move |mem| {
            let (_, col) = mem.buf_mut(mat).split_col_mut(j);
            let (diag, below) = col.split_at_mut(j + 1);
            let ljj = &diag[j];
            par::for_each(pick_rows(below, j + 1, &rows), |tij| {
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Yes,
                    Diag::NonUnit,
                    1.0,
                    ljj,
                    tij,
                )
            });
        },
    );
}

// ---------------------------------------------------------------------------
// Shard parity (device-loss protection)
// ---------------------------------------------------------------------------

/// XOR two equally-shaped tiles' IEEE-754 bit patterns into `acc`.
fn xor_tile_into<S: Scalar>(acc: &mut Matrix<S>, src: &Matrix<S>, rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            let x = acc.get(r, c).to_bits_u64() ^ src.get(r, c).to_bits_u64();
            acc.set(r, c, S::from_bits_u64(x));
        }
    }
}

/// Refresh one XOR-parity group of column `j`: parity tile `g` of the
/// column's parity buffers becomes the bitwise XOR of the member tiles
/// `(i, j)` (matrix and checksum) for `i ∈ rows`. Launched on `stream` —
/// the parity home device's checksum stream; the caller orders the launch
/// behind the member devices' link transfers. Bitwise XOR is exact, so a
/// later reconstruction restores the member bit-for-bit.
#[allow(clippy::too_many_arguments)] // parity-group coordinates are the signature
pub fn shard_parity_xor<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    par_mat: BufferId,
    par_chk: BufferId,
    stream: StreamId,
    j: usize,
    g: usize,
    rows: &[usize],
) {
    if rows.is_empty() {
        return;
    }
    // One pass over every member element, mat + chk.
    let f = lay.charge(rows.len() as u64 * ((lay.b * lay.b) as u64 + 2 * lay.b as u64));
    let (mat, b) = (lay.mat, lay.b);
    let cks: Vec<BufferId> = rows.iter().map(|&i| lay.cks[i]).collect();
    let mut reads = Vec::new();
    for &i in rows {
        reads.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(lay.cks[i], 0, j));
    }
    let writes = vec![TileRef::new(par_mat, g, 0), TileRef::new(par_chk, 0, g)];
    let rows = rows.to_vec();
    ctx.launch(
        stream,
        KernelDesc::new(
            Label::IterAnd("PAR", j, 'g', g),
            KernelClass::Light,
            f,
            WorkCategory::ChecksumUpdate,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            // Zero, then fold each member in. Ragged edge tiles XOR into
            // the top-left region of the full-size parity tile.
            for (which, pg) in [(par_mat, (g, 0)), (par_chk, (0, g))] {
                let p = mem.buf_mut(which).tile_mut(pg.0, pg.1);
                let (pr, pc) = p.shape();
                for r in 0..pr {
                    for c in 0..pc {
                        p.set(r, c, S::ZERO);
                    }
                }
            }
            for (idx, &i) in rows.iter().enumerate() {
                {
                    let (p, m) = mem.buf_pair_mut(par_mat, mat);
                    let t = m.tile(i, j);
                    let (tr, tc) = t.shape();
                    xor_tile_into(p.tile_mut(g, 0), t, tr.min(b), tc.min(b));
                }
                {
                    let (p, ck) = mem.buf_pair_mut(par_chk, cks[idx]);
                    let t = ck.tile(0, j);
                    let (tr, tc) = t.shape();
                    xor_tile_into(p.tile_mut(0, g), t, tr, tc.min(b));
                }
            }
        },
    );
}

/// Reconstruct the lost member `lost_row` of one parity group of column
/// `j` from the parity tile and the surviving members (bitwise-exact
/// XOR). Launched on `stream` — a surviving device's checksum stream;
/// the caller orders it behind the link transfers that gathered the
/// survivors and counts the reconstructed tiles.
#[allow(clippy::too_many_arguments)] // parity-group coordinates are the signature
pub fn shard_reconstruct<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    par_mat: BufferId,
    par_chk: BufferId,
    stream: StreamId,
    j: usize,
    g: usize,
    lost_row: usize,
    survivors: &[usize],
) {
    let f = lay.charge((1 + survivors.len() as u64) * ((lay.b * lay.b) as u64 + 2 * lay.b as u64));
    let (mat, b) = (lay.mat, lay.b);
    let lost_cks = lay.cks[lost_row];
    let cks: Vec<BufferId> = survivors.iter().map(|&i| lay.cks[i]).collect();
    let mut reads = vec![TileRef::new(par_mat, g, 0), TileRef::new(par_chk, 0, g)];
    for &i in survivors {
        reads.push(TileRef::new(mat, i, j));
        reads.push(TileRef::new(lay.cks[i], 0, j));
    }
    let writes = vec![TileRef::new(mat, lost_row, j), TileRef::new(lost_cks, 0, j)];
    let survivors = survivors.to_vec();
    ctx.launch(
        stream,
        KernelDesc::new(
            Label::Tile("REBUILD", lost_row, j),
            KernelClass::Light,
            f,
            WorkCategory::ChecksumUpdate,
        )
        .with_access(AccessSet::new(reads, writes)),
        move |mem| {
            // lost = parity ⊕ (⊕ survivors), element-wise on the bits.
            {
                let (m, p) = mem.buf_pair_mut(mat, par_mat);
                let t = m.tile_mut(lost_row, j);
                let (tr, tc) = t.shape();
                let (tr, tc) = (tr.min(b), tc.min(b));
                let par = p.tile(g, 0);
                for r in 0..tr {
                    for c in 0..tc {
                        t.set(r, c, par.get(r, c));
                    }
                }
                for &i in &survivors {
                    let (lost, src) = m.tile_pair((lost_row, j), (i, j));
                    let (sr, sc) = src.shape();
                    xor_tile_into(lost, src, sr.min(tr), sc.min(tc));
                }
            }
            {
                let (ck, p) = mem.buf_pair_mut(lost_cks, par_chk);
                let t = ck.tile_mut(0, j);
                let (tr, tc) = t.shape();
                let tc = tc.min(b);
                let par = p.tile(0, g);
                for r in 0..tr {
                    for c in 0..tc {
                        t.set(r, c, par.get(r, c));
                    }
                }
            }
            for &ck in &cks {
                let (lost, src) = mem.buf_pair_mut(lost_cks, ck);
                let t = src.tile(0, j);
                let (tr, tc) = t.shape();
                xor_tile_into(lost.tile_mut(0, j), t, tr, tc.min(b));
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Checksum operations
// ---------------------------------------------------------------------------

fn recalc_stream(lay: &CholLayout, opts: &AbftOptions, idx: usize) -> StreamId {
    if opts.concurrent_recalc {
        lay.streams.recalc[idx % lay.streams.recalc.len()]
    } else {
        lay.streams.comp
    }
}

/// Largest finite `|x|` in a tile (for the column magnitude statistic);
/// non-finite entries are skipped — an overflowed value must widen the
/// verifier's *delta*, never its threshold.
///
/// A maximum does not depend on the order it is taken in, so the scan keeps
/// `PEAK_LANES` independent running peaks (which vectorises; one serial
/// compare-and-select chain does not) and folds them at the end.
fn tile_max_abs<S: Scalar>(t: &Matrix<S>) -> f64 {
    const PEAK_LANES: usize = 16;
    let keep = |peak: S, x: S| {
        let v = x.abs();
        if v.is_finite() && v > peak {
            v
        } else {
            peak
        }
    };
    let mut lanes = [S::ZERO; PEAK_LANES];
    let chunks = t.as_slice().chunks_exact(PEAK_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (peak, &x) in lanes.iter_mut().zip(chunk) {
            *peak = keep(*peak, x);
        }
    }
    lanes
        .iter()
        .chain(tail)
        .copied()
        .fold(S::ZERO, keep)
        .to_f64()
}

/// Fold the current magnitudes of `tiles` into the layout's per-column
/// statistics (monotone max — the threshold must cover the largest value
/// that ever flowed through the column's accumulation paths). Their one
/// reader is the adaptive tolerance, so a fixed-tolerance run skips the scan.
fn refresh_col_stats<S: Scalar>(
    ctx: &SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    opts: &AbftOptions,
) {
    if !ctx.mode.executes() || opts.tolerance == ToleranceModel::Fixed {
        return;
    }
    let m = ctx.dev_mem.buf(lay.mat);
    for &(bi, bj) in tiles {
        fold_col_stat(&mut lay.col_stats, m, bi, bj);
    }
}

/// Fold tile `(bi, bj)`'s current magnitude into its column's statistic.
fn fold_col_stat<S: Scalar>(col_stats: &mut [f64], m: &TileMatrix<S>, bi: usize, bj: usize) {
    let peak = tile_max_abs(m.tile(bi, bj));
    if peak > col_stats[bj] {
        col_stats[bj] = peak;
    }
}

/// Encode the two column checksums of every lower-triangle tile (done once,
/// before the factorization). With CPU placement the freshly encoded
/// checksums are also shipped to the host (the paper's "initial checksums
/// transfer, 2n²/B"). Also captures the initial per-column magnitude
/// statistics ([`CholLayout::col_stats`]) the adaptive tolerance reads.
pub fn encode_all<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout, opts: &AbftOptions) {
    let all = lower_tiles(lay.nt);
    let (f, mat) = (lay.charge(flops::encode_block(lay.b, lay.b)), lay.mat);
    let kernels = all.iter().enumerate().map(|(idx, &(bi, bj))| {
        let desc = KernelDesc::new(
            Label::Tile("ENC", bi, bj),
            KernelClass::Blas2,
            f,
            WorkCategory::ChecksumEncode,
        );
        let (read, write) = (TileRef::new(mat, bi, bj), TileRef::new(lay.cks[bi], 0, bj));
        (
            recalc_stream(lay, opts, idx),
            desc.with_read_write(read, write),
        )
    });
    ctx.launch_batch(kernels, |mem| {
        for &(bi, bj) in &all {
            let (cks, m) = mem.buf_pair_mut(lay.cks[bi], mat);
            checksum::encode_into(m.tile(bi, bj), cks.tile_mut(0, bj));
        }
    });
    ctx.sync_device();
    refresh_col_stats(ctx, lay, &all, opts);
    if lay.placement == ChecksumPlacement::Cpu {
        let bytes = S::BYTES * 2 * (lay.n as u64) * (lay.nt as u64);
        // The shipment reads every freshly encoded checksum tile.
        let reads = lower_chk_tiles(lay);
        ctx.bulk_transfer_with_access(
            bytes,
            lay.streams.tran,
            false,
            AccessSet::new(reads, vec![]),
            |_, _| {},
        );
        ctx.sync_stream(lay.streams.tran);
    }
}

/// Dispatch one checksum-update task to the configured engine: a slim GPU
/// kernel on the dedicated checksum stream, or a CPU worker-lane task.
///
/// GPU-placed updates read factorized matrix tiles produced on the compute
/// stream, so the checksum stream first waits on [`StreamSet::panel_ready`]
/// (the event recorded after the last panel TRSM). CPU-placed updates
/// conceptually read the host mirrors shipped by [`cpu_mirror_panel`]; they
/// declare no device accesses.
fn dispatch_update<S: Scalar, F>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    label: Label,
    f: u64,
    access: AccessSet,
    body: F,
) where
    F: FnOnce(&mut DeviceMemory<S>),
{
    let desc = KernelDesc::new(label, KernelClass::Blas2, f, WorkCategory::ChecksumUpdate);
    match lay.placement {
        ChecksumPlacement::Cpu => ctx.cpu_submit(desc, move |dev, _host| body(dev)),
        ChecksumPlacement::Inline => ctx.launch(lay.streams.comp, desc.with_access(access), body),
        _ => {
            if let Some(e) = lay.streams.panel_ready {
                ctx.stream_wait_event(lay.streams.chk, e);
            }
            ctx.launch(lay.streams.chk, desc.with_access(access), body);
        }
    }
}

/// Record completion of the current block column on the compute stream;
/// subsequent checksum-update kernels order themselves behind it. Schemes
/// call this right after enqueuing each panel TRSM.
pub fn mark_panel_ready<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    lay.streams.panel_ready = Some(ctx.record_event(lay.streams.comp));
}

/// Tiles the checksum update mirroring `op` at iteration `j` reads and
/// writes, in canonical form (see [`syrk_access`]). `row` is the block row
/// whose checksum it maintains: `j` for the SYRK/POTF2 mirrors, the panel
/// row `i` for GEMM/TRSM. Empty for the product updates at `j = 0`.
pub fn chk_update_access(op: UpdateOp, j: usize, row: usize) -> AccessSet {
    let target = chk_tile(row, j);
    let reads = match op {
        UpdateOp::Syrk | UpdateOp::Gemm if j == 0 => return AccessSet::none(),
        UpdateOp::Syrk | UpdateOp::Gemm => (0..j)
            .flat_map(|k| [mat_tile(j, k), chk_tile(row, k)])
            .chain([target])
            .collect(),
        UpdateOp::Potf2 | UpdateOp::Trsm => vec![mat_tile(j, j), target],
    };
    AccessSet::new(reads, vec![target])
}

/// The checksum update mirroring `op` at iteration `j` for block row `i`
/// (`i = j` for the SYRK and POTF2 mirrors):
///
/// * SYRK / GEMM — `chk(A[i,j]) -= Σ_k chk(L[i,k]) · L[j,k]ᵀ`;
/// * POTF2 — Algorithm 2 of the paper;
/// * TRSM — `chk(L[i,j]) = chk(A[i,j]) · (L[j,j]ᵀ)⁻¹`.
///
/// `access` as for [`syrk_diag`] ([`chk_update_access`]).
pub fn update_chk<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &CholLayout,
    op: UpdateOp,
    j: usize,
    i: usize,
    access: AccessSet,
) {
    if access.is_empty() {
        return;
    }
    let (f, label) = match op {
        UpdateOp::Syrk => (
            j as u64 * chkops::update_product_flops(lay.b),
            Label::Iter("UPD-SYRK", j),
        ),
        UpdateOp::Gemm => (
            j as u64 * chkops::update_product_flops(lay.b),
            Label::Tile("UPD-GEMM", i, j),
        ),
        UpdateOp::Potf2 => (
            chkops::update_solve_flops(lay.b),
            Label::Iter("UPD-POTF2", j),
        ),
        UpdateOp::Trsm => (
            chkops::update_solve_flops(lay.b),
            Label::Tile("UPD-TRSM", i, j),
        ),
    };
    // The factorized block returns on the transfer stream; its update (on
    // the checksum stream) must not start before it lands.
    if op == UpdateOp::Potf2 && !matches!(lay.placement, ChecksumPlacement::Cpu) {
        let diag_back = ctx.record_event(lay.streams.tran);
        let target = if lay.placement == ChecksumPlacement::Inline {
            lay.streams.comp
        } else {
            lay.streams.chk
        };
        ctx.stream_wait_event(target, diag_back);
    }
    let (mat, cks_i) = (lay.mat, lay.cks[i]);
    let (f, access) = (lay.charge(f), lay.bind(access));
    dispatch_update(ctx, lay, label, f, access, move |mem| {
        let (cks, m) = mem.buf_pair_mut(cks_i, mat);
        match op {
            UpdateOp::Syrk | UpdateOp::Gemm => {
                for k in 0..j {
                    let (cij, cik) = cks.tile_pair((0, j), (0, k));
                    chkops::update_product(cij, cik, m.tile(j, k));
                }
            }
            UpdateOp::Potf2 => chkops::update_potf2(cks.tile_mut(0, j), m.tile(j, j)),
            UpdateOp::Trsm => chkops::update_trsm(cks.tile_mut(0, j), m.tile(j, j)),
        }
    });
}

/// With CPU placement, ship the freshly factorized panel column `j` to the
/// host once — CPU-side updates reference factorized data (the paper's
/// "checksum updating related transfer", totaling n²/2 elements).
pub fn cpu_mirror_panel(lay: &mut CholLayout, j: usize) {
    if lay.placement != ChecksumPlacement::Cpu {
        return;
    }
    lay.pending_mirror = Some(j);
}

/// Issue a queued panel mirror (ordered behind the producing TRSM via
/// [`StreamSet::panel_ready`]). Called from [`diag_to_host`] — after the
/// latency-critical diagonal transfer — and at attempt end.
pub fn flush_mirror<S: Scalar>(ctx: &mut SimContext<S>, lay: &mut CholLayout) {
    let Some(j) = lay.pending_mirror.take() else {
        return;
    };
    let tiles = (lay.nt - j) as u64;
    let bytes = S::BYTES * tiles * (lay.b * lay.b) as u64;
    if let Some(e) = lay.streams.panel_ready {
        ctx.stream_wait_event(lay.streams.tran, e);
    }
    let mat = lay.mat;
    let access = AccessSet::new(
        (j..lay.nt).map(|i| TileRef::new(mat, i, j)).collect(),
        vec![],
    );
    ctx.bulk_transfer_with_access(bytes, lay.streams.tran, false, access, |_, _| {});
}

/// Mid-run checksum migration for a placement switch decided by the
/// runtime balancer ([`crate::plan::balance::BalanceController`]): ship
/// the checksum state — and, toward the CPU, the already-factorized panel
/// columns the host-side updates read — across PCIe, then flip the
/// layout's placement so every subsequent dispatch (`dispatch_update`,
/// panel mirroring, verification syncs) routes to the new side. `next_j`
/// is the first not-yet-executed iteration. The caller synchronizes the
/// context first: the migration is a rebalance barrier, not an overlapped
/// transfer.
pub fn migrate_checksums<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    to: ChecksumPlacement,
    next_j: usize,
) {
    if lay.placement == to {
        return;
    }
    let chk_bytes = S::BYTES * 2 * (lay.n as u64) * (lay.nt as u64);
    let chk_tiles = lower_chk_tiles(lay);
    match to {
        ChecksumPlacement::Cpu => {
            // Host-side updating reads the factorized panels; columns that
            // already left the panel stage have no pending mirror, so they
            // travel with the checksum rows in one bulk shipment.
            let done = next_j.min(lay.nt);
            let done_tiles: u64 = (0..done).map(|k| (lay.nt - k) as u64).sum();
            let bytes = chk_bytes + S::BYTES * done_tiles * (lay.b * lay.b) as u64;
            let mat = lay.mat;
            let mut reads = chk_tiles;
            reads.extend((0..done).flat_map(|k| (k..lay.nt).map(move |i| TileRef::new(mat, i, k))));
            ctx.bulk_transfer_with_access(
                bytes,
                lay.streams.tran,
                false,
                AccessSet::new(reads, vec![]),
                |_, _| {},
            );
        }
        ChecksumPlacement::Gpu => {
            // Host checksums return to the device; any queued panel mirror
            // is moot once updating runs GPU-side again.
            lay.pending_mirror = None;
            ctx.bulk_transfer_with_access(
                chk_bytes,
                lay.streams.tran,
                true,
                AccessSet::new(vec![], chk_tiles),
                |_, _| {},
            );
        }
        // The balancer never targets Inline/Auto.
        _ => unreachable!("migration targets a concrete CPU/GPU placement"),
    }
    ctx.sync_stream(lay.streams.tran);
    lay.placement = to;
}

/// Stage 1 of [`verify_batch`]: recalculate fresh checksums of `tiles`
/// into the scratch buffers.
///
/// Waits for outstanding checksum *updates* to land (they race the compare
/// otherwise), then spreads recalculation kernels across the recalc streams
/// (Optimization 1) or serializes them on the compute stream.
fn verify_recalc<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    opts: &AbftOptions,
) {
    if tiles.is_empty() {
        return;
    }
    // Updates to these checksums must have landed before we compare.
    if lay.placement == ChecksumPlacement::Cpu {
        ctx.sync_cpu_workers();
    } else {
        ctx.sync_stream(lay.streams.chk);
    }

    ensure_scratch(ctx, lay, tiles.len());
    // Recalculation reads data produced on the compute stream (and, for the
    // diagonal block, returned on the transfer stream): order after both.
    let data_ready_comp = ctx.record_event(lay.streams.comp);
    let data_ready_tran = ctx.record_event(lay.streams.tran);
    if opts.concurrent_recalc {
        // The launch loop below round-robins kernels as `idx % streams`, so
        // exactly the first `min(tiles, streams)` streams are used; iterate
        // that used prefix explicitly so the wait set can never diverge
        // from the launch set.
        for &st in lay.streams.recalc.iter().take(tiles.len()) {
            ctx.stream_wait_event(st, data_ready_comp);
            ctx.stream_wait_event(st, data_ready_tran);
        }
    } else {
        ctx.stream_wait_event(lay.streams.comp, data_ready_tran);
    }
    let (f, mat) = (lay.charge(flops::recalc_block(lay.b, lay.b)), lay.mat);
    let scan = opts.tolerance != ToleranceModel::Fixed;
    // The body folds magnitudes into the column statistics while the
    // kernels read the rest of the layout: it holds them until the batch
    // is issued.
    let mut col_stats = std::mem::take(&mut lay.col_stats);
    let view = &*lay;
    let kernels = tiles.iter().enumerate().map(|(idx, &(bi, bj))| {
        let desc = KernelDesc::new(
            Label::Tile("REC", bi, bj),
            KernelClass::Blas2,
            f,
            WorkCategory::ChecksumRecalc,
        );
        let (read, write) = (TileRef::new(mat, bi, bj), scratch_tile(view, idx, bj));
        (
            recalc_stream(view, opts, idx),
            desc.with_read_write(read, write),
        )
    });
    ctx.launch_batch(kernels, |mem| {
        for (idx, &(bi, bj)) in tiles.iter().enumerate() {
            // The magnitude scan runs right before the tile's own
            // recalculation (a max is order-free), so a batch larger than
            // the cache is read from memory once, not twice. Like every
            // statistic, only under an adaptive tolerance.
            if scan {
                fold_col_stat(&mut col_stats, mem.buf(mat), bi, bj);
            }
            let scr = scratch_tile(view, idx, bj);
            let (s, m) = mem.buf_pair_mut(scr.buf, mat);
            checksum::encode_into(m.tile(bi, bj), s.tile_mut(scr.bi, scr.bj));
        }
    });
    lay.col_stats = col_stats;
    if opts.concurrent_recalc {
        // Same used-streams prefix as the wait loop above.
        for &s in lay.streams.recalc.iter().take(tiles.len()) {
            ctx.sync_stream(s);
        }
    } else {
        ctx.sync_stream(lay.streams.comp);
    }
}

/// Stage 2 of [`verify_batch`]: compare fresh checksums against the
/// maintained ones.
///
/// Unfused, the fresh sums are the recalculated ones [`verify_recalc`] left
/// in scratch. With `fused`, the producing SYRK/GEMM kernel deposited them
/// in its epilogue ([`syrk_diag`] / [`gemm_panel`]): no recalculation
/// kernels ran and no scratch is involved, so this stage first does what
/// [`verify_recalc`] would have — refresh the column statistics and wait
/// for outstanding checksum updates — and the CMP reads the maintained
/// checksums and the deposits directly. A fused compare deliberately
/// declares **no matrix-tile reads**: for the conformance analysis it is
/// the producer's `fused_verify` write that marks the tile verified, and
/// the compare must not re-mark it.
fn verify_compare<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    tiles: &[(usize, usize)],
    fused: bool,
    opts: &AbftOptions,
) {
    if tiles.is_empty() {
        return;
    }
    if fused {
        refresh_col_stats(ctx, lay, tiles, opts);
        ensure_dpt(ctx, lay);
        // Updates to the maintained checksums must have landed before we
        // compare against them (same rule as the recalc path).
        if lay.placement == ChecksumPlacement::Cpu {
            ctx.sync_cpu_workers();
        } else {
            ctx.sync_stream(lay.streams.chk);
        }
    }
    // With CPU-resident checksums, comparing means moving checksums across
    // the bus (the paper's "verification related transfer"). The stored
    // sums ride host→device — the direction the panel mirrors don't use —
    // on a dedicated stream, so the latency-critical compare never queues
    // behind a bulky mirror on the d2h engine.
    if lay.placement == ChecksumPlacement::Cpu {
        let bytes = S::BYTES * 2 * (lay.b as u64) * tiles.len() as u64;
        ctx.bulk_transfer_with_access(bytes, lay.streams.verif, true, AccessSet::none(), |_, _| {});
        ctx.sync_stream(lay.streams.verif);
    }

    // Comparison itself (a handful of flops per column — the overhead the
    // paper's Section VI deems ignorable, charged anyway). Reads only: the
    // stored checksums, the fresh sums and (unfused) the data tiles. This
    // is the op whose reads mark tiles *verified* for the conformance
    // analysis, so it must not declare writes (a write would invalidate its
    // own marks).
    let f = lay.charge(flops::verify_compare(lay.b) * tiles.len() as u64);
    let mut cmp_reads = Vec::with_capacity(tiles.len() * 3);
    for (idx, &(bi, bj)) in tiles.iter().enumerate() {
        if !fused {
            cmp_reads.push(TileRef::new(lay.mat, bi, bj));
        }
        cmp_reads.push(TileRef::new(lay.cks[bi], 0, bj));
        cmp_reads.push(if fused {
            TileRef::new(lay.dpt[bi], 0, bj)
        } else {
            scratch_tile(lay, idx, bj)
        });
    }
    let name = if fused { "CMP-F" } else { "CMP" };
    ctx.launch(
        lay.streams.comp,
        KernelDesc::new(
            Label::Count(name, tiles.len()),
            KernelClass::Light,
            f,
            WorkCategory::Verify,
        )
        .with_access(AccessSet::new(cmp_reads, vec![])),
        |_| {},
    );
    ctx.sync_stream(lay.streams.comp);
}

/// Resolve the run's tolerance model into per-tile thresholds for grid
/// column `bj` at accumulation depth `depth`. The accumulation-path length
/// is `b · (depth + 1)`: the encode sums `b` elements, and each of the
/// `depth` mirrored update rounds folds another `b`-element product into
/// the checksum row. The magnitude bound is `b · max|x|` (the largest
/// partial sum the path can reach); the threshold floors it at
/// [`crate::tolerance::ADAPTIVE_FLOOR`], so all-zero statistics
/// (TimingOnly, or a zero column) still yield a usable threshold.
fn tile_tolerance<S: Scalar>(
    lay: &CholLayout,
    bj: usize,
    depth: usize,
    opts: &AbftOptions,
) -> TileTolerance {
    match opts.tolerance {
        ToleranceModel::Fixed => TileTolerance::Fixed(VerifyPolicy),
        ToleranceModel::Adaptive => TileTolerance::Adaptive {
            eps: S::EPSILON,
            steps: (lay.b * (depth + 1)) as f64,
            magnitude: lay.b as f64 * lay.col_stats.get(bj).copied().unwrap_or(0.0),
        },
    }
}

/// Stages 3–4 of [`verify_batch`]: locate and correct, per tile, from the
/// comparison results.
///
/// In Execute mode this operates on real data via [`verify_and_correct`]
/// (which locates errors by the paper's `j = δ₂/δ₁` ratio — see
/// [`crate::verify::locate_row`]); in TimingOnly mode the injector's ledger
/// decides outcomes (a directly-hit tile is correctable, a propagated one
/// is not). Records the `verify.*` metrics and `fault.*` events for the
/// batch.
///
/// `depth` is the accumulation depth of the verified tiles — the iteration
/// index the plan recorded on the `VerifyBatch` node (`nt` for a final sweep) —
/// which the adaptive tolerance model turns into an accumulation-path
/// length. Ignored under the fixed model.
///
/// For a `fused` batch the fresh checksums live in the epilogue deposit
/// tile `dpt[bi](0, bj)` rather than in the per-batch scratch tiles.
fn verify_correct<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    depth: usize,
    opts: &AbftOptions,
    fused: bool,
) -> VerifyOutcome {
    let mut out = VerifyOutcome::default();
    if tiles.is_empty() {
        return out;
    }
    let adaptive = opts.tolerance == ToleranceModel::Adaptive;
    let mut threshold_peak = 0.0f64;
    for (idx, &(bi, bj)) in tiles.iter().enumerate() {
        let tol = tile_tolerance::<S>(lay, bj, depth, opts);
        if adaptive {
            threshold_peak = threshold_peak.max(tol.representative());
        }
        if ctx.mode.executes() {
            // Fresh checksums: epilogue deposit for a fused batch, the
            // recalculation scratch tile otherwise.
            let src = if fused {
                TileRef::new(lay.dpt[bi], 0, bj)
            } else {
                scratch_tile(lay, idx, bj)
            };
            let (m, cks, fresh) = ctx.dev_mem.buf_trio_mut(lay.mat, lay.cks[bi], src.buf);
            let o = verify_and_correct(
                m.tile_mut(bi, bj),
                cks.tile_mut(0, bj),
                fresh.tile(src.bi, src.bj),
                &tol,
            );
            if !o.is_clean() && o.fully_recovered() {
                inj.mark_corrected(bi, bj);
            }
            out.merge(o);
        } else {
            match inj.dirtiness(bi, bj) {
                None => {}
                Some(Dirtiness::Direct) => {
                    out.corrected_data += 1;
                    out.tiles_flagged += 1;
                    inj.mark_corrected(bi, bj);
                }
                Some(Dirtiness::Propagated) => {
                    out.uncorrectable_columns += 1;
                    out.tiles_flagged += 1;
                }
            }
        }
    }

    // Observability: batch totals and fault-tolerance events. Only the
    // `VerifyOutcome` totals are recorded — they are mode-invariant (the
    // TimingOnly ledger oracle mirrors the Execute-mode comparison).
    let m = &mut ctx.obs.metrics;
    m.inc("verify.batches");
    m.add_count("verify.tiles", tiles.len() as u64);
    if adaptive {
        // The widest detection threshold this batch ran with. Recorded
        // under the adaptive model only: the value is data-dependent, and
        // fixed-model (golden-pinned) reports must stay byte-identical.
        m.set_gauge("verify.threshold", threshold_peak);
    }
    if fused {
        m.inc("verify.fused.batches");
        m.add_count("verify.fused.tiles", tiles.len() as u64);
    }
    if !out.is_clean() {
        m.add_count("verify.detections", out.tiles_flagged as u64);
        m.add_count("verify.corrected_data", out.corrected_data as u64);
        m.add_count("verify.repaired_checksums", out.repaired_checksums as u64);
        m.add_count(
            "verify.uncorrectable_columns",
            out.uncorrectable_columns as u64,
        );
        let t = ctx.now().as_secs();
        ctx.obs.event(
            t,
            "fault.detected",
            format!("flagged {} of {} tiles", out.tiles_flagged, tiles.len()),
        );
        if out.corrected_data > 0 || out.repaired_checksums > 0 {
            ctx.obs.event(
                t,
                "fault.corrected",
                format!(
                    "data columns: {}, checksum rows: {}",
                    out.corrected_data, out.repaired_checksums
                ),
            );
        }
        if out.uncorrectable_columns > 0 {
            ctx.obs.event(
                t,
                "fault.uncorrectable",
                format!("{} columns beyond correction", out.uncorrectable_columns),
            );
        }
    }
    out
}

/// Recalculate, compare, locate, and correct a batch of tiles — the
/// verification step, on the critical path, and all a `VerifyBatch` plan
/// node runs. A `fused` batch is compare-only: the producing kernels
/// already deposited fresh checksums in their epilogues, so no
/// recalculation kernels are issued and the batch corrects against the
/// deposits.
pub fn verify_batch<S: Scalar>(
    ctx: &mut SimContext<S>,
    lay: &mut CholLayout,
    inj: &mut Injector,
    tiles: &[(usize, usize)],
    fused: bool,
    depth: usize,
    opts: &AbftOptions,
) -> VerifyOutcome {
    if !fused {
        verify_recalc(ctx, lay, tiles, opts);
    }
    verify_compare(ctx, lay, tiles, fused, opts);
    verify_correct(ctx, lay, inj, tiles, depth, opts, fused)
}

/// The maintained checksum tile of every lower-triangle tile.
fn lower_chk_tiles(lay: &CholLayout) -> Vec<TileRef> {
    lower_tiles(lay.nt)
        .into_iter()
        .map(|(bi, bj)| TileRef::new(lay.cks[bi], 0, bj))
        .collect()
}

/// Every tile of the lower triangle (including the diagonal).
pub fn lower_tiles(nt: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::with_capacity(nt * (nt + 1) / 2);
    for bj in 0..nt {
        for bi in bj..nt {
            v.push((bi, bj));
        }
    }
    v
}

// ---------------------------------------------------------------------------
// Ledger propagation
// ---------------------------------------------------------------------------

/// The fault ledger's one propagation rule, read off the declared tiles of
/// a SYRK, GEMM or TRSM node: a written matrix tile `(i, j)` becomes
/// [`Dirtiness::Propagated`] when any *other* matrix tile the node reads in
/// block row `i` or block row `j` is dirty. The tile's own prior value is
/// only updated linearly, so on its own it keeps the state it has. Per
/// kind this reads:
///
/// * SYRK `j`: `(j,j) ← (j,0..j)`;
/// * GEMM `j`: `(i,j) ← (i,0..j)` and `(j,0..j)`;
/// * TRSM `j`: `(i,j) ← (j,j)`.
///
/// Dirty reads are counted once per block row, so the cost is linear in
/// the access set, and a clean ledger returns at once.
pub fn propagate(inj: &mut Injector, tiles: &AccessSet) {
    if !inj.any_dirty() {
        return;
    }
    let mat = |t: &TileRef| (*t == mat_tile(t.bi, t.bj)).then_some((t.bi, t.bj));
    let dirty: HashSet<(usize, usize)> = tiles
        .reads
        .iter()
        .filter_map(mat)
        .filter(|&(bi, bj)| inj.is_dirty(bi, bj))
        .collect();
    let mut per_row: HashMap<usize, usize> = HashMap::new();
    for &(bi, _) in &dirty {
        *per_row.entry(bi).or_default() += 1;
    }
    let in_row = |r| per_row.get(&r).copied().unwrap_or(0);
    for (i, j) in tiles.writes.iter().filter_map(mat) {
        let read = in_row(i) + if j != i { in_row(j) } else { 0 };
        if read > usize::from(dirty.contains(&(i, j))) {
            inj.mark_propagated(i, j);
        }
    }
}

/// POTF2 smears any pre-existing corruption of the diagonal block across
/// the whole factor tile. The node declares no matrix tiles (it factors
/// the host staging copy), so the smear cannot be read off its footprint.
pub fn propagate_potf2(inj: &mut Injector, j: usize) {
    if inj.is_dirty(j, j) {
        inj.mark_propagated(j, j);
    }
}

/// Extract the dense lower-triangular factor from device memory
/// (Execute mode only): one pass over the lower tiles, copying each column
/// from its diagonal down and leaving everything above at zero. Block
/// columns of the factor are disjoint runs of whole columns, one unit of
/// work each on the host team.
pub fn extract_factor<S: Scalar>(ctx: &SimContext<S>, lay: &CholLayout) -> Option<Matrix<S>> {
    if !ctx.mode.executes() {
        return None;
    }
    let tiles = ctx.dev_mem.buf(lay.mat);
    let (n, b, nt) = (lay.n, lay.b, lay.nt);
    let mut l = Matrix::zeros(n, n);
    let block_cols = l.as_mut_slice().chunks_mut((n * b).max(1)).enumerate();
    par::for_each(block_cols.collect(), |(bj, cols)| {
        for bi in bj..nt {
            let tile = tiles.tile(bi, bj);
            let r0 = bi * b;
            for (j, col) in cols.chunks_mut(n).enumerate() {
                let above = if bi == bj { j.min(tile.rows()) } else { 0 };
                col[r0 + above..r0 + tile.rows()].copy_from_slice(&tile.col(j)[above..]);
            }
        }
    });
    Some(l)
}

/// Reload pristine input into device memory after a failed attempt,
/// charging the full-matrix upload the restart costs. In Execute mode the
/// device tiles are refilled in place from `input`, the matrix [`setup`]
/// tiled them from: the same copy, on the team, into the buffers they own.
pub fn reload<S: Scalar>(ctx: &mut SimContext<S>, lay: &CholLayout, input: Option<&Matrix<S>>) {
    let bytes = S::BYTES * (lay.n as u64) * (lay.n as u64);
    let mat = lay.mat;
    // The upload rewrites every tile, which also (correctly) invalidates
    // every verify mark from the failed attempt in the schedule analysis.
    let writes = (0..lay.nt)
        .flat_map(|bi| (0..lay.nt).map(move |bj| TileRef::new(mat, bi, bj)))
        .collect();
    ctx.bulk_transfer_with_access(
        bytes,
        lay.streams.tran,
        true,
        AccessSet::new(vec![], writes),
        |dev, _| {
            let dense = input.expect("Execute mode requires input data");
            dev.buf_mut(mat)
                .refill_by(dense, |fills| par::for_each(fills, TileFill::run))
                .expect("the input has the shape setup tiled");
        },
    );
    ctx.sync_stream(lay.streams.tran);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hchol_gpusim::profile::SystemProfile;
    use hchol_matrix::generate::spd_diag_dominant;

    fn exec_ctx() -> SimContext {
        SimContext::new(SystemProfile::test_profile(), ExecMode::Execute)
    }

    /// The declared footprint of diagonal `j`'s return to the device.
    fn diag_back(j: usize) -> AccessSet {
        AccessSet::new(vec![], vec![mat_tile(j, j)])
    }

    #[test]
    fn setup_allocates_expected_buffers() {
        let mut ctx = exec_ctx();
        let a = spd_diag_dominant(8, 1);
        let lay = setup(&mut ctx, 8, 4, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        assert_eq!(lay.nt, 2);
        assert_eq!(lay.cks.len(), 2);
        // matrix + 2 checksum rows
        assert_eq!(ctx.dev_mem.buffer_count(), 3);
        assert_eq!(ctx.dev_mem.buf(lay.mat).to_dense(), a);
    }

    /// The serial compare-and-select fold the lane-wise scan replaced.
    fn serial_max_abs<S: Scalar>(t: &Matrix<S>) -> f64 {
        t.as_slice()
            .iter()
            .map(|x| x.to_f64().abs())
            .fold(
                0.0,
                |peak, v| if v.is_finite() && v > peak { v } else { peak },
            )
    }

    fn lane_scan_matches_serial_fold<S: Scalar>() {
        let subnormal = S::from_bits_u64(1).to_f64();
        assert!(subnormal > 0.0 && subnormal < S::EPSILON * S::EPSILON);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            subnormal,
            -subnormal,
        ];
        // Shapes whose element counts leave every possible tail length
        // behind the 16-wide lanes, empty and all-special tiles included.
        for (rows, cols) in [
            (0usize, 0usize),
            (1, 1),
            (3, 5),
            (4, 4),
            (7, 9),
            (16, 16),
            (33, 31),
        ] {
            for fill in 0..4u64 {
                let mut t: Matrix<S> =
                    hchol_matrix::generate::uniform(rows, cols, -3.0, 3.0, 40 + fill).cast();
                let len = t.as_slice().len();
                for (k, x) in t.as_mut_slice().iter_mut().enumerate() {
                    // fill 0: ordinary values; 1: a special every third
                    // slot; 2: only specials; 3: specials first and last.
                    let special = match fill {
                        0 => false,
                        1 => k % 3 == 0,
                        2 => true,
                        _ => k == 0 || k + 1 == len,
                    };
                    if special {
                        *x = S::from_f64(specials[(k + fill as usize) % specials.len()]);
                    }
                }
                let (got, want) = (tile_max_abs(&t), serial_max_abs(&t));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} {rows}x{cols} fill {fill}: {got:e} vs {want:e}",
                    S::DTYPE
                );
            }
        }
    }

    #[test]
    fn column_statistic_scan_equals_the_serial_fold() {
        lane_scan_matches_serial_fold::<f64>();
        lane_scan_matches_serial_fold::<f32>();
    }

    #[test]
    fn column_statistics_are_tracked_only_for_the_adaptive_tolerance() {
        let a = spd_diag_dominant(8, 3);
        let peak = |opts: &AbftOptions| {
            let mut ctx = exec_ctx();
            let mut lay = setup(&mut ctx, 8, 4, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
            encode_all(&mut ctx, &mut lay, opts);
            lay.col_stats
        };
        assert_eq!(peak(&AbftOptions::default()), vec![0.0, 0.0]);
        let adaptive = peak(&AbftOptions::default().with_adaptive_tolerance());
        let col_max = |bj: usize| {
            (0..8)
                .flat_map(|i| (4 * bj..4 * bj + 4).map(move |j| (i, j)))
                .filter(|&(i, j)| i / 4 >= j / 4)
                .map(|(i, j)| a.get(i, j).abs())
                .fold(0.0, f64::max)
        };
        assert_eq!(adaptive, vec![col_max(0), col_max(1)]);
    }

    #[test]
    fn extract_factor_is_the_forced_lower_dense_copy() {
        // Ragged edge tiles included: 10 = 2·4 + 2.
        for (n, b) in [(8usize, 4usize), (10, 4), (5, 8)] {
            let mut ctx = exec_ctx();
            let a = hchol_matrix::generate::uniform(n, n, -1.0, 1.0, 9);
            let lay = setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, Some(&a)).unwrap();
            let mut want = ctx.dev_mem.buf(lay.mat).to_dense();
            force_lower(&mut want);
            let got = extract_factor(&ctx, &lay).unwrap();
            assert_eq!(got, want, "n={n} b={b}");
            assert!(got.get(0, n - 1).to_bits() == 0, "upper part is +0.0");
        }
    }

    #[test]
    fn reload_retiles_the_input_and_charges_the_upload() {
        let mut ctx = exec_ctx();
        let a = spd_diag_dominant(8, 4);
        let lay = setup(&mut ctx, 8, 4, false, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        let pristine = ctx.dev_mem.buf(lay.mat).clone();
        ctx.dev_mem.buf_mut(lay.mat).tile_mut(1, 0).set(2, 3, 99.0);
        let before = ctx.now();
        reload(&mut ctx, &lay, Some(&a));
        assert_eq!(*ctx.dev_mem.buf(lay.mat), pristine);
        assert!(ctx.now() > before, "the restart pays for a full upload");
    }

    #[test]
    fn full_iteration_matches_reference_factorization() {
        // Drive the four ops by hand for a 3x3-tile matrix and compare with
        // the trusted host factorization — over the whole panel, with the
        // fused epilogue, and as two row-cyclic per-device slices: row set
        // and epilogue are parameters of the one op, never of its numerics.
        let n = 12;
        let b = 4;
        let a = spd_diag_dominant(n, 2);
        let mut want = a.clone();
        hchol_blas::potrf_blocked(&mut want, b).unwrap();
        let mut factors = Vec::new();
        for (fused, devices) in [(false, 1usize), (true, 1), (false, 2)] {
            let mut ctx = exec_ctx();
            let mut lay = setup(&mut ctx, n, b, false, ChecksumPlacement::Gpu, Some(&a)).unwrap();
            // (rows, dev) of each slice of panel column j; one device
            // holds every row and is no slice at all (`dev: None`).
            let slices = |nt: usize, j: usize| -> Vec<(Vec<usize>, Option<usize>)> {
                (0..devices)
                    .map(|d| {
                        let rows = ((j + 1)..nt).filter(|i| i % devices == d).collect();
                        (rows, (devices > 1).then_some(d))
                    })
                    .collect()
            };
            for j in 0..lay.nt {
                let access = syrk_access(lay.nt, j, 0..j, fused);
                syrk_diag(&mut ctx, &mut lay, j, 0..j, fused, access);
                if fused && j > 0 {
                    // The epilogue deposited fresh checksums of the
                    // updated diagonal tile.
                    let mut fresh = Matrix::zeros(checksum::CHECKSUM_COUNT, b);
                    checksum::encode_into(ctx.dev_mem.tile(lay.mat, j, j), &mut fresh);
                    let deposit = ctx.dev_mem.tile(lay.dpt[j], 0, j);
                    assert!(hchol_matrix::approx_eq(deposit, &fresh, 1e-10));
                }
                diag_to_host(&mut ctx, &mut lay, j);
                for (rows, dev) in slices(lay.nt, j) {
                    let access = gemm_panel_access(lay.nt, j, 0..j, &rows, fused);
                    gemm_panel(&mut ctx, &mut lay, j, 0..j, &rows, dev, fused, access);
                }
                ctx.sync_stream(lay.streams.tran);
                host_potf2(&mut ctx, &lay, j).unwrap();
                diag_to_device(&mut ctx, &lay, j, diag_back(j));
                ctx.sync_stream(lay.streams.tran);
                for (rows, dev) in slices(lay.nt, j) {
                    trsm_panel(&mut ctx, &lay, j, &rows, dev, trsm_panel_access(j, &rows));
                }
            }
            ctx.sync_all();
            let l = extract_factor(&ctx, &lay).unwrap();
            assert!(
                hchol_matrix::approx_eq(&l, &want, 1e-10),
                "fused={fused} devices={devices}"
            );
            factors.push(l);
        }
        // Bit-identical across row sets and epilogues.
        assert_eq!(factors[0], factors[1]);
        assert_eq!(factors[0], factors[2]);
    }

    #[test]
    fn encode_then_verify_is_clean() {
        let n = 8;
        let b = 4;
        let a = spd_diag_dominant(n, 3);
        let mut ctx = exec_ctx();
        let mut lay = setup(&mut ctx, n, b, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        let mut inj = Injector::inert();
        let nt = lay.nt;
        let tiles = lower_tiles(nt);
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, false, nt, &opts);
        assert!(out.is_clean());
    }

    #[test]
    fn verify_batch_corrects_injected_corruption() {
        let n = 8;
        let b = 4;
        let a = spd_diag_dominant(n, 4);
        let mut ctx = exec_ctx();
        let mut lay = setup(&mut ctx, n, b, true, ChecksumPlacement::Gpu, Some(&a)).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        // Flip bits directly in "DRAM".
        let v = ctx.dev_mem.tile(lay.mat, 1, 0).get(2, 3);
        ctx.dev_mem
            .tile_mut(lay.mat, 1, 0)
            .set(2, 3, hchol_matrix::bits::flip_bits(v, &[30, 53]));
        let mut inj = Injector::inert();
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &[(1, 0)], false, 0, &opts);
        assert_eq!(out.corrected_data, 1);
        // The correction subtracts δ₁, which carries the rounding of the two
        // checksum sums — recovery is exact to a few ulps, not bitwise.
        let after = ctx.dev_mem.tile(lay.mat, 1, 0).get(2, 3);
        assert!(
            (after - v).abs() < 1e-12 * v.abs().max(1.0),
            "{after} vs {v}"
        );
    }

    #[test]
    fn timing_only_runs_without_data() {
        let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
        let mut lay = setup(&mut ctx, 16, 4, true, ChecksumPlacement::Gpu, None).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        for j in 0..lay.nt {
            let (nt, rows): (_, Vec<usize>) = (lay.nt, ((j + 1)..lay.nt).collect());
            syrk_diag(
                &mut ctx,
                &mut lay,
                j,
                0..j,
                false,
                syrk_access(nt, j, 0..j, false),
            );
            diag_to_host(&mut ctx, &mut lay, j);
            let access = gemm_panel_access(nt, j, 0..j, &rows, false);
            gemm_panel(&mut ctx, &mut lay, j, 0..j, &rows, None, false, access);
            ctx.sync_stream(lay.streams.tran);
            host_potf2(&mut ctx, &lay, j).unwrap();
            diag_to_device(&mut ctx, &lay, j, diag_back(j));
            ctx.sync_stream(lay.streams.tran);
            trsm_panel(&mut ctx, &lay, j, &rows, None, trsm_panel_access(j, &rows));
        }
        ctx.sync_all();
        assert!(ctx.now().as_secs() > 0.0);
        let mut inj = Injector::inert();
        let nt = lay.nt;
        let tiles = lower_tiles(nt);
        let out = verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, false, nt, &opts);
        assert!(out.is_clean());
    }

    #[test]
    fn concurrent_recalc_is_faster_than_serial() {
        let tiles: Vec<_> = lower_tiles(8);
        let run = |concurrent: bool| {
            let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
            let mut lay = setup(&mut ctx, 64, 8, true, ChecksumPlacement::Gpu, None).unwrap();
            let opts = AbftOptions::default().with_concurrent_recalc(concurrent);
            let mut inj = Injector::inert();
            verify_batch(&mut ctx, &mut lay, &mut inj, &tiles, false, 8, &opts);
            ctx.sync_all();
            ctx.now().as_secs()
        };
        let serial = run(false);
        let conc = run(true);
        assert!(
            conc < serial * 0.6,
            "concurrent {conc} not sufficiently faster than serial {serial}"
        );
    }

    #[test]
    fn cpu_placement_charges_transfers() {
        let mut ctx = SimContext::new(SystemProfile::test_profile(), ExecMode::TimingOnly);
        let mut lay = setup(&mut ctx, 16, 4, true, ChecksumPlacement::Cpu, None).unwrap();
        let opts = AbftOptions::default();
        encode_all(&mut ctx, &mut lay, &opts);
        let moved = |ctx: &SimContext| {
            ctx.obs.metrics.count("pcie.bytes.h2d") + ctx.obs.metrics.count("pcie.bytes.d2h")
        };
        let before = moved(&ctx);
        assert!(before > 0, "initial checksum transfer must be charged");
        let mut inj = Injector::inert();
        verify_batch(&mut ctx, &mut lay, &mut inj, &[(1, 0)], false, 0, &opts);
        assert!(moved(&ctx) > before);
    }

    #[test]
    fn lower_tiles_enumeration() {
        let t = lower_tiles(3);
        assert_eq!(t.len(), 6);
        assert!(t.contains(&(2, 2)) && t.contains(&(2, 0)) && !t.contains(&(0, 1)));
    }
}
