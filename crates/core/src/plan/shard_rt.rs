//! Runtime state of a sharded attempt: per-shard stream sets, the
//! logical-shard → physical-device map, broadcast events, XOR parity
//! buffers, and the device-loss recovery pass.
//!
//! The plan layer ([`super::shard`]) names *logical* shards; this module
//! binds each one to a physical simulated device. The executor points the
//! shared [`CholLayout`] at the acting shard's [`StreamSet`] before every
//! node, so the imperative ops in [`crate::ops`] need no
//! sharding awareness. When a device is lost, recovery reconstructs the
//! shard from parity, re-binds the logical shard to a surviving physical
//! device (fresh streams there), and execution continues with the plan
//! untouched — which is what makes the recovered factor bit-identical to
//! the fault-free run.

use super::{FactorPlan, NodeId, ShardSpec, ShardXfer, TaskKind, UpdateOp};
use crate::ops::{self, CholLayout, StreamSet};
use crate::options::AbftOptions;
use hchol_faults::{DeviceLoss, Injector};
use hchol_gpusim::{AccessSet, BufferId, EventId, SimContext, TileRef};
use hchol_matrix::Scalar;
use std::collections::HashMap;

/// Runtime companion of a sharded [`FactorPlan`], owned by one attempt.
pub(crate) struct ShardRuntime {
    spec: ShardSpec,
    /// Logical shard → physical device (identity until a loss remaps).
    phys: Vec<usize>,
    /// One stream set per logical shard, on the shard's current device.
    streams: Vec<StreamSet>,
    /// Arrival event of broadcast `(iter, payload)` at each consumer.
    xfer_events: HashMap<(usize, ShardXfer, usize), EventId>,
    /// Per-column XOR parity of the member *matrix* tiles (tile `(g, 0)`
    /// holds group `g`).
    par_mat: Vec<BufferId>,
    /// Per-column XOR parity of the member *checksum* tiles (tile
    /// `(0, g)`).
    par_chk: Vec<BufferId>,
    cur: usize,
}

impl ShardRuntime {
    /// Bind the plan's logical shards to physical devices: shard 0 keeps
    /// the layout's original streams (they live on device 0), shards
    /// `1..D` get fresh stream sets on their devices. Allocates the
    /// parity buffers and publishes the per-device memory gauges.
    pub(crate) fn new<S: Scalar>(
        ctx: &mut SimContext<S>,
        lay: &CholLayout,
        spec: ShardSpec,
    ) -> Self {
        let d = spec.devices;
        assert!(
            ctx.device_count() >= d,
            "profile hosts {} device(s) but the plan shards across {d}",
            ctx.device_count()
        );
        // Every shard starts an attempt with no panel event — shard 0 too,
        // whatever an earlier attempt left in the layout.
        let mut streams = vec![StreamSet {
            panel_ready: None,
            ..lay.streams.clone()
        }];
        streams.extend((1..d).map(|s| StreamSet::create(ctx, s, true)));
        let mut par_mat = Vec::with_capacity(lay.nt);
        let mut par_chk = Vec::with_capacity(lay.nt);
        for c in 0..lay.nt {
            let groups = (lay.nt - c).div_ceil(d - 1);
            let pm = ops::alloc_dev(ctx, groups * lay.b, lay.b, lay.b);
            let pc = ops::alloc_dev(ctx, 2, groups * lay.b, lay.b);
            par_mat.push(pm.expect("nonzero block size"));
            par_chk.push(pc.expect("nonzero block size"));
        }
        // Device memory accounting: owned matrix rows, checksum rows, and
        // homed parity groups.
        let tile_bytes = S::BYTES * (lay.b * lay.b) as u64;
        let chk_row_bytes = S::BYTES * 2 * lay.n as u64;
        for s in 0..d {
            let mut bytes = 0u64;
            for i in (s..lay.nt).step_by(d) {
                bytes += (i + 1) as u64 * tile_bytes + chk_row_bytes;
            }
            for c in 0..lay.nt {
                for rows in group_rows(lay.nt, c, d) {
                    if parity_home(&rows, d) == s {
                        bytes += tile_bytes + S::BYTES * 2 * lay.b as u64;
                    }
                }
            }
            ctx.obs
                .metrics
                .set_gauge(&format!("shard.dev.{s}.mem_bytes"), bytes as f64);
        }
        ctx.obs.metrics.set_gauge("shard.devices", d as f64);
        ShardRuntime {
            spec,
            phys: (0..d).collect(),
            streams,
            xfer_events: HashMap::new(),
            par_mat,
            par_chk,
            cur: 0,
        }
    }

    /// The logical shard whose streams node `id` must run on.
    pub(crate) fn target_shard(&self, plan: &FactorPlan, id: NodeId) -> usize {
        let node = plan.node(id);
        let owner = |i: usize| self.spec.owner(i);
        match &node.kind {
            TaskKind::DeviceSend { from, .. } => *from,
            TaskKind::DeviceRecv { to, .. } => *to,
            TaskKind::GemmPanel { dev: Some(d), .. } | TaskKind::TrsmPanel { dev: Some(d), .. } => {
                *d
            }
            TaskKind::ChkUpdate { op, j, i } => match op {
                UpdateOp::Syrk | UpdateOp::Potf2 => owner(*j),
                UpdateOp::Gemm | UpdateOp::Trsm => owner(*i),
            },
            TaskKind::VerifyBatch { tiles, .. } => {
                tiles.first().map(|&(bi, _)| owner(bi)).unwrap_or(0)
            }
            _ => node.iter.map(owner).unwrap_or(0),
        }
    }

    /// Point the layout at shard `s`'s stream set.
    pub(crate) fn steer(&mut self, lay: &mut CholLayout, s: usize) {
        lay.streams.clone_from(&self.streams[s]);
        self.cur = s;
    }

    /// Sharded [`TaskKind::MarkPanelReady`]: every shard's TRSM slice ran
    /// on its own compute stream, so each shard gets its own
    /// panel-complete event.
    pub(crate) fn mark_panels_ready<S: Scalar>(
        &mut self,
        ctx: &mut SimContext<S>,
        lay: &mut CholLayout,
    ) {
        for set in &mut self.streams {
            set.panel_ready = Some(ctx.record_event(set.comp));
        }
        self.steer(lay, self.cur);
    }

    /// [`TaskKind::DeviceSend`]: ship the payload to every consuming
    /// device as a chunked **ring broadcast** — the owner sends to its
    /// ring successor, which forwards to the next, so every hop occupies a
    /// *different* device's link-out port and the chunks pipeline down the
    /// ring (hop `k` of chunk `c` overlaps hop `k+1` of chunk `c−1`).
    /// A direct one-to-all broadcast would serialize `D−1` full payloads
    /// on the owner's single link port. Transfers ride the transfer
    /// streams, so no compute stream is stalled by link time. `access` is
    /// the node's declared footprint: the payload tiles it reads.
    pub(crate) fn broadcast<S: Scalar>(
        &mut self,
        ctx: &mut SimContext<S>,
        lay: &CholLayout,
        j: usize,
        what: ShardXfer,
        from: usize,
        access: AccessSet,
    ) {
        // The row panel was produced by earlier TRSMs on the owner's
        // compute stream; an event orders the first send behind them. The
        // factorized diagonal lands via DiagToDevice on the owner's
        // transfer stream already.
        if what == ShardXfer::RowPanel {
            let done = ctx.record_event(self.streams[from].comp);
            ctx.stream_wait_event(self.streams[from].tran, done);
        }
        let reads = lay.bind(access).reads;
        let bytes = reads.len() as u64 * S::BYTES * (lay.b * lay.b) as u64;
        // Ring order from the owner, restricted to devices that hold panel
        // rows (exactly the shards the plan gave a DeviceRecv).
        let d = self.spec.devices;
        let consumers: Vec<usize> = (1..d)
            .map(|k| (from + k) % d)
            .filter(|&s| !self.spec.panel_rows(lay.nt, j, s).is_empty())
            .collect();
        if consumers.is_empty() {
            return;
        }
        let chunks = (bytes / (128 * 1024)).clamp(1, 8);
        let chunk_bytes = bytes.div_ceil(chunks);
        for _ in 0..chunks {
            let mut prev = from;
            let mut arrived: Option<EventId> = None;
            for &cons in &consumers {
                let s_prev = self.streams[prev].tran;
                if let Some(ev) = arrived {
                    // A forwarding hop waits for this chunk to land first.
                    ctx.stream_wait_event(s_prev, ev);
                }
                ctx.device_transfer(
                    chunk_bytes,
                    s_prev,
                    self.phys[cons],
                    AccessSet::new(reads.clone(), vec![]),
                    |_| {},
                );
                let ev = ctx.record_event(s_prev);
                arrived = Some(ev);
                // The last chunk's arrival is what DeviceRecv waits on.
                self.xfer_events.insert((j, what, cons), ev);
                prev = cons;
            }
        }
    }

    /// [`TaskKind::DeviceRecv`]: order shard `to`'s future compute and
    /// checksum work behind the payload's arrival at `to`.
    pub(crate) fn recv<S: Scalar>(
        &mut self,
        ctx: &mut SimContext<S>,
        j: usize,
        what: ShardXfer,
        to: usize,
    ) {
        let ev = self.xfer_events[&(j, what, to)];
        ctx.stream_wait_event(self.streams[to].comp, ev);
        ctx.stream_wait_event(self.streams[to].chk, ev);
    }

    /// [`TaskKind::ShardParity`] (and setup init): rebuild column `c`'s
    /// XOR parity. Member tiles ride the peer links to each group's
    /// parity home; the XOR kernel on the home's checksum stream is
    /// ordered behind every member's compute *and* checksum streams (the
    /// parity covers both the tile and its checksum).
    pub(crate) fn refresh_column_parity<S: Scalar>(
        &mut self,
        ctx: &mut SimContext<S>,
        lay: &mut CholLayout,
        c: usize,
    ) {
        let d = self.spec.devices;
        let member_bytes = S::BYTES * (lay.b * lay.b) as u64 + S::BYTES * 2 * lay.b as u64;
        for (g, rows) in group_rows(lay.nt, c, d).into_iter().enumerate() {
            let home = parity_home(&rows, d);
            for &i in &rows {
                // The member's tile was written on its compute stream, its
                // checksum on its checksum stream; ship both from the
                // checksum stream (ordered behind the compute write by an
                // event) so the member's compute stream is not stalled by
                // link time.
                let m = self.spec.owner(i);
                let ev_comp = ctx.record_event(self.streams[m].comp);
                ctx.stream_wait_event(self.streams[m].chk, ev_comp);
                let reads = vec![TileRef::new(lay.mat, i, c), TileRef::new(lay.cks[i], 0, c)];
                ctx.device_transfer(
                    member_bytes,
                    self.streams[m].chk,
                    self.phys[home],
                    AccessSet::new(reads, vec![]),
                    |_| {},
                );
                let ev = ctx.record_event(self.streams[m].chk);
                ctx.stream_wait_event(self.streams[home].chk, ev);
            }
            ops::shard_parity_xor(
                ctx,
                lay,
                self.par_mat[c],
                self.par_chk[c],
                self.streams[home].chk,
                c,
                g,
                &rows,
            );
        }
        ctx.obs.metrics.inc("shard.parity_refreshes");
    }

    /// Initial parity of every column, taken right after checksum encode
    /// (pristine columns stay covered until their finalizing iteration
    /// refreshes them). Ends on a full barrier: the snapshot reads the
    /// pristine tiles on the members' checksum streams, and without the
    /// sync the iteration-0 diagonal upload (a host-issued transfer that
    /// knows nothing of those streams) could overwrite `(0,0)` mid-read —
    /// a WAR race the schedule analyzer catches.
    pub(crate) fn init_parity<S: Scalar>(&mut self, ctx: &mut SimContext<S>, lay: &mut CholLayout) {
        for c in 0..lay.nt {
            self.refresh_column_parity(ctx, lay, c);
        }
        ctx.sync_all();
    }

    /// Device-loss recovery, run at the `IterStart` fault point of the
    /// loss iteration: quiesce, wipe the lost shard's tiles, reconstruct
    /// every one from parity and the survivors, re-bind the logical shard
    /// to a surviving physical device, and re-verify the reconstruction
    /// through the ordinary checksum pipeline. The plan is not rewritten —
    /// only the shard→device binding changes — so the remaining execution
    /// (and the factor bits) are identical to the fault-free run.
    pub(crate) fn recover_device_loss<S: Scalar>(
        &mut self,
        ctx: &mut SimContext<S>,
        lay: &mut CholLayout,
        inj: &mut Injector,
        opts: &AbftOptions,
        loss: DeviceLoss,
    ) {
        let d = self.spec.devices;
        let lost = loss.device % d;
        let t0 = ctx.now();
        // The loss is a full stop: nothing queued on the dead device can
        // complete, and recovery reads a consistent snapshot.
        ctx.sync_all();
        let t = ctx.now().as_secs();
        ctx.obs.event(
            t,
            "device.lost",
            format!(
                "logical shard {lost} (device {}) lost at iteration {}",
                self.phys[lost], loss.at_iter
            ),
        );

        // Wipe the shard: every matrix tile and checksum tile homed on it.
        if ctx.mode.executes() {
            for i in (lost..lay.nt).step_by(d) {
                for c in 0..=i {
                    zero_tile(ctx, lay.mat, (i, c));
                    zero_tile(ctx, lay.cks[i], (0, c));
                }
            }
        }

        // Re-bind the logical shard to a surviving device and rebuild its
        // stream set there before any reconstruction work is issued.
        let repl = self.phys[(lost + 1) % d];
        self.phys[lost] = repl;
        self.streams[lost] = StreamSet::create(ctx, repl, true);

        // Reconstruct column by column: parity tile and surviving members
        // ride the links to the replacement device, which XORs the lost
        // member back bit-for-bit.
        let member_bytes = S::BYTES * (lay.b * lay.b) as u64 + S::BYTES * 2 * lay.b as u64;
        let mut rebuilt: Vec<(usize, usize)> = Vec::new();
        for c in 0..lay.nt {
            for (g, rows) in group_rows(lay.nt, c, d).into_iter().enumerate() {
                let Some(&lost_row) = rows.iter().find(|&&i| self.spec.owner(i) == lost) else {
                    continue;
                };
                let home = parity_home(&rows, d);
                let survivors: Vec<usize> =
                    rows.iter().copied().filter(|&i| i != lost_row).collect();
                let dst_chk = self.streams[lost].chk;
                ctx.device_transfer(
                    member_bytes,
                    self.streams[home].chk,
                    repl,
                    AccessSet::new(
                        vec![
                            TileRef::new(self.par_mat[c], g, 0),
                            TileRef::new(self.par_chk[c], 0, g),
                        ],
                        vec![],
                    ),
                    |_| {},
                );
                let ev = ctx.record_event(self.streams[home].chk);
                ctx.stream_wait_event(dst_chk, ev);
                for &i in &survivors {
                    let m = self.spec.owner(i);
                    let reads = vec![TileRef::new(lay.mat, i, c), TileRef::new(lay.cks[i], 0, c)];
                    ctx.device_transfer(
                        member_bytes,
                        self.streams[m].comp,
                        repl,
                        AccessSet::new(reads, vec![]),
                        |_| {},
                    );
                    let ev = ctx.record_event(self.streams[m].comp);
                    ctx.stream_wait_event(dst_chk, ev);
                }
                ops::shard_reconstruct(
                    ctx,
                    lay,
                    self.par_mat[c],
                    self.par_chk[c],
                    dst_chk,
                    c,
                    g,
                    lost_row,
                    &survivors,
                );
                rebuilt.push((lost_row, c));
            }
        }

        // Prove the reconstruction through the ordinary verify pipeline
        // (recalculated checksums against the reconstructed rows).
        self.steer(lay, lost);
        let depth = loss.at_iter.min(lay.nt);
        for chunk in rebuilt.chunks(256) {
            let _ = ops::verify_batch(ctx, lay, inj, chunk, false, depth, opts);
        }
        ctx.sync_all();
        let now = ctx.now();
        ctx.obs
            .metrics
            .add_f64("shard.recovery_secs", (now - t0).as_secs());
        ctx.obs
            .metrics
            .add_count("shard.recovered_tiles", rebuilt.len() as u64);
        ctx.obs.event(
            now.as_secs(),
            "device.recovered",
            format!(
                "shard {lost} rebuilt on device {repl}: {} tiles from parity",
                rebuilt.len()
            ),
        );
    }
}

/// The parity groups of column `c`: rows `c..nt` in runs of `D−1`
/// consecutive rows, so every group's members live on distinct devices
/// and exactly one device owns no member — the parity home.
fn group_rows(nt: usize, c: usize, d: usize) -> Vec<Vec<usize>> {
    (c..nt)
        .collect::<Vec<_>>()
        .chunks(d - 1)
        .map(|ch| ch.to_vec())
        .collect()
}

/// The one device owning no member of the group (owners of `D−1`
/// consecutive rows starting at `r` are everything except `(r−1) mod D`).
fn parity_home(rows: &[usize], d: usize) -> usize {
    (rows[0] + d - 1) % d
}

fn zero_tile<S: Scalar>(ctx: &mut SimContext<S>, buf: BufferId, at: (usize, usize)) {
    let t = ctx.dev_mem.buf_mut(buf).tile_mut(at.0, at.1);
    let (r, c) = t.shape();
    for i in 0..r {
        for j in 0..c {
            t.set(i, j, S::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_each_column_with_distinct_owners() {
        let spec = ShardSpec { devices: 3 };
        for c in 0..7 {
            let groups = group_rows(7, c, 3);
            let all: Vec<usize> = groups.iter().flatten().copied().collect();
            assert_eq!(all, (c..7).collect::<Vec<_>>());
            for rows in &groups {
                let mut owners: Vec<usize> = rows.iter().map(|&i| spec.owner(i)).collect();
                owners.sort_unstable();
                owners.dedup();
                assert_eq!(owners.len(), rows.len(), "duplicate owner in {rows:?}");
                let home = parity_home(rows, 3);
                assert!(
                    !rows.iter().any(|&i| spec.owner(i) == home),
                    "parity home {home} owns a member of {rows:?}"
                );
            }
        }
    }

    #[test]
    fn mirroring_degenerates_at_two_devices() {
        // D = 2: groups of one row, parity is a plain mirror on the other
        // device.
        let spec = ShardSpec { devices: 2 };
        for rows in group_rows(5, 1, 2) {
            assert_eq!(rows.len(), 1);
            assert_ne!(parity_home(&rows, 2), spec.owner(rows[0]));
        }
    }
}
