//! Device and host memory arenas.
//!
//! The simulated device owns its buffers just like GPU global memory owns
//! `cudaMalloc`'d regions: the host program holds opaque [`BufferId`]s and
//! can only touch the contents through launched kernels or explicit
//! transfers. Buffers are [`TileMatrix`]es because the blocked Cholesky (and
//! the paper's per-block checksums) address memory exclusively in tiles.
//!
//! Storage-error injection (the `hchol-faults` crate) needs raw access to
//! flip bits in "DRAM"; that is what [`DeviceMemory::tile_mut`] by global
//! element coordinates provides.

use hchol_matrix::{Matrix, MatrixError, Scalar, TileMatrix};

/// Error raised when an allocation exceeds device capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfDeviceMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes already resident.
    pub resident: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device OOM: requested {} B with {} B resident of {} B capacity",
            self.requested, self.resident, self.capacity
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Handle to a device-resident buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct BufferId(pub usize);

/// Handle to a host-resident (pinned) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct HostBufferId(pub usize);

/// The simulated GPU global memory: an arena of tile matrices.
///
/// Generic over the element precision `S` (default `f64`): an f32 device
/// holds f32 tiles and accounts capacity at [`Scalar::BYTES`] per element.
#[derive(Debug)]
pub struct DeviceMemory<S: Scalar = f64> {
    buffers: Vec<TileMatrix<S>>,
    capacity: Option<u64>,
}

impl<S: Scalar> Default for DeviceMemory<S> {
    fn default() -> Self {
        DeviceMemory {
            buffers: Vec::new(),
            capacity: None,
        }
    }
}

impl<S: Scalar> DeviceMemory<S> {
    /// Enforce a capacity (bytes). Subsequent `try_alloc` calls fail once
    /// resident bytes would exceed it; plain `alloc` panics. The paper sized
    /// its experiments "from the largest our GPU memory allows" — 6 GB on
    /// the M2075, 12 GB on the K40c.
    pub fn set_capacity(&mut self, bytes: u64) {
        self.capacity = Some(bytes);
    }

    /// Byte footprint of a tile matrix ([`Scalar::BYTES`] per element).
    pub fn footprint(t: &TileMatrix<S>) -> u64 {
        S::BYTES * (t.rows() as u64) * (t.cols() as u64)
    }

    /// Capacity-checked allocation.
    pub fn try_alloc(&mut self, t: TileMatrix<S>) -> Result<BufferId, OutOfDeviceMemory> {
        if let Some(cap) = self.capacity {
            let requested = Self::footprint(&t);
            let resident = self.resident_bytes();
            if resident + requested > cap {
                return Err(OutOfDeviceMemory {
                    requested,
                    resident,
                    capacity: cap,
                });
            }
        }
        self.buffers.push(t);
        Ok(BufferId(self.buffers.len() - 1))
    }

    /// Allocate a buffer holding `t` and return its handle. Panics on
    /// capacity overflow (use [`DeviceMemory::try_alloc`] to handle it).
    pub fn alloc(&mut self, t: TileMatrix<S>) -> BufferId {
        self.try_alloc(t).expect("device memory capacity exceeded")
    }

    /// Allocate a zeroed `rows × cols` buffer with block size `block`.
    pub fn alloc_zeros(
        &mut self,
        rows: usize,
        cols: usize,
        block: usize,
    ) -> Result<BufferId, MatrixError> {
        Ok(self.alloc(TileMatrix::zeros(rows, cols, block)?))
    }

    /// Shared view of a buffer.
    pub fn buf(&self, id: BufferId) -> &TileMatrix<S> {
        &self.buffers[id.0]
    }

    /// Mutable view of a buffer.
    pub fn buf_mut(&mut self, id: BufferId) -> &mut TileMatrix<S> {
        &mut self.buffers[id.0]
    }

    /// Two distinct buffers, both mutable (e.g. matrix tiles + checksum
    /// tiles updated by one kernel). Panics if `a == b`.
    pub fn buf_pair_mut(
        &mut self,
        a: BufferId,
        b: BufferId,
    ) -> (&mut TileMatrix<S>, &mut TileMatrix<S>) {
        assert_ne!(a.0, b.0, "buffers must be distinct");
        let [x, y] = self
            .buffers
            .get_disjoint_mut([a.0, b.0])
            .expect("distinct, in-bounds buffer ids");
        (x, y)
    }

    /// Three distinct buffers, all mutable (data tile + checksum tile +
    /// recalculation scratch is the verifier's working set). Panics unless
    /// all ids are distinct.
    pub fn buf_trio_mut(
        &mut self,
        a: BufferId,
        b: BufferId,
        c: BufferId,
    ) -> (&mut TileMatrix<S>, &mut TileMatrix<S>, &mut TileMatrix<S>) {
        assert!(
            a.0 != b.0 && b.0 != c.0 && a.0 != c.0,
            "buffers must be distinct"
        );
        let [x, y, z] = self
            .buffers
            .get_disjoint_mut([a.0, b.0, c.0])
            .expect("distinct, in-bounds buffer ids");
        (x, y, z)
    }

    /// Any number of distinct buffers, all mutable, in the order of `ids`
    /// (the matrix plus one deposit buffer per panel row is a fused panel
    /// kernel's working set). Panics unless all ids are distinct.
    pub fn bufs_mut(&mut self, ids: &[BufferId]) -> Vec<&mut TileMatrix<S>> {
        let mut slots: Vec<Option<&mut TileMatrix<S>>> =
            self.buffers.iter_mut().map(Some).collect();
        ids.iter()
            .map(|id| {
                slots[id.0]
                    .take()
                    .expect("buffers must be distinct and in bounds")
            })
            .collect()
    }

    /// Shared view of one tile.
    pub fn tile(&self, id: BufferId, bi: usize, bj: usize) -> &Matrix<S> {
        self.buf(id).tile(bi, bj)
    }

    /// Mutable view of one tile.
    pub fn tile_mut(&mut self, id: BufferId, bi: usize, bj: usize) -> &mut Matrix<S> {
        self.buf_mut(id).tile_mut(bi, bj)
    }

    /// Number of allocated buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Total resident bytes ([`Scalar::BYTES`] per element).
    pub fn resident_bytes(&self) -> u64 {
        self.buffers
            .iter()
            .map(|b| S::BYTES * (b.rows() as u64) * (b.cols() as u64))
            .sum()
    }
}

/// The simulated host (pinned) memory arena.
///
/// MAGMA's Cholesky keeps one block-sized staging area on the host for the
/// diagonal block POTF2 round trip; Optimization 2's CPU checksum updating
/// adds host-resident checksum storage.
#[derive(Debug)]
pub struct HostMemory<S: Scalar = f64> {
    buffers: Vec<Matrix<S>>,
}

impl<S: Scalar> Default for HostMemory<S> {
    fn default() -> Self {
        HostMemory {
            buffers: Vec::new(),
        }
    }
}

impl<S: Scalar> HostMemory<S> {
    /// Allocate a host buffer holding `m`.
    pub fn alloc(&mut self, m: Matrix<S>) -> HostBufferId {
        self.buffers.push(m);
        HostBufferId(self.buffers.len() - 1)
    }

    /// Allocate a zeroed host buffer.
    pub fn alloc_zeros(&mut self, rows: usize, cols: usize) -> HostBufferId {
        self.alloc(Matrix::zeros(rows, cols))
    }

    /// Shared view.
    pub fn buf(&self, id: HostBufferId) -> &Matrix<S> {
        &self.buffers[id.0]
    }

    /// Mutable view.
    pub fn buf_mut(&mut self, id: HostBufferId) -> &mut Matrix<S> {
        &mut self.buffers[id.0]
    }

    /// Two distinct host buffers, both mutable.
    pub fn buf_pair_mut(
        &mut self,
        a: HostBufferId,
        b: HostBufferId,
    ) -> (&mut Matrix<S>, &mut Matrix<S>) {
        assert_ne!(a.0, b.0, "buffers must be distinct");
        let [x, y] = self
            .buffers
            .get_disjoint_mut([a.0, b.0])
            .expect("distinct, in-bounds buffer ids");
        (x, y)
    }

    /// Number of allocated buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut mem = DeviceMemory::<f64>::default();
        let id = mem.alloc_zeros(4, 4, 2).unwrap();
        assert_eq!(mem.buffer_count(), 1);
        mem.tile_mut(id, 1, 1).set(0, 0, 3.0);
        assert_eq!(mem.tile(id, 1, 1).get(0, 0), 3.0);
        assert_eq!(mem.buf(id).get(2, 2), 3.0);
        assert_eq!(mem.resident_bytes(), 4 * 4 * 8);
    }

    #[test]
    fn buf_pair_mut_distinct() {
        let mut mem = DeviceMemory::<f64>::default();
        let a = mem.alloc_zeros(2, 2, 2).unwrap();
        let b = mem.alloc_zeros(2, 2, 2).unwrap();
        let (x, y) = mem.buf_pair_mut(a, b);
        x.set(0, 0, 1.0);
        y.set(0, 0, 2.0);
        assert_eq!(mem.buf(a).get(0, 0), 1.0);
        assert_eq!(mem.buf(b).get(0, 0), 2.0);
    }

    #[test]
    #[should_panic]
    fn buf_pair_mut_same_panics() {
        let mut mem = DeviceMemory::<f64>::default();
        let a = mem.alloc_zeros(2, 2, 2).unwrap();
        let _ = mem.buf_pair_mut(a, a);
    }

    #[test]
    fn buf_trio_mut_distinct() {
        let mut mem = DeviceMemory::<f64>::default();
        let a = mem.alloc_zeros(2, 2, 2).unwrap();
        let b = mem.alloc_zeros(2, 2, 2).unwrap();
        let c = mem.alloc_zeros(2, 2, 2).unwrap();
        let (x, y, z) = mem.buf_trio_mut(a, b, c);
        x.set(0, 0, 1.0);
        y.set(0, 0, 2.0);
        z.set(0, 0, 3.0);
        assert_eq!(mem.buf(c).get(0, 0), 3.0);
    }

    #[test]
    #[should_panic]
    fn buf_trio_mut_duplicate_panics() {
        let mut mem = DeviceMemory::<f64>::default();
        let a = mem.alloc_zeros(2, 2, 2).unwrap();
        let b = mem.alloc_zeros(2, 2, 2).unwrap();
        let _ = mem.buf_trio_mut(a, b, a);
    }

    #[test]
    fn bufs_mut_lends_distinct_buffers_in_the_order_asked() {
        let mut mem = DeviceMemory::<f64>::default();
        let ids: Vec<_> = (0..4).map(|_| mem.alloc_zeros(2, 2, 2).unwrap()).collect();
        for (v, buf) in mem
            .bufs_mut(&[ids[3], ids[0], ids[2]])
            .into_iter()
            .enumerate()
        {
            buf.set(0, 0, v as f64 + 1.0);
        }
        let got: Vec<f64> = ids.iter().map(|&id| mem.buf(id).get(0, 0)).collect();
        assert_eq!(got, [2.0, 0.0, 3.0, 1.0]);
        assert!(mem.bufs_mut(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn bufs_mut_duplicate_panics() {
        let mut mem = DeviceMemory::<f64>::default();
        let a = mem.alloc_zeros(2, 2, 2).unwrap();
        let b = mem.alloc_zeros(2, 2, 2).unwrap();
        let _ = mem.bufs_mut(&[a, b, a]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mem = DeviceMemory::<f64>::default();
        mem.set_capacity(4 * 4 * 8 + 10); // one 4x4 buffer plus slack
        let t = TileMatrix::<f64>::zeros(4, 4, 2).unwrap();
        assert_eq!(DeviceMemory::footprint(&t), 128);
        assert!(mem.try_alloc(t.clone()).is_ok());
        let err = mem.try_alloc(t).unwrap_err();
        assert_eq!(err.resident, 128);
        assert_eq!(err.requested, 128);
        assert!(err.to_string().contains("OOM"));
    }

    #[test]
    fn unlimited_by_default() {
        let mut mem = DeviceMemory::<f64>::default();
        for _ in 0..10 {
            mem.alloc(TileMatrix::<f64>::zeros(8, 8, 4).unwrap());
        }
        assert_eq!(mem.buffer_count(), 10);
    }

    #[test]
    fn f32_device_accounts_four_bytes_per_element() {
        let mut mem = DeviceMemory::<f32>::default();
        let id = mem.alloc_zeros(4, 4, 2).unwrap();
        assert_eq!(mem.resident_bytes(), 4 * 4 * 4);
        mem.tile_mut(id, 0, 0).set(0, 0, 1.5f32);
        assert_eq!(mem.tile(id, 0, 0).get(0, 0), 1.5f32);
        let t = TileMatrix::<f32>::zeros(4, 4, 2).unwrap();
        assert_eq!(DeviceMemory::footprint(&t), 64);
    }

    #[test]
    fn host_memory_roundtrip() {
        let mut h = HostMemory::<f64>::default();
        let id = h.alloc_zeros(3, 3);
        h.buf_mut(id).set(2, 2, 9.0);
        assert_eq!(h.buf(id).get(2, 2), 9.0);
        let id2 = h.alloc(Matrix::identity(2));
        let (a, b) = h.buf_pair_mut(id, id2);
        a.set(0, 0, b.get(0, 0));
        assert_eq!(h.buf(id).get(0, 0), 1.0);
        assert_eq!(h.buffer_count(), 2);
    }
}
