//! Device and system cost profiles.
//!
//! A profile turns an operation description (kernel class + flop count, or a
//! transfer byte count) into virtual time. The two presets model the paper's
//! evaluation machines; constants start from public spec sheets de-rated by
//! typical double-precision efficiencies and are lightly calibrated so the
//! no-error factorization times land near the paper's headline numbers
//! (see `EXPERIMENTS.md`).

use crate::time::SimTime;

/// Coarse classes of GPU/CPU work, each with its own effective throughput.
///
/// The split mirrors the paper's reasoning: BLAS-3 kernels (GEMM/SYRK/TRSM)
/// approach peak; BLAS-2 kernels (the checksum encode/recalculate GEMVs) are
/// memory-bound and occupy only a small slice of the device — which is why
/// Optimization 1 can run many of them concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelClass {
    /// Matrix-matrix multiply (GEMM) and friends.
    Blas3,
    /// Symmetric rank-k update — BLAS-3 but with lower arithmetic intensity
    /// on the thin updates Cholesky issues.
    Syrk,
    /// Triangular solve with multiple RHS.
    Trsm,
    /// Matrix-vector work: checksum encode / recalculate / update GEMVs.
    Blas2,
    /// Unblocked Cholesky of one diagonal block (CPU-shaped work).
    Potf2,
    /// Elementwise/bookkeeping work (checksum compare, small corrections).
    Light,
    /// Checksum arithmetic fused into a level-3 kernel's epilogue: the two
    /// weighted column sums accumulate while the output tile is still in
    /// registers/cache, so this work streams at BLAS-3 rate instead of the
    /// DRAM-bound BLAS-2 rate of a separate recalc kernel — and pays no
    /// launch or startup cost of its own.
    FusedEpilogue,
}

/// GPU cost model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DeviceProfile {
    /// Marketing/code name, e.g. "Tesla M2075 (Fermi)".
    pub name: String,
    /// Effective DGEMM throughput, GFLOP/s.
    pub blas3_gflops: f64,
    /// Effective SYRK throughput, GFLOP/s.
    pub syrk_gflops: f64,
    /// Effective TRSM throughput, GFLOP/s.
    pub trsm_gflops: f64,
    /// Effective throughput of a *single* BLAS-2 kernel, GFLOP/s.
    pub blas2_gflops: f64,
    /// Throughput for `Light` work, GFLOP/s.
    pub light_gflops: f64,
    /// Fraction of the device one BLAS-2 kernel occupies (the `M`-side of
    /// the paper's `P = min(N, M)`: at most `⌊1/fraction⌋` such kernels fit).
    pub blas2_resource_fraction: f64,
    /// Fraction of the device one BLAS-3 kernel occupies. 1.0 on Fermi
    /// (single hardware work queue — nothing co-executes with a DGEMM);
    /// slightly below 1.0 on Kepler (Hyper-Q lets slim kernels fill SM
    /// gaps beside a running DGEMM). This asymmetry is what makes the
    /// paper's Optimization 2 choose CPU updating on Tardis but GPU
    /// updating on Bulldozer64.
    pub blas3_resource_fraction: f64,
    /// Hardware cap on concurrently executing kernels (the `N`-side of
    /// `P = min(N, M)`): 16 on Fermi, 32 on Kepler (Hyper-Q).
    pub max_concurrent_kernels: usize,
    /// Host-side cost of launching one kernel, seconds.
    pub launch_overhead: f64,
}

impl DeviceProfile {
    /// Effective throughput for a kernel class, GFLOP/s.
    pub fn gflops(&self, class: KernelClass) -> f64 {
        match class {
            KernelClass::Blas3 => self.blas3_gflops,
            KernelClass::Syrk => self.syrk_gflops,
            KernelClass::Trsm => self.trsm_gflops,
            KernelClass::Blas2 => self.blas2_gflops,
            KernelClass::Potf2 => self.light_gflops, // GPUs are bad at POTF2
            KernelClass::Light => self.light_gflops,
            // Register/cache-resident accumulation inside a level-3 kernel.
            KernelClass::FusedEpilogue => self.blas3_gflops,
        }
    }

    /// Fraction of device resources one kernel of this class occupies.
    pub fn resource_fraction(&self, class: KernelClass) -> f64 {
        match class {
            KernelClass::Blas3
            | KernelClass::Syrk
            | KernelClass::Trsm
            | KernelClass::FusedEpilogue => self.blas3_resource_fraction,
            KernelClass::Blas2 => self.blas2_resource_fraction,
            KernelClass::Potf2 => 1.0,
            KernelClass::Light => self.blas2_resource_fraction,
        }
    }

    /// Duration of a kernel of `class` doing `flops` floating-point ops.
    pub fn kernel_time(&self, class: KernelClass, flops: u64) -> SimTime {
        // A fixed on-device startup cost keeps tiny kernels from being free;
        // it is what makes many-small-kernel patterns (per-block checksum
        // recalculation) expensive enough to need Optimization 1.
        const KERNEL_STARTUP: f64 = 1.5e-6;
        SimTime::secs(KERNEL_STARTUP + flops as f64 / (self.gflops(class) * 1e9))
    }
}

/// CPU-side cost model (the host sockets).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CpuProfile {
    /// Description, e.g. "2x AMD Opteron 6272".
    pub name: String,
    /// Throughput of the unblocked POTF2 on one diagonal block, GFLOP/s.
    pub potf2_gflops: f64,
    /// Throughput of BLAS-2 checksum updates on the CPU, GFLOP/s.
    pub blas2_gflops: f64,
    /// Throughput of BLAS-3 work on the CPU, GFLOP/s.
    pub blas3_gflops: f64,
    /// Number of independent worker lanes usable for offloaded tasks while
    /// the main thread drives the factorization.
    pub worker_lanes: usize,
}

impl CpuProfile {
    /// Duration of a CPU task of `class` doing `flops` ops.
    pub fn task_time(&self, class: KernelClass, flops: u64) -> SimTime {
        let gf = match class {
            KernelClass::Potf2 => self.potf2_gflops,
            KernelClass::Blas2 | KernelClass::Light => self.blas2_gflops,
            KernelClass::Blas3
            | KernelClass::Syrk
            | KernelClass::Trsm
            | KernelClass::FusedEpilogue => self.blas3_gflops,
        };
        SimTime::secs(flops as f64 / (gf * 1e9))
    }
}

/// A whole machine: host CPU(s) + one or more GPUs + interconnect.
///
/// Every GPU is an identical copy of `gpu` (homogeneous sharding); the
/// devices talk to each other over a peer link that is distinct from the
/// host PCIe link, so cross-device shard traffic does not contend with
/// the latency-critical diagonal-block round trips.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SystemProfile {
    /// System name ("Tardis", "Bulldozer64").
    pub name: String,
    /// The GPU (replicated `devices` times).
    pub gpu: DeviceProfile,
    /// The host CPUs.
    pub cpu: CpuProfile,
    /// Host↔device bandwidth, GB/s (the paper's `R`).
    pub pcie_gbs: f64,
    /// Per-transfer latency, seconds.
    pub pcie_latency: f64,
    /// MAGMA's default block size for this GPU generation
    /// (256 on Fermi, 512 on Kepler).
    pub default_block: usize,
    /// Number of identical GPUs in the node (1 in both paper machines).
    pub devices: usize,
    /// Device↔device peer-link bandwidth, GB/s, per direction.
    pub link_gbs: f64,
    /// Per-message latency of the peer link, seconds.
    pub link_latency: f64,
}

impl SystemProfile {
    /// Duration of a host↔device transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::secs(self.pcie_latency + bytes as f64 / (self.pcie_gbs * 1e9))
    }

    /// Duration of a device↔device peer-link transfer of `bytes`.
    pub fn link_time(&self, bytes: u64) -> SimTime {
        SimTime::secs(self.link_latency + bytes as f64 / (self.link_gbs * 1e9))
    }

    /// Builder: the same machine with `d` identical GPUs (≥ 1).
    pub fn with_devices(mut self, d: usize) -> Self {
        self.devices = d.max(1);
        self
    }

    /// The paper's Tardis node: 2× 16-core 2.1 GHz AMD Opteron 6272,
    /// 64 GB DRAM, NVIDIA Tesla M2075 (Fermi, 6 GB), MAGMA block size 256.
    pub fn tardis() -> Self {
        SystemProfile {
            name: "Tardis".into(),
            gpu: DeviceProfile {
                name: "Tesla M2075 (Fermi)".into(),
                // 515 GF/s DP peak; MAGMA dpotrf sustains ~290 GF/s.
                blas3_gflops: 302.0,
                syrk_gflops: 260.0,
                trsm_gflops: 230.0,
                // DGEMV is DRAM-bound device-wide (~150 GB/s => ~37 GF/s),
                // but the checksum GEMVs run on 256x256 blocks (512 KB) that
                // fit Fermi's 768 KB L2, so per-block recalculation sustains
                // above the DRAM bound.
                blas2_gflops: 42.0,
                light_gflops: 5.0,
                // Fermi's single hardware work queue serializes most
                // concurrent launches: in practice only ~3 slim kernels
                // ever co-execute, so P = min(16, 3) = 3 — which is why the
                // paper measures far smaller Optimization-1 gains here than
                // on Hyper-Q Kepler.
                blas2_resource_fraction: 0.33,
                // Single work queue: a DGEMM owns the whole device.
                blas3_resource_fraction: 1.0,
                max_concurrent_kernels: 16,
                launch_overhead: 1.5e-6,
            },
            cpu: CpuProfile {
                name: "2x AMD Opteron 6272 (16c, 2.1 GHz)".into(),
                potf2_gflops: 9.0,
                blas2_gflops: 11.0,
                blas3_gflops: 120.0,
                worker_lanes: 4,
            },
            pcie_gbs: 5.8, // PCIe 2.0 x16 sustained
            pcie_latency: 12e-6,
            default_block: 256,
            devices: 1,
            // PCIe 2.0 peer-to-peer through the switch: a little better
            // than the host link (no system-memory bounce).
            link_gbs: 6.0,
            link_latency: 8e-6,
        }
    }

    /// The paper's Bulldozer64 node: 4× 16-core 2.1 GHz AMD Opteron 6272,
    /// 64 GB DRAM, NVIDIA Tesla K40c (Kepler, 12 GB), MAGMA block size 512.
    pub fn bulldozer64() -> Self {
        SystemProfile {
            name: "Bulldozer64".into(),
            gpu: DeviceProfile {
                name: "Tesla K40c (Kepler)".into(),
                // 1430 GF/s DP peak (boost); MAGMA dpotrf sustains ~1120.
                blas3_gflops: 1160.0,
                syrk_gflops: 1000.0,
                trsm_gflops: 900.0,
                // 288 GB/s memory => device-wide DGEMV ~70 GF/s; a single
                // slim kernel on a 512-wide block sustains well over half.
                blas2_gflops: 45.0,
                light_gflops: 8.0,
                // Hyper-Q: 32 independent queues; slim kernels coexist freely.
                blas2_resource_fraction: 1.0 / 32.0,
                // Hyper-Q leaves a sliver of SMs reachable beside a DGEMM,
                // enough to co-schedule a couple of slim kernels.
                blas3_resource_fraction: 0.93,
                max_concurrent_kernels: 32,
                launch_overhead: 1.5e-6,
            },
            cpu: CpuProfile {
                name: "4x AMD Opteron 6272 (16c, 2.1 GHz)".into(),
                potf2_gflops: 9.0,
                blas2_gflops: 18.0,
                blas3_gflops: 240.0,
                worker_lanes: 8,
            },
            pcie_gbs: 9.5, // PCIe 3.0 x16 sustained
            pcie_latency: 10e-6,
            default_block: 512,
            devices: 1,
            // PCIe 3.0 peer-to-peer: GPUDirect P2P sustains close to the
            // host-link rate with lower per-message latency.
            link_gbs: 10.0,
            link_latency: 6e-6,
        }
    }

    /// Tardis with a degraded host↔device link (the card trained at
    /// PCIe x4 after a re-seat — a real and notoriously silent failure
    /// mode) — a profile the analytic placement model of Optimization 2
    /// gets *wrong*. The model's CPU-side cost
    /// `max((N_Cho + N_Rec)/P_GPU, N_Upd/P_CPU + D_upd/R)` assumes the
    /// `D_upd` mirror traffic overlaps perfectly with factorization, so no
    /// matter how slow `R` gets the `max` stays pinned to the GPU term and
    /// the model keeps picking the CPU; in the simulated run the mirror
    /// shipments share the one DMA engine with the latency-critical
    /// diagonal-block round trips and stretch the critical path. The
    /// balance benchmarks use it as the case only the runtime feedback
    /// balancer recovers.
    pub fn tardis_skewed() -> Self {
        let mut p = Self::tardis();
        p.name = "Tardis-Skewed".into();
        p.pcie_gbs = 0.9; // link trained at x4, contended
        p.pcie_latency = 60e-6;
        p
    }

    /// A deliberately tiny, fast-to-simulate profile for unit tests:
    /// round numbers, 1 GFLOP/s everywhere, 1 GB/s transfers, no latency.
    pub fn test_profile() -> Self {
        SystemProfile {
            name: "TestRig".into(),
            gpu: DeviceProfile {
                name: "TestGPU".into(),
                blas3_gflops: 1.0,
                syrk_gflops: 1.0,
                trsm_gflops: 1.0,
                blas2_gflops: 1.0,
                light_gflops: 1.0,
                blas2_resource_fraction: 0.25,
                blas3_resource_fraction: 1.0,
                max_concurrent_kernels: 4,
                launch_overhead: 0.0,
            },
            cpu: CpuProfile {
                name: "TestCPU".into(),
                potf2_gflops: 1.0,
                blas2_gflops: 1.0,
                blas3_gflops: 1.0,
                worker_lanes: 2,
            },
            pcie_gbs: 1.0,
            pcie_latency: 0.0,
            default_block: 4,
            devices: 1,
            link_gbs: 1.0,
            link_latency: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_scales_with_flops() {
        let p = SystemProfile::test_profile().gpu;
        let t1 = p.kernel_time(KernelClass::Blas3, 1_000_000_000);
        let t2 = p.kernel_time(KernelClass::Blas3, 2_000_000_000);
        // 1 GF/s ⇒ ~1 s and ~2 s (plus fixed startup)
        assert!((t1.as_secs() - 1.0).abs() < 1e-3);
        assert!((t2.as_secs() - 2.0).abs() < 1e-3);
        assert!(t2 > t1);
    }

    #[test]
    fn fused_epilogue_streams_at_blas3_rate() {
        for p in [
            SystemProfile::tardis().gpu,
            SystemProfile::bulldozer64().gpu,
        ] {
            assert_eq!(p.gflops(KernelClass::FusedEpilogue), p.blas3_gflops);
            // Far faster than the separate memory-bound recalc GEMVs — the
            // whole point of fusing.
            assert!(p.gflops(KernelClass::FusedEpilogue) > 5.0 * p.blas2_gflops);
            assert_eq!(
                p.resource_fraction(KernelClass::FusedEpilogue),
                p.blas3_resource_fraction
            );
        }
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let t = SystemProfile::tardis();
        let b = SystemProfile::bulldozer64();
        // Kepler beats Fermi in every class and in concurrency.
        assert!(b.gpu.blas3_gflops > t.gpu.blas3_gflops);
        assert!(b.gpu.max_concurrent_kernels > t.gpu.max_concurrent_kernels);
        assert!(b.gpu.blas2_resource_fraction < t.gpu.blas2_resource_fraction);
        assert!(b.pcie_gbs > t.pcie_gbs);
        assert_eq!(t.default_block, 256);
        assert_eq!(b.default_block, 512);
    }

    #[test]
    fn tardis_headline_time_in_range() {
        // n = 20480 Cholesky ≈ n³/3 flops on the BLAS-3 path should land in
        // the ballpark of the paper's ~10.5 s (coarse check: 8–14 s).
        let t = SystemProfile::tardis();
        let flops = {
            let n = 20480f64;
            (n * n * n / 3.0) as u64
        };
        let secs = t.gpu.kernel_time(KernelClass::Blas3, flops).as_secs();
        assert!((8.0..14.0).contains(&secs), "got {secs}");
    }

    #[test]
    fn bulldozer_headline_time_in_range() {
        let b = SystemProfile::bulldozer64();
        let flops = {
            let n = 30720f64;
            (n * n * n / 3.0) as u64
        };
        let secs = b.gpu.kernel_time(KernelClass::Blas3, flops).as_secs();
        assert!((7.0..11.0).contains(&secs), "got {secs}");
    }

    #[test]
    fn skewed_tardis_differs_only_in_the_link() {
        let t = SystemProfile::tardis();
        let s = SystemProfile::tardis_skewed();
        assert!(s.pcie_gbs < t.pcie_gbs / 4.0);
        assert!(s.pcie_latency > t.pcie_latency);
        // Compute rates are untouched — that is the point: the placement
        // model's `max` hides the transfer term behind the GPU term, so a
        // slower link never changes its answer (see `tardis_skewed` docs).
        assert_eq!(s.cpu.blas2_gflops, t.cpu.blas2_gflops);
        assert_eq!(s.cpu.worker_lanes, t.cpu.worker_lanes);
        assert_eq!(s.gpu.blas3_gflops, t.gpu.blas3_gflops);
    }

    #[test]
    fn transfer_time_includes_latency() {
        let p = SystemProfile::test_profile();
        let t = p.transfer_time(1_000_000_000);
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
        let t0 = p.transfer_time(0);
        assert_eq!(t0.as_secs(), 0.0);
    }

    #[test]
    fn presets_default_to_one_device() {
        for p in [
            SystemProfile::tardis(),
            SystemProfile::bulldozer64(),
            SystemProfile::tardis_skewed(),
            SystemProfile::test_profile(),
        ] {
            assert_eq!(p.devices, 1);
            assert!(p.link_gbs > 0.0);
        }
        let p = SystemProfile::tardis().with_devices(4);
        assert_eq!(p.devices, 4);
        // with_devices clamps to at least one device.
        assert_eq!(SystemProfile::tardis().with_devices(0).devices, 1);
    }

    #[test]
    fn link_time_includes_latency() {
        let p = SystemProfile::test_profile();
        // 1 GB at 1 GB/s, zero latency.
        assert!((p.link_time(1_000_000_000).as_secs() - 1.0).abs() < 1e-9);
        let t = SystemProfile::tardis();
        assert!(t.link_time(0).as_secs() >= t.link_latency);
    }

    #[test]
    fn cpu_task_time_uses_class_throughput() {
        let c = SystemProfile::tardis().cpu;
        let f = 1_000_000_000u64;
        let t_potf2 = c.task_time(KernelClass::Potf2, f);
        let t_blas3 = c.task_time(KernelClass::Blas3, f);
        assert!(t_potf2 > t_blas3);
    }
}
