//! # platforms — analytical GPU and CPU reference models
//!
//! The paper compares against a real NVIDIA GeForce RTX 4090 and a 16-core
//! Intel Xeon Gold 6544Y (§VII). Neither is available here, so this crate
//! substitutes first-order analytical models (see DESIGN.md §2): a
//! roofline of compute throughput vs. memory bandwidth, kernel-launch
//! overhead, *host-to-device transfer of the working set over PCIe* (PUM
//! data is already resident in memory — the standard PUM-vs-GPU
//! methodology and the dominant term for data-intensive kernels), and a
//! utilization-interpolated power model.
//!
//! ```
//! use platforms::PlatformModel;
//! use workloads::WorkProfile;
//!
//! let gpu = PlatformModel::rtx4090();
//! let profile = WorkProfile {
//!     ops_per_elem: 1.0,
//!     bytes_per_elem: 24.0,
//!     kernel_launches: 1,
//!     gpu_efficiency: 0.9,
//!     avg_trip_count: 1.0,
//! };
//! let run = gpu.run(&profile, 1 << 20);
//! assert!(run.time_ns > 0.0 && run.energy_pj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use workloads::WorkProfile;

/// An analytical conventional-platform model.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformModel {
    /// Platform name.
    pub name: &'static str,
    /// Peak arithmetic throughput, operation slots per nanosecond.
    pub peak_ops_per_ns: f64,
    /// Device memory bandwidth, bytes per nanosecond.
    pub mem_bytes_per_ns: f64,
    /// Host→device link bandwidth, bytes per nanosecond (0 disables the
    /// transfer term — e.g. for the CPU, whose data is host-resident).
    pub pcie_bytes_per_ns: f64,
    /// Fixed overhead per kernel launch, nanoseconds.
    pub launch_overhead_ns: f64,
    /// Board/package power when fully utilized, watts.
    pub max_power_w: f64,
    /// Power when memory-bound / lightly utilized, watts.
    pub low_power_w: f64,
    /// Idle power while waiting (host transfers etc.), watts.
    pub idle_power_w: f64,
    /// System energy per byte staged host→device (host DRAM read + link +
    /// device DRAM write, wall-power), pJ/byte.
    pub transfer_pj_per_byte: f64,
}

/// Modeled execution of one workload on a conventional platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformRun {
    /// Total time, nanoseconds.
    pub time_ns: f64,
    /// Host→device transfer component, nanoseconds.
    pub transfer_ns: f64,
    /// Kernel execution component (roofline + launches), nanoseconds.
    pub kernel_ns: f64,
    /// Total energy, picojoules.
    pub energy_pj: f64,
    /// True when the kernel is compute-bound.
    pub compute_bound: bool,
}

impl PlatformModel {
    /// NVIDIA GeForce RTX 4090: ~82.6 TFLOP/s fp32, 1008 GB/s GDDR6X,
    /// PCIe 4.0 x16 (~32 GB/s), 450 W board power.
    pub fn rtx4090() -> Self {
        Self {
            name: "RTX 4090",
            peak_ops_per_ns: 82_600.0,
            mem_bytes_per_ns: 1008.0,
            pcie_bytes_per_ns: 32.0,
            launch_overhead_ns: 4_000.0,
            max_power_w: 450.0,
            low_power_w: 220.0,
            idle_power_w: 55.0,
            transfer_pj_per_byte: 300.0,
        }
    }

    /// 16-core Intel Xeon Gold 6544Y with the paper's Table III host
    /// memory (DDR3L, 64-bit bus): ~1.8 TFLOP/s peak, ~25.6 GB/s.
    pub fn xeon_gold_6544y() -> Self {
        Self {
            name: "Xeon Gold 6544Y",
            peak_ops_per_ns: 1_840.0,
            mem_bytes_per_ns: 25.6,
            pcie_bytes_per_ns: 0.0, // data is host-resident
            launch_overhead_ns: 500.0,
            max_power_w: 270.0,
            low_power_w: 120.0,
            idle_power_w: 40.0,
            transfer_pj_per_byte: 60.0, // host DRAM only
        }
    }

    /// Models a workload of `n` elements with the given profile.
    pub fn run(&self, profile: &WorkProfile, n: u64) -> PlatformRun {
        let n = n as f64;
        let total_ops = n * profile.ops_per_elem;
        let total_bytes = n * profile.bytes_per_elem;
        let compute_ns = total_ops / (self.peak_ops_per_ns * profile.gpu_efficiency.max(1e-3));
        let mem_ns = total_bytes / self.mem_bytes_per_ns;
        let kernel_ns =
            compute_ns.max(mem_ns) + profile.kernel_launches as f64 * self.launch_overhead_ns;
        let transfer_ns =
            if self.pcie_bytes_per_ns > 0.0 { total_bytes / self.pcie_bytes_per_ns } else { 0.0 };
        let time_ns = kernel_ns + transfer_ns;
        let compute_bound = compute_ns > mem_ns;
        // Power: interpolate between memory-bound and compute-bound levels
        // during the kernel; idle draw during host transfers.
        let util = if kernel_ns > 0.0 { (compute_ns / kernel_ns).min(1.0) } else { 0.0 };
        let kernel_power_w = self.low_power_w + (self.max_power_w - self.low_power_w) * util;
        let transfer_energy = if self.pcie_bytes_per_ns > 0.0 {
            total_bytes * self.transfer_pj_per_byte
        } else {
            0.0
        };
        // 1 W = 1000 pJ/ns. Transfers are charged per byte (device-level
        // accounting), not via idle board power.
        let energy_pj = kernel_ns * kernel_power_w * 1000.0 + transfer_energy;
        PlatformRun { time_ns, transfer_ns, kernel_ns, energy_pj, compute_bound }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming_profile() -> WorkProfile {
        WorkProfile {
            ops_per_elem: 1.0,
            bytes_per_elem: 24.0,
            kernel_launches: 1,
            gpu_efficiency: 0.9,
            avg_trip_count: 1.0,
        }
    }

    fn divergent_profile() -> WorkProfile {
        WorkProfile {
            ops_per_elem: 3000.0,
            bytes_per_elem: 16.0,
            kernel_launches: 1,
            gpu_efficiency: 0.3,
            avg_trip_count: 16.0,
        }
    }

    #[test]
    fn streaming_kernels_are_transfer_dominated_on_gpu() {
        let gpu = PlatformModel::rtx4090();
        let run = gpu.run(&streaming_profile(), 1 << 20);
        assert!(!run.compute_bound);
        assert!(
            run.transfer_ns > run.kernel_ns,
            "PCIe staging dominates for data-intensive streaming kernels"
        );
    }

    #[test]
    fn divergent_kernels_are_compute_bound() {
        let gpu = PlatformModel::rtx4090();
        let run = gpu.run(&divergent_profile(), 1 << 20);
        assert!(run.compute_bound);
        // Kernel time takes a much larger share than for streaming work.
        let streaming = gpu.run(&streaming_profile(), 1 << 20);
        assert!(run.kernel_ns / run.time_ns > streaming.kernel_ns / streaming.time_ns);
    }

    #[test]
    fn gpu_always_outperforms_cpu() {
        // The paper omits CPU results "as the GPU always outperforms the
        // CPU"; the models must agree for every evaluated profile shape.
        let gpu = PlatformModel::rtx4090();
        let cpu = PlatformModel::xeon_gold_6544y();
        for kernel in workloads::all_kernels() {
            let p = kernel.profile();
            let n = 1 << 22;
            let g = gpu.run(&p, n);
            let c = cpu.run(&p, n);
            assert!(
                g.time_ns < c.time_ns,
                "{}: GPU {} ns vs CPU {} ns",
                kernel.name(),
                g.time_ns,
                c.time_ns
            );
        }
    }

    #[test]
    fn energy_scales_with_time_and_utilization() {
        let gpu = PlatformModel::rtx4090();
        let small = gpu.run(&streaming_profile(), 1 << 16);
        let large = gpu.run(&streaming_profile(), 1 << 22);
        assert!(large.energy_pj > small.energy_pj);
        // A compute-bound run burns closer to max power per ns.
        let hot = gpu.run(&divergent_profile(), 1 << 20);
        let hot_w = hot.energy_pj / hot.time_ns;
        let cold_w = large.energy_pj / large.time_ns;
        assert!(hot_w > cold_w);
    }

    #[test]
    fn launch_overhead_visible_for_tiny_problems() {
        let gpu = PlatformModel::rtx4090();
        let run = gpu.run(&streaming_profile(), 16);
        assert!(run.kernel_ns >= gpu.launch_overhead_ns);
    }
}
