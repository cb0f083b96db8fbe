//! On-chip network model for inter-MPU messages.
//!
//! The paper integrates MASTODON with SST's cycle-accurate network modules;
//! we substitute a 2-D mesh model: MPUs sit on a √N × √N grid, messages
//! take XY routes, and latency is per-hop router delay plus payload
//! serialization over the link width. Energy is per byte per hop.

use crate::config::NocParams;

/// A 2-D mesh connecting `mpus` MPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshNoc {
    side: usize,
    params_hop_cycles: u64,
    params_link_bytes_per_cycle_milli: u64,
    params_pj_per_byte_hop_milli: u64,
}

impl MeshNoc {
    /// Builds a mesh big enough for `mpus` endpoints.
    pub fn new(mpus: usize, params: NocParams) -> Self {
        let side = (mpus.max(1) as f64).sqrt().ceil() as usize;
        Self {
            side: side.max(1),
            params_hop_cycles: params.hop_cycles,
            params_link_bytes_per_cycle_milli: (params.link_bytes_per_cycle * 1000.0) as u64,
            params_pj_per_byte_hop_milli: (params.pj_per_byte_hop * 1000.0) as u64,
        }
    }

    /// Mesh side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Manhattan hop count between two MPUs (minimum 1 for distinct MPUs).
    pub fn hops(&self, src: usize, dst: usize) -> u64 {
        if src == dst {
            return 0;
        }
        let (sx, sy) = (src % self.side, src / self.side);
        let (dx, dy) = (dst % self.side, dst / self.side);
        (sx.abs_diff(dx) + sy.abs_diff(dy)).max(1) as u64
    }

    /// Delivery latency in cycles for `bytes` from `src` to `dst`:
    /// per-hop router latency plus serialization of the payload.
    pub fn latency_cycles(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        let hops = self.hops(src, dst);
        if hops == 0 {
            return 0;
        }
        let link = self.params_link_bytes_per_cycle_milli.max(1);
        hops * self.params_hop_cycles + (bytes * 1000).div_ceil(link)
    }

    /// Transport energy in picojoules.
    pub fn energy_pj(&self, src: usize, dst: usize, bytes: u64) -> f64 {
        let hops = self.hops(src, dst) as f64;
        hops * bytes as f64 * self.params_pj_per_byte_hop_milli as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc(n: usize) -> MeshNoc {
        MeshNoc::new(n, NocParams::default())
    }

    #[test]
    fn mesh_side_covers_all_mpus() {
        assert_eq!(noc(1).side(), 1);
        assert_eq!(noc(4).side(), 2);
        assert_eq!(noc(497).side(), 23);
        assert!(noc(497).side() * noc(497).side() >= 497);
    }

    #[test]
    fn hops_are_manhattan() {
        let n = noc(16); // 4x4
        assert_eq!(n.hops(0, 0), 0);
        assert_eq!(n.hops(0, 1), 1);
        assert_eq!(n.hops(0, 5), 2); // (1,1)
        assert_eq!(n.hops(0, 15), 6); // (3,3)
    }

    #[test]
    fn latency_grows_with_distance_and_size() {
        let n = noc(16);
        assert!(n.latency_cycles(0, 15, 64) > n.latency_cycles(0, 1, 64));
        assert!(n.latency_cycles(0, 1, 4096) > n.latency_cycles(0, 1, 64));
        assert_eq!(n.latency_cycles(3, 3, 1 << 20), 0, "self-delivery is free");
    }

    #[test]
    fn energy_scales_with_bytes_and_hops() {
        let n = noc(16);
        let near = n.energy_pj(0, 1, 100);
        let far = n.energy_pj(0, 15, 100);
        assert!((far / near - 6.0).abs() < 1e-9);
        assert_eq!(n.energy_pj(2, 2, 100), 0.0);
    }
}
