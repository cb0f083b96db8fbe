//! On-chip network model for inter-MPU messages.
//!
//! The paper integrates MASTODON with SST's cycle-accurate network modules;
//! we substitute a 2-D mesh model: MPUs sit on a √N × √N grid, messages
//! take XY routes, and latency is per-hop router delay plus payload
//! serialization over the link width. Energy is per byte per hop.

use crate::config::NocParams;
use pum_backend::pj_to_fj;

/// A 2-D mesh connecting `mpus` MPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshNoc {
    side: usize,
    params_hop_cycles: u64,
    params_link_bytes_per_cycle_milli: u64,
    fj_per_byte_hop: u64,
}

impl MeshNoc {
    /// Builds a mesh big enough for `mpus` endpoints.
    pub fn new(mpus: usize, params: NocParams) -> Self {
        let side = (mpus.max(1) as f64).sqrt().ceil() as usize;
        Self {
            side: side.max(1),
            params_hop_cycles: params.hop_cycles,
            params_link_bytes_per_cycle_milli: (params.link_bytes_per_cycle * 1000.0) as u64,
            fj_per_byte_hop: pj_to_fj(params.pj_per_byte_hop),
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

    /// Transport energy in femtojoules.
    pub fn energy_fj(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        self.hops(src, dst) * bytes * self.fj_per_byte_hop
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
        let near = n.energy_fj(0, 1, 100);
        let far = n.energy_fj(0, 15, 100);
        assert_eq!(near, 100 * 800, "0.8 pJ per byte-hop");
        assert_eq!(far, 6 * near);
        assert_eq!(n.energy_fj(2, 2, 100), 0);
    }

    #[test]
    fn byte_hop_energy_rounds_to_the_nearest_femtojoule() {
        // 1.005 × 1000.0 is 1004.9999999999999 in f64; truncating it would
        // charge 1004 fJ per byte-hop.
        let params = NocParams { pj_per_byte_hop: 1.005, ..NocParams::default() };
        let n = MeshNoc::new(16, params);
        assert_eq!(n.energy_fj(0, 1, 1), 1005);
        assert_eq!(n.energy_fj(0, 15, 10), 6 * 10 * 1005);
    }
}
