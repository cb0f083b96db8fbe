//! Execution statistics: cycle and energy accounting with the breakdowns
//! the paper's figures report (Fig. 12/13 totals, Fig. 15 time breakdown).

use std::ops::AddAssign;

/// Energy accounting, whole femtojoules. The ledger is integer so every
/// charge commutes: any order of the same charges gives the same totals.
/// Picojoules appear only at the reporting edge ([`Self::total_pj`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyStats {
    /// Micro-op energy in the memory arrays.
    pub datapath_fj: u64,
    /// MPU front-end (control path) energy.
    pub frontend_fj: u64,
    /// Intra-MPU and inter-MPU data movement energy.
    pub transfer_fj: u64,
    /// Off-chip bus energy for Baseline offloads.
    pub offload_bus_fj: u64,
    /// Host CPU energy (active during offloads + idle during PUM compute;
    /// Baseline mode only).
    pub cpu_fj: u64,
}

impl EnergyStats {
    /// Total energy, fJ.
    pub fn total_fj(&self) -> u64 {
        self.datapath_fj + self.frontend_fj + self.transfer_fj + self.offload_bus_fj + self.cpu_fj
    }

    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.total_fj() as f64 / 1.0e3
    }
}

impl AddAssign for EnergyStats {
    fn add_assign(&mut self, rhs: Self) {
        self.datapath_fj += rhs.datapath_fj;
        self.frontend_fj += rhs.frontend_fj;
        self.transfer_fj += rhs.transfer_fj;
        self.offload_bus_fj += rhs.offload_bus_fj;
        self.cpu_fj += rhs.cpu_fj;
    }
}

/// Fault-injection and recovery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient bit-plane flips and register-write corruptions that
    /// actually landed (flips absorbed by forced lanes don't count).
    pub injected: u64,
    /// Faults detected by redundancy comparison (DMR mismatch / TMR vote).
    pub detected: u64,
    /// Faults corrected in place (DMR retry success / TMR majority).
    pub corrected: u64,
    /// DMR retry rounds executed after a mismatch.
    pub retries: u64,
    /// Extra redundant executions beyond the first (2× for DMR, 3× for
    /// TMR, plus retries).
    pub redundant_runs: u64,
    /// Compute ensembles rolled back to their checkpoint and restarted.
    pub ensemble_restarts: u64,
    /// Lanes found dead by the boot self-test (power-gated).
    pub dead_lanes: u64,
    /// Logical lanes relocated to a different physical lane by remapping.
    pub remapped_lanes: u64,
    /// Logical lanes lost because dead lanes exceeded the spares
    /// (graceful degradation: reduced occupancy).
    pub lanes_lost: u64,
    /// NoC messages dropped in flight.
    pub messages_dropped: u64,
    /// NoC messages delivered with a corrupted payload.
    pub messages_corrupted: u64,
    /// NoC retransmissions issued by the retry policy.
    pub retransmissions: u64,
}

impl AddAssign for FaultStats {
    fn add_assign(&mut self, rhs: Self) {
        self.injected += rhs.injected;
        self.detected += rhs.detected;
        self.corrected += rhs.corrected;
        self.retries += rhs.retries;
        self.redundant_runs += rhs.redundant_runs;
        self.ensemble_restarts += rhs.ensemble_restarts;
        self.dead_lanes += rhs.dead_lanes;
        self.remapped_lanes += rhs.remapped_lanes;
        self.lanes_lost += rhs.lanes_lost;
        self.messages_dropped += rhs.messages_dropped;
        self.messages_corrupted += rhs.messages_corrupted;
        self.retransmissions += rhs.retransmissions;
    }
}

/// Full statistics for one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Total elapsed cycles (1 GHz → cycles == nanoseconds).
    pub cycles: u64,
    /// Cycles issuing micro-ops (the Fig. 15 "MPU computation" component).
    pub compute_cycles: u64,
    /// Cycles in control-path work: masks, EFI evaluations, jumps,
    /// ensemble markers, recipe misses, playback refills.
    pub control_cycles: u64,
    /// Cycles moving data on-chip (transfer ensembles + NoC; the Fig. 15
    /// "inter-MPU communication" component).
    pub transfer_cycles: u64,
    /// Cycles stalled on host-CPU offloads (the Fig. 15 "off-chip
    /// communication" component; Baseline only).
    pub offload_cycles: u64,
    /// ISA instructions executed (dynamic count).
    pub instructions: u64,
    /// Micro-ops issued to the datapath.
    pub uops: u64,
    /// Micro-ops the recipe optimizer removed from issued recipes (the
    /// work that *would* have been issued had synthesis templates run
    /// unoptimized; see `pum_backend::opt`).
    pub uops_saved: u64,
    /// Host offload events (Baseline only).
    pub offload_events: u64,
    /// Recipe-table (template lookup) hits.
    pub recipe_hits: u64,
    /// Recipe-table misses.
    pub recipe_misses: u64,
    /// Scheduler waves replayed due to per-RFH activation limits.
    pub scheduler_waves: u64,
    /// Inter-MPU messages sent.
    pub messages_sent: u64,
    /// Bytes moved between MPUs.
    pub noc_bytes: u64,
    /// Fault-injection and recovery accounting.
    pub faults: FaultStats,
    /// Energy breakdown.
    pub energy: EnergyStats,
}

impl Stats {
    /// Elapsed wall-clock time in nanoseconds (1 GHz clock).
    pub fn time_ns(&self) -> f64 {
        self.cycles as f64
    }

    /// Elapsed time in microseconds.
    pub fn time_us(&self) -> f64 {
        self.cycles as f64 / 1000.0
    }

    /// The Fig. 15 execution-time breakdown as fractions
    /// `(compute, inter-MPU, off-chip)` of the summed per-MPU activity
    /// (front-end control cycles count toward compute). Normalizing by the
    /// component sum keeps multi-MPU aggregates (where counters add but
    /// elapsed time is a max) on a 100% scale.
    pub fn time_breakdown(&self) -> (f64, f64, f64) {
        let compute = (self.compute_cycles + self.control_cycles) as f64;
        let total = (compute + self.transfer_cycles as f64 + self.offload_cycles as f64).max(1.0);
        (compute / total, self.transfer_cycles as f64 / total, self.offload_cycles as f64 / total)
    }

    /// Recipe-cache hit rate in `[0, 1]` (1.0 when no lookups happened).
    pub fn recipe_hit_rate(&self) -> f64 {
        let lookups = self.recipe_hits + self.recipe_misses;
        if lookups == 0 {
            1.0
        } else {
            self.recipe_hits as f64 / lookups as f64
        }
    }

    /// Merges per-MPU statistics for sequential sections (cycles add).
    pub fn merge_sequential(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.accumulate_counters(other);
    }

    /// Merges per-MPU statistics for parallel sections (elapsed time is the
    /// max; work counters and energy add).
    pub fn merge_parallel(&mut self, other: &Stats) {
        self.cycles = self.cycles.max(other.cycles);
        self.accumulate_counters(other);
    }

    fn accumulate_counters(&mut self, other: &Stats) {
        self.compute_cycles += other.compute_cycles;
        self.control_cycles += other.control_cycles;
        self.transfer_cycles += other.transfer_cycles;
        self.offload_cycles += other.offload_cycles;
        self.instructions += other.instructions;
        self.uops += other.uops;
        self.uops_saved += other.uops_saved;
        self.offload_events += other.offload_events;
        self.recipe_hits += other.recipe_hits;
        self.recipe_misses += other.recipe_misses;
        self.scheduler_waves += other.scheduler_waves;
        self.messages_sent += other.messages_sent;
        self.noc_bytes += other.noc_bytes;
        self.faults += other.faults;
        self.energy += other.energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_fractions_sum_to_at_most_one() {
        let s = Stats {
            cycles: 100,
            compute_cycles: 50,
            control_cycles: 10,
            transfer_cycles: 20,
            offload_cycles: 20,
            ..Stats::default()
        };
        let (c, t, o) = s.time_breakdown();
        assert!((c + t + o - 1.0).abs() < 1e-9);
        assert!((c - 0.6).abs() < 1e-9);
        assert!((o - 0.2).abs() < 1e-9);
    }

    #[test]
    fn merge_parallel_takes_max_time_and_sums_energy() {
        let mut a = Stats { cycles: 100, ..Stats::default() };
        a.energy.datapath_fj = 5;
        let mut b = Stats { cycles: 70, ..Stats::default() };
        b.energy.datapath_fj = 7;
        a.merge_parallel(&b);
        assert_eq!(a.cycles, 100);
        assert_eq!(a.energy.datapath_fj, 12);
    }

    #[test]
    fn merge_sequential_adds_time() {
        let mut a = Stats { cycles: 100, ..Stats::default() };
        let b = Stats { cycles: 70, ..Stats::default() };
        a.merge_sequential(&b);
        assert_eq!(a.cycles, 170);
    }

    #[test]
    fn hit_rate_defaults_to_one_without_lookups() {
        assert_eq!(Stats::default().recipe_hit_rate(), 1.0);
        let s = Stats { recipe_hits: 3, recipe_misses: 1, ..Stats::default() };
        assert!((s.recipe_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn energy_totals() {
        let e = EnergyStats {
            datapath_fj: 1000,
            frontend_fj: 2000,
            transfer_fj: 3000,
            offload_bus_fj: 4000,
            cpu_fj: 5001,
        };
        assert_eq!(e.total_fj(), 15_001);
        assert_eq!(e.total_pj(), 15.001);
    }
}
