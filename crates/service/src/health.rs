//! Service health ladder and the operator-facing health report.
//!
//! Health is derived, not stored: the scheduler computes it from queue
//! occupancy, worker liveness, and a decaying count of recent fault
//! retries. Degradation is graceful and reversible:
//!
//! * **Degraded** — low-priority submissions are shed at admission and
//!   newly admitted jobs run one instruction per block (the conservative
//!   setting; lane results are identical by the conformance suite's
//!   tier-equivalence guarantee).
//! * **Critical** — everything below high priority is shed.
//!
//! When the pressure signal decays, the service returns to **Healthy**
//! with no operator action.

use std::fmt;

/// The three-state health ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Normal operation: all priorities admitted, multi-instruction blocks.
    Healthy,
    /// Under pressure: shed `Low`, run new jobs one instruction per block.
    Degraded,
    /// Overloaded or storm-struck: shed everything below `High`.
    Critical,
}

impl HealthState {
    /// Wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// Parses a wire tag.
    pub fn from_str_tag(s: &str) -> Option<Self> {
        match s {
            "healthy" => Some(HealthState::Healthy),
            "degraded" => Some(HealthState::Degraded),
            "critical" => Some(HealthState::Critical),
            _ => None,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Point-in-time operator view of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Current ladder state.
    pub state: HealthState,
    /// Jobs waiting in the admission queue (including backoff holds).
    pub queued: usize,
    /// Admission queue capacity.
    pub capacity: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Live worker threads.
    pub workers_alive: usize,
    /// Worker threads ever spawned (initial pool + respawns).
    pub workers_spawned: u64,
    /// Worker deaths observed (chaos kills).
    pub worker_deaths: u64,
    /// Cumulative transient-fault retries across all jobs.
    pub fault_retries: u64,
    /// Decaying recent fault-retry pressure (drives the ladder).
    pub recent_fault_retries: u32,
    /// Cumulative checkpoint preemptions.
    pub preemptions: u64,
    /// Submissions rejected by load shedding.
    pub shed: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with a typed error.
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_orders_and_tags_round_trip() {
        assert!(HealthState::Healthy < HealthState::Degraded);
        assert!(HealthState::Degraded < HealthState::Critical);
        for s in [HealthState::Healthy, HealthState::Degraded, HealthState::Critical] {
            assert_eq!(HealthState::from_str_tag(s.as_str()), Some(s));
        }
    }
}
