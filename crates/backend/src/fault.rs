//! Seeded hardware fault models for bit-plane datapaths.
//!
//! Analog in-memory compute executes with non-trivial failure rates: DRAM
//! triple-row-activation majority votes fail when charge sharing lands too
//! close to the sense-amp threshold, ReRAM NOR pull-downs fail on drifted
//! cell resistances, and SRAM bitline logic suffers read upsets. Real PIM
//! parts additionally ship with dead bit-lines that software must route
//! around. [`FaultModel`] reproduces all three classes against a
//! [`crate::BitPlaneVrf`]:
//!
//! * **permanent stuck-at-0/1 bit-line lanes** — every plane write forces
//!   the faulty lane's bit to its stuck value;
//! * **transient per-micro-op bit-plane flips** — after each micro-op, one
//!   lane of the output plane may flip, with a per-[`MicroOpKind`]
//!   probability (so each technology's dominant failure mechanism can be
//!   weighted);
//! * **RFH register-write corruption** — a runtime register write (message
//!   delivery, transfer-block landing) may flip one bit of the written
//!   register.
//!
//! All randomness comes from a **counter-based PRNG** ([`FaultPrng`]):
//! draw *n* is a pure hash of `(seed, n)`, so any run is replayable — and
//! any individual injection re-derivable — from the `(seed, site)` pair
//! alone, independent of thread scheduling or host state.
//!
//! With no model attached (the default), every hook is a single
//! `Option::is_some` test: results are byte-identical to a build without
//! the fault layer.

use crate::microop::MicroOpKind;

/// SplitMix64 finalizer: a high-quality 64-bit mixing permutation.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A counter-based pseudorandom source: draw `site` is
/// `mix64(seed + site * GOLDEN)`, a pure function of `(seed, site)`.
///
/// Unlike a stateful generator, any draw can be reproduced in isolation,
/// which makes every injected fault replayable from its `(seed, site)`
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPrng {
    seed: u64,
    site: u64,
}

impl FaultPrng {
    /// Creates a source for `seed`, starting at site 0.
    pub fn new(seed: u64) -> Self {
        Self { seed, site: 0 }
    }

    /// Derives an independent stream seed from a parent seed and a salt
    /// (used to give every VRF and the NoC their own uncorrelated streams).
    pub fn derive(seed: u64, salt: u64) -> u64 {
        mix64(seed ^ mix64(salt.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }

    /// The value of draw `site` under `seed` — the pure replay function.
    pub fn at(seed: u64, site: u64) -> u64 {
        mix64(seed.wrapping_add(site.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Returns the next draw and advances the site counter.
    pub fn next_draw(&mut self) -> u64 {
        let v = Self::at(self.seed, self.site);
        self.site = self.site.wrapping_add(1);
        v
    }

    /// Number of draws made so far (the next draw's site).
    pub fn site(&self) -> u64 {
        self.site
    }

    /// The stream's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Converts a probability in `[0, 1]` to a 64-bit comparison threshold:
/// an event fires when a uniform draw is `< threshold`.
pub fn rate_to_threshold(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

/// A seeded hardware fault model attachable to one [`crate::BitPlaneVrf`]
/// (see the module docs for the fault taxonomy).
///
/// Probabilities are stored as fixed-point `u64` thresholds
/// ([`rate_to_threshold`]) so the model — and the VRF carrying it — keeps
/// a derived [`Eq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultModel {
    prng: FaultPrng,
    /// Per-[`MicroOpKind`] transient flip threshold, indexed by
    /// [`MicroOpKind::index`] (the order of [`MicroOpKind::ALL`]).
    thresholds: [u64; MicroOpKind::ALL.len()],
    /// RFH register-write corruption threshold.
    write_threshold: u64,
    /// Lanes whose writes are forced to 1 (stuck-at-1), packed per word.
    force_one: Vec<u64>,
    /// Lanes whose writes are forced to 0 (stuck-at-0 or power-gated),
    /// packed per word.
    force_zero: Vec<u64>,
    /// Transient flips and write corruptions that actually landed (a flip
    /// absorbed by a stuck/killed lane does not count).
    injected: u64,
}

impl FaultModel {
    /// Creates a fault-free model for a VRF with `lanes` lanes; arm it
    /// with [`FaultModel::set_transient_rate`] /
    /// [`FaultModel::set_write_corruption_rate`] /
    /// [`FaultModel::add_stuck_lane`].
    pub fn new(seed: u64, lanes: usize) -> Self {
        let words = lanes.div_ceil(64);
        Self {
            prng: FaultPrng::new(seed),
            thresholds: [0; MicroOpKind::ALL.len()],
            write_threshold: 0,
            force_one: vec![0; words],
            force_zero: vec![0; words],
            injected: 0,
        }
    }

    /// Sets the transient flip probability for one micro-op kind.
    pub fn set_transient_rate(&mut self, kind: MicroOpKind, rate: f64) {
        self.thresholds[kind.index()] = rate_to_threshold(rate);
    }

    /// Sets the probability that a runtime register write flips one bit.
    pub fn set_write_corruption_rate(&mut self, rate: f64) {
        self.write_threshold = rate_to_threshold(rate);
    }

    /// Declares `lane` permanently stuck at `value`.
    pub fn add_stuck_lane(&mut self, lane: usize, value: bool) {
        let (w, bit) = (lane / 64, 1u64 << (lane % 64));
        if value {
            self.force_one[w] |= bit;
            self.force_zero[w] &= !bit;
        } else {
            self.force_zero[w] |= bit;
            self.force_one[w] &= !bit;
        }
    }

    /// Power-gates `lane`: every plane write forces its bit to 0. Used by
    /// the remap controller to retire a lane discovered dead at boot.
    pub fn kill_lane(&mut self, lane: usize) {
        self.add_stuck_lane(lane, false);
    }

    /// True if any lane has a permanent forcing (stuck or killed).
    pub fn has_forced_lanes(&self) -> bool {
        self.force_one.iter().chain(&self.force_zero).any(|&w| w != 0)
    }

    /// Applies the permanent-lane forcing to one plane word.
    #[inline]
    pub(crate) fn force_word(&self, index: usize, word: u64) -> u64 {
        (word | self.force_one[index]) & !self.force_zero[index]
    }

    /// Draws the transient-flip decision for one executed micro-op of
    /// `kind`; on a hit, returns the lane whose output bit flips.
    #[inline]
    pub(crate) fn draw_flip(&mut self, kind: MicroOpKind, lanes: usize) -> Option<usize> {
        let threshold = self.thresholds[kind.index()];
        if threshold == 0 {
            return None;
        }
        if self.prng.next_draw() >= threshold {
            return None;
        }
        Some((self.prng.next_draw() % lanes as u64) as usize)
    }

    /// Draws the corruption decision for one runtime register write; on a
    /// hit, returns the `(lane, bit)` to flip.
    #[inline]
    pub(crate) fn draw_write_corruption(&mut self, lanes: usize) -> Option<(usize, u8)> {
        if self.write_threshold == 0 {
            return None;
        }
        if self.prng.next_draw() >= self.write_threshold {
            return None;
        }
        let lane = (self.prng.next_draw() % lanes as u64) as usize;
        let bit = (self.prng.next_draw() % 64) as u8;
        Some((lane, bit))
    }

    /// Records one landed fault.
    #[inline]
    pub(crate) fn note_injected(&mut self) {
        self.injected += 1;
    }

    /// Faults that actually landed so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Returns and resets the landed-fault counter (the simulator drains
    /// it into its statistics).
    pub fn take_injected(&mut self) -> u64 {
        std::mem::take(&mut self.injected)
    }

    /// The PRNG site counter (draws made so far) — with the seed, enough
    /// to replay the fault sequence exactly.
    pub fn site(&self) -> u64 {
        self.prng.site()
    }

    /// The model's stream seed.
    pub fn seed(&self) -> u64 {
        self.prng.seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_counter_based_and_replayable() {
        let mut p = FaultPrng::new(42);
        let draws: Vec<u64> = (0..8).map(|_| p.next_draw()).collect();
        assert_eq!(p.site(), 8);
        // Every draw is re-derivable from (seed, site) alone.
        for (site, &v) in draws.iter().enumerate() {
            assert_eq!(FaultPrng::at(42, site as u64), v);
        }
        // Distinct seeds give distinct streams.
        assert_ne!(FaultPrng::at(42, 0), FaultPrng::at(43, 0));
        assert_ne!(FaultPrng::derive(1, 2), FaultPrng::derive(1, 3));
    }

    #[test]
    fn thresholds_cover_the_unit_interval() {
        assert_eq!(rate_to_threshold(0.0), 0);
        assert_eq!(rate_to_threshold(-1.0), 0);
        assert_eq!(rate_to_threshold(1.0), u64::MAX);
        assert_eq!(rate_to_threshold(2.0), u64::MAX);
        let half = rate_to_threshold(0.5);
        assert!(half > u64::MAX / 4 && half < 3 * (u64::MAX / 4));
    }

    #[test]
    fn zero_rate_never_fires_and_never_draws() {
        let mut m = FaultModel::new(7, 64);
        for kind in MicroOpKind::ALL {
            assert_eq!(m.draw_flip(kind, 64), None);
        }
        assert_eq!(m.draw_write_corruption(64), None);
        assert_eq!(m.site(), 0, "zero-rate paths must not consume sites");
    }

    #[test]
    fn certain_rate_always_fires_within_lanes() {
        let mut m = FaultModel::new(7, 100);
        m.set_transient_rate(MicroOpKind::Nor, 1.0);
        m.set_write_corruption_rate(1.0);
        for _ in 0..32 {
            let lane = m.draw_flip(MicroOpKind::Nor, 100).expect("must fire");
            assert!(lane < 100);
        }
        let (lane, bit) = m.draw_write_corruption(100).expect("must fire");
        assert!(lane < 100 && bit < 64);
        // Other kinds stay silent.
        assert_eq!(m.draw_flip(MicroOpKind::Copy, 100), None);
    }

    #[test]
    fn stuck_lane_forcing_composes() {
        let mut m = FaultModel::new(0, 128);
        m.add_stuck_lane(3, true);
        m.add_stuck_lane(65, false);
        assert!(m.has_forced_lanes());
        assert_eq!(m.force_word(0, 0), 1 << 3);
        assert_eq!(m.force_word(1, u64::MAX), !(1 << 1));
        // Re-declaring a lane with the other polarity replaces it.
        m.add_stuck_lane(3, false);
        assert_eq!(m.force_word(0, u64::MAX), !(1 << 3));
        m.kill_lane(65); // idempotent with stuck-at-0
        assert_eq!(m.force_word(1, u64::MAX), !(1 << 1));
    }

    #[test]
    fn injected_counter_drains() {
        let mut m = FaultModel::new(0, 64);
        m.note_injected();
        m.note_injected();
        assert_eq!(m.injected(), 2);
        assert_eq!(m.take_injected(), 2);
        assert_eq!(m.injected(), 0);
    }
}
