//! Result accumulation: attempt/failure accounting, named metrics with
//! units, order statistics, and the one-line JSON result.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// First few failure descriptions (echoed on stderr).
    errors: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Counts one checked output; a false `ok` is a failure described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Records a metric; a later call with the same name replaces it.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records an exact count.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.metric(name, value as f64, "count");
    }

    /// Failure descriptions gathered so far.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Failures over attempts (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Records 0 for `name` unless it was measured: a layer the workload
    /// does not exercise.
    pub fn default_metric(&mut self, name: &str, unit: &'static str) {
        self.metrics.entry(name.to_string()).or_insert((0.0, unit));
    }

    /// Renders the result line with exactly the `(name, unit)` metrics in
    /// `keep`, every one of which must have been recorded in that unit.
    pub fn render(&self, keep: &[(&str, &str)]) -> Result<String, String> {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, want_unit)) in keep.iter().enumerate() {
            let (value, unit) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() || *unit != want_unit {
                return Err(format!(
                    "metric `{name}` reads {value} {unit}, want a finite {want_unit}"
                ));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Nearest-rank quantile `q` (0..=1) of `samples`; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Time of the host reference on an idle host of the kind the ledger is
/// kept on (2-vCPU Intel Xeon at 2.1 GHz); it only sets the scale of
/// reported times.
const REFERENCE_NOMINAL_S: f64 = 0.013;

/// How fast the shared host is running, read from a fixed memory-bound
/// reference loop that belongs to the benchmark.
///
/// On a shared 2-vCPU Intel Xeon VM, other tenants' cache and memory
/// traffic switches the host between speed regimes, up to 1.9x apart and
/// lasting seconds to minutes, and it slows cache- and memory-bound code
/// (the simulator, this loop) while leaving pure ALU loops alone. Timed
/// units are divided by the mean of the readings taken just before and
/// just after them (see [`UnitTimes`]), so reported times are seconds at
/// the nominal host speed. The loop never calls into the simulator, so a
/// change to the simulator cannot move it.
#[derive(Default)]
pub struct HostSpeed {
    factors: Vec<f64>,
}

impl HostSpeed {
    /// Runs the reference once and returns its slowdown against nominal.
    // The streaming loop writes one plane while reading two others, which
    // only indexing can express; rewriting it would also move the nominal.
    #[allow(clippy::needless_range_loop)]
    pub fn sample(&mut self) -> f64 {
        // Bit-plane style streaming over 2 MB, like a VRF operation.
        let lanes = 32 * 1024;
        let mut planes: Vec<Vec<u64>> = (0..8u64)
            .map(|p| (0..lanes as u64).map(|i| i.wrapping_mul(31) ^ p).collect())
            .collect();
        let start = Instant::now();
        for round in 0..60 {
            let (a, b, c) = (round % 8, (round + 3) % 8, (round + 5) % 8);
            for i in 0..lanes {
                let v = planes[b][i] ^ (planes[c][i] & !planes[a][i]);
                planes[a][i] = v.rotate_left(1);
            }
        }
        // Hash-map churn, like the simulator's memo and register lookups.
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut x = 1u64;
        for i in 0..400_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            *map.entry(x % 50_000).or_insert(0) += i;
        }
        let took = start.elapsed().as_secs_f64();
        black_box((&planes, &map));
        let factor = took / REFERENCE_NOMINAL_S;
        self.factors.push(factor);
        factor
    }

    /// Median slowdown over the run's samples.
    pub fn factor(&self) -> f64 {
        median(&self.factors)
    }
}

/// Longest stretch of timed units between two host readings in a pass
/// that polls (see [`UnitTimes::poll`]). A reading costs ~15-25 ms, and a
/// regime switch inside a stretch skews only that stretch's units.
const HOST_EVERY: Duration = Duration::from_millis(150);

/// Per-unit wall times gathered over repeated passes of a fixed list of
/// units (kernel tasks, pipeline runs, chunks of service jobs), each
/// divided by the host factor around it (see [`HostSpeed`]).
///
/// Each unit's median over the run's passes estimates its cost, and
/// summing them over the list estimates one pass.
pub struct UnitTimes {
    times: Vec<Vec<f64>>,
    passes: Vec<f64>,
    /// Units timed since the last host reading, not yet divided.
    pending: Vec<(usize, f64)>,
    /// The last host reading and when it ended.
    last: (f64, Instant),
    /// Time the pass in progress spent reading the host.
    reading: Duration,
}

impl UnitTimes {
    /// Empty record for `units` units.
    pub fn new(units: usize) -> Self {
        UnitTimes {
            times: vec![Vec::new(); units],
            passes: Vec::new(),
            pending: Vec::new(),
            last: (1.0, Instant::now()),
            reading: Duration::ZERO,
        }
    }

    /// Starts a pass, reading the host first.
    pub fn begin(&mut self, host: &mut HostSpeed) {
        self.last = (host.sample(), Instant::now());
        self.reading = Duration::ZERO;
    }

    /// Records one unit's wall time in the pass in progress.
    pub fn unit(&mut self, index: usize, took: Duration) {
        self.pending.push((index, took.as_secs_f64()));
    }

    /// Reads the host again if `HOST_EVERY` has passed since the last
    /// reading. Call it between units of a pass that may stall there.
    pub fn poll(&mut self, host: &mut HostSpeed) {
        if self.last.1.elapsed() >= HOST_EVERY {
            self.read(host);
        }
    }

    /// Reads the host and files the pending units, each divided by the
    /// mean of this reading and the previous one.
    fn read(&mut self, host: &mut HostSpeed) {
        let start = Instant::now();
        let factor = host.sample();
        let mean = (self.last.0 + factor) / 2.0;
        for (index, t) in self.pending.drain(..) {
            self.times[index].push(t / mean);
        }
        self.last = (factor, Instant::now());
        self.reading += start.elapsed();
    }

    /// Ends the pass, reading the host once more. `took` is the pass's
    /// wall time; the time spent reading the host inside it is taken out,
    /// and the rest is kept as measured.
    pub fn end(&mut self, took: Duration, host: &mut HostSpeed) {
        self.read(host);
        self.passes.push(took.saturating_sub(self.reading).as_secs_f64());
    }

    /// Passes recorded.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Each unit's median time, in unit order.
    pub fn unit_estimates(&self) -> Vec<f64> {
        self.times.iter().map(|t| median(t)).collect()
    }

    /// Estimated pass: the sum of the unit estimates.
    pub fn pass_estimate(&self) -> f64 {
        self.unit_estimates().iter().sum()
    }

    /// Plain median of the whole-pass wall times, as measured.
    pub fn pass_median(&self) -> f64 {
        median(&self.passes)
    }
}

/// Set-ups timed back to back at each point a run samples set-up.
const SETUP_REPS: usize = 3;

/// Times `SETUP_REPS` set-ups with `setup` between two host readings and
/// appends their times, divided by the readings' mean, to `setups`;
/// `setup_s` is the median of a run's samples.
pub fn sample_setup<T>(setups: &mut Vec<f64>, host: &mut HostSpeed, setup: impl Fn() -> T) {
    let before = host.sample();
    let took: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let (out, took) = timed(&setup);
            black_box(out);
            took.as_secs_f64()
        })
        .collect();
    let factor = (before + host.sample()) / 2.0;
    setups.extend(took.iter().map(|t| t / factor));
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.25), 25.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn render_requires_every_kept_metric() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("a_s", 1.5, "s");
        assert!(r.render(&[("a_s", "s"), ("b_s", "s")]).is_err());
        assert!(r.render(&[("a_s", "ms")]).is_err());
        let line = r.render(&[("a_s", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
