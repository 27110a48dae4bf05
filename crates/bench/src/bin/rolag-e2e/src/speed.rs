//! Machine-speed calibration.
//!
//! On a shared machine the CPU a run is pinned to changes speed by up to
//! 1.6x for tens of seconds at a time, as other tenants load the host:
//! longer than a run, so no choice of sample within a run removes it. The
//! benchmark therefore times a fixed reference computation between timed
//! intervals, at most once every [`STALE`], and scales each interval by
//! how fast the reference ran around it: a timing reads what it would
//! have at the reference's nominal speed. The reference is the
//! benchmark's own code and calls nothing in the program under test, so a
//! change to the program cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{median, SplitMix64};

/// Duration of one [`reference`] call at the nominal speed: its usual
/// reading on the 2-vCPU x86-64 machine the baseline was measured on,
/// when that machine runs at its fast speed.
const NOMINAL_NS: f64 = 95_000.0;
/// Reference calls per sample; the sample is the fastest, so a cold cache
/// or an interrupt during one call does not read as a slow machine.
const CALLS: usize = 6;
/// A sample older than this is taken again before the next interval.
const STALE: Duration = Duration::from_millis(50);
/// An interval is scaled by the median of the samples taken while it ran
/// or within this long of it.
const WINDOW_NS: u64 = 200_000_000;

/// A fixed computation shaped like compiler work: format names, insert
/// them into an ordered map, sort them, and walk the map.
fn reference() -> u64 {
    let mut rng = SplitMix64::new(0x5eed);
    let names: Vec<String> = (0..384)
        .map(|_| format!("%v{}.{}", rng.below(4096), rng.below(8)))
        .collect();
    let mut map: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, n) in names.iter().enumerate() {
        *map.entry(n.as_str()).or_default() += i as u64;
    }
    let mut sorted: Vec<&String> = names.iter().collect();
    sorted.sort_unstable();
    let walk = map.iter().fold(0u64, |acc, (k, v)| {
        acc.rotate_left(5) ^ (k.len() as u64 + v)
    });
    walk ^ sorted[sorted.len() / 2].len() as u64
}

/// Reference samples over a run.
#[derive(Debug)]
pub struct Speed {
    epoch: Instant,
    /// (nanoseconds since `epoch`, fastest reference call) per sample, in
    /// time order.
    samples: Vec<(u64, u64)>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed {
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Speed {
    /// Nanoseconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Samples the reference unless the last sample is under [`STALE`]
    /// old. Call it between timed intervals, never inside one.
    pub fn refresh(&mut self) {
        let now = self.at(Instant::now());
        if self
            .samples
            .last()
            .is_some_and(|&(t, _)| now - t < STALE.as_nanos() as u64)
        {
            return;
        }
        self.sample();
    }

    fn sample(&mut self) {
        let best = (0..CALLS)
            .map(|_| {
                let start = Instant::now();
                black_box(reference());
                start.elapsed().as_nanos() as u64
            })
            .min()
            .expect("at least one call");
        let at = self.at(Instant::now());
        self.samples.push((at, best));
    }

    /// `ns` measured from `start` (nanoseconds since the epoch), at the
    /// nominal speed: scaled by the median reference time of the samples
    /// within [`WINDOW_NS`] of the interval, or by the nearest sample if
    /// none is. Unscaled without samples.
    pub fn scale(&self, start: u64, ns: u64) -> u64 {
        let (lo, hi) = (start.saturating_sub(WINDOW_NS), start + ns + WINDOW_NS);
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(t, _)| (lo..=hi).contains(&t))
            .map(|&(_, r)| r as f64)
            .collect();
        let reference = if near.is_empty() {
            match self
                .samples
                .iter()
                .min_by_key(|&&(t, _)| t.abs_diff(start + ns / 2))
            {
                Some(&(_, r)) => r as f64,
                None => return ns,
            }
        } else {
            median(&near)
        };
        (ns as f64 * NOMINAL_NS / reference) as u64
    }

    /// Seconds `f` took, at the nominal speed, with a sample right before
    /// and right after it.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        self.sample();
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.sample();
        let scaled = self.scale(self.at(start), ns);
        (r, scaled as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_reference_samples_around_them() {
        let nominal = NOMINAL_NS as u64;
        let mut speed = Speed::default();
        assert_eq!(speed.scale(0, 1000), 1000, "no samples: unscaled");
        // The machine at the nominal speed for a second, then at half of it.
        let ms = 1_000_000;
        for t in (0..1000).step_by(50) {
            speed.samples.push((t * ms, nominal));
        }
        for t in (1000..3000).step_by(50) {
            speed.samples.push((t * ms, 2 * nominal));
        }
        assert_eq!(speed.scale(100 * ms, 1000), 1000);
        assert_eq!(speed.scale(2000 * ms, 1000), 500);
        // Past the last sample: the nearest one.
        assert_eq!(speed.scale(9000 * ms, 1000), 500);
    }

    #[test]
    fn timing_takes_samples_around_the_interval() {
        let mut speed = Speed::default();
        let (value, secs) = speed.time(|| 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert_eq!(speed.samples.len(), 2);
        speed.refresh();
        assert_eq!(speed.samples.len(), 2, "a fresh sample is kept");
    }
}
