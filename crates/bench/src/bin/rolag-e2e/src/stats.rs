//! Seeded randomness and order statistics.
//!
//! A local splitmix64 keeps the benchmark on the crates `rolag-bench`
//! already depends on; every draw the benchmark makes comes from it, so a
//! seed reproduces the same inputs on every machine.

/// The splitmix64 generator (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A zipf(s) stream of `len` draws over ranks `0..n` (rank `k` has
/// weight `1 / (k + 1)^s`) in which every rank occurs its expected number
/// of times, rounded by largest remainder, in an order `rng` shuffles.
/// Fixed counts keep the stream's mix the same for every seed.
pub fn zipf_stream(n: usize, s: f64, len: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = len - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        counts[k] += 1;
    }
    let mut stream: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    rng.shuffle(&mut stream);
    stream
}

/// Nearest-rank percentile (`pct` in `(0, 100]`); `0` for no samples.
pub fn percentile(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count); `0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Interquartile range over median: the run-to-run spread of `values`,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (its default, exclusive method). `None` for fewer than three
/// values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    let med = median(values);
    if n < 3 || med == 0.0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert!((spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
        assert_eq!(spread(&[3.0, 1.0, 2.0]), Some(1.0));
        // statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25].
        assert!((spread(&[10.0, 11.0, 13.0, 20.0]).unwrap() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        // 1,000 samples: p99 is the 990th smallest.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), 990);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn splitmix_matches_reference_values() {
        // First outputs for seed 0 of the reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn zipf_stream_is_deterministic_with_fixed_counts() {
        let draw = |seed| zipf_stream(400, 1.0, 1600, &mut SplitMix64::new(seed));
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8), "another seed, another order");
        assert_eq!(a.len(), 1600);
        let counts = |v: &[usize]| {
            let mut c = vec![0; 400];
            for &k in v {
                c[k] += 1;
            }
            c
        };
        assert_eq!(counts(&a), counts(&draw(8)), "every seed, the same mix");
        // Rank 0 carries 1/H(400) ~ 15.2% of the mass: 243.5 of 1,600.
        let c = counts(&a);
        assert!((243..=244).contains(&c[0]), "rank 0 drawn {} times", c[0]);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "counts fall with rank");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(3).shuffle(&mut a);
        SplitMix64::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
