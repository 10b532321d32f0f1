//! Statistics and seeded input generation shared by every workload.

/// SplitMix64: a tiny seeded generator. The benchmark seed only shapes
/// inputs (app order, request mix, request seeds), so the same seed must
/// give the same sequence on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A discrete distribution over `items`, drawn by weight.
#[derive(Debug, Clone)]
pub struct Mix<T> {
    items: Vec<T>,
    cumulative: Vec<f64>,
}

impl<T: Clone> Mix<T> {
    /// `weights` need not be normalised; they are scaled to sum to 1.
    pub fn new(weighted: Vec<(T, f64)>) -> Mix<T> {
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        assert!(total > 0.0, "a mix needs positive weight");
        let mut acc = 0.0;
        let mut items = Vec::with_capacity(weighted.len());
        let mut cumulative = Vec::with_capacity(weighted.len());
        for (item, w) in weighted {
            acc += w / total;
            items.push(item);
            cumulative.push(acc);
        }
        Mix { items, cumulative }
    }

    /// The normalised weight of each item, in order.
    #[cfg(test)]
    pub fn weights(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cumulative
            .iter()
            .map(|&c| {
                let w = c - prev;
                prev = c;
                w
            })
            .collect()
    }

    pub fn draw(&self, rng: &mut Rng) -> T {
        let u = rng.unit();
        let i = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.items.len() - 1);
        self.items[i].clone()
    }
}

/// Zipf(s = 1) over `items` in the given order: item k (1-based) has
/// weight 1/k.
pub fn zipf<T: Clone>(items: &[T]) -> Mix<T> {
    Mix::new(
        items
            .iter()
            .enumerate()
            .map(|(k, item)| (item.clone(), 1.0 / (k + 1) as f64))
            .collect(),
    )
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    v
}

/// Linear-interpolated quantile of sorted, non-empty data.
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(quantile_sorted(&sorted(xs), 0.5))
    }
}

pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// A tail percentile (`p` in `(0.5, 1)`), or `None` unless at least ten
/// samples lie beyond it — fewer would make it the reading of a handful
/// of outliers.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    // The epsilon keeps 100 samples at p90 from rounding down to 9.99...
    let beyond = (xs.len() as f64 * (1.0 - p) + 1e-9).floor();
    if beyond < 10.0 {
        None
    } else {
        Some(quantile_sorted(&sorted(xs), p))
    }
}

/// First and third quartile, as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method), so spreads printed
/// here match the acceptance check made on the same numbers.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    if m == 0.0 {
        None
    } else {
        Some((q3 - q1) / m.abs())
    }
}

pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        None
    } else {
        Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs, 0.9),
            None,
            "99 samples leave 9 beyond p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = tail_percentile(&xs, 0.9).expect("100 samples leave 10 beyond p90");
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
        assert_eq!(tail_percentile(&xs, 0.95), None);
        assert!(tail_percentile(&(0..200).map(f64::from).collect::<Vec<_>>(), 0.95).is_some());
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        let share = iqr_share(&xs).unwrap();
        assert!((share - 5.5 / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mix = Mix::new(vec![("a", 0.5), ("b", 0.3), ("c", 0.2)]);
            (0..64).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let order = |seed| {
            let mut v: Vec<u32> = (0..12).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }

    #[test]
    fn mix_weights_sum_to_one() {
        let mix = Mix::new(vec![("x", 5.0), ("y", 1.0), ("z", 4.0)]);
        let w = mix.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.5).abs() < 1e-12);
        let z = zipf(&[1, 2, 3, 4]);
        assert!((z.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            z.weights().windows(2).all(|p| p[0] > p[1]),
            "Zipf weights fall"
        );
    }

    #[test]
    fn mix_draws_follow_weights() {
        let mix = Mix::new(vec![(0usize, 0.8), (1usize, 0.2)]);
        let mut rng = Rng::new(1);
        let n = 20_000;
        let ones = (0..n).filter(|_| mix.draw(&mut rng) == 1).count();
        let share = ones as f64 / n as f64;
        assert!((share - 0.2).abs() < 0.02, "{share}");
    }
}
