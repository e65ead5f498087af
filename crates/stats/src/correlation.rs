//! Exact correlation matrix over a fixed set of jointly observed integer
//! series.
//!
//! Table VI of the paper is the matrix of correlations between a message's
//! waiting times at stages 1..8 of a `k = 2`, `p = 0.5`, `m = 1` network.
//! Each message that traverses all stages contributes one joint
//! observation vector of integer waits.
//!
//! The estimator keeps exact integer sums `Σxᵢ`, `Σxᵢ²` and `Σxᵢxⱼ`, so
//! it is independent of the order observations arrive in and merging is
//! plain addition. A covariance is the exact `i128` numerator
//! `n·Σxy − Σx·Σy`, divided once when read.

/// Exact estimator of the full pairwise covariance/correlation matrix of
/// a `d`-dimensional integer observation vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorrelationMatrix {
    dim: usize,
    n: u64,
    /// Per-coordinate `Σxᵢ`.
    sums: Vec<u128>,
    /// Packed upper triangle *including* the diagonal, row-major:
    /// `Σxᵢxⱼ` for `i ≤ j` (the diagonal holds `Σxᵢ²`).
    products: Vec<u128>,
}

impl CorrelationMatrix {
    /// Creates an estimator for `dim`-dimensional observations.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        CorrelationMatrix {
            dim,
            n: 0,
            sums: vec![0; dim],
            products: vec![0; dim * (dim + 1) / 2],
        }
    }

    /// Dimension of the observation vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of observation vectors seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    fn product_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.dim);
        // Row r holds dim − r entries, so row i starts at
        // Σ_{r<i} (dim − r) = i·(2·dim − i + 1)/2.
        i * (2 * self.dim - i + 1) / 2 + (j - i)
    }

    /// Adds one joint observation. `obs.len()` must equal `dim`.
    pub fn push(&mut self, obs: &[u32]) {
        assert_eq!(obs.len(), self.dim, "observation dimension mismatch");
        self.n += 1;
        let mut idx = 0;
        for (i, &x) in obs.iter().enumerate() {
            let x = u64::from(x);
            self.sums[i] += u128::from(x);
            for &y in &obs[i..] {
                self.products[idx] += u128::from(x * u64::from(y));
                idx += 1;
            }
        }
    }

    /// The exact covariance numerator `n·Σxᵢxⱼ − Σxᵢ·Σxⱼ` (`n²` times
    /// the population covariance).
    ///
    /// # Panics
    /// Panics if a term exceeds `i128`, which takes more than about 2³¹
    /// observations of values near `u32::MAX`.
    fn co_numerator(&self, i: usize, j: usize) -> i128 {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let term = |v: Option<u128>| {
            v.and_then(|v| i128::try_from(v).ok())
                .expect("covariance numerator exceeds i128")
        };
        let nxy = term(u128::from(self.n).checked_mul(self.products[self.product_index(i, j)]));
        nxy - term(self.sums[i].checked_mul(self.sums[j]))
    }

    /// Population covariance between coordinates `i` and `j` (variance
    /// on the diagonal); `0.0` with fewer than two observations.
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        self.co_numerator(i, j) as f64 / (n * n)
    }

    /// Pearson correlation between coordinates `i` and `j`, in `[-1, 1]`
    /// (1.0 on the diagonal, 0.0 when either coordinate is constant).
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        if self.n < 2 {
            return 0.0;
        }
        let denom = (self.co_numerator(i, i) as f64 * self.co_numerator(j, j) as f64).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (self.co_numerator(i, j) as f64 / denom).clamp(-1.0, 1.0)
        }
    }

    /// Variance of the coordinate sum, `Σ_i Σ_j cov(i, j)` — this is the
    /// quantity §V approximates with the geometric covariance model.
    pub fn sum_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut num = 0i128;
        for i in 0..self.dim {
            num += self.co_numerator(i, i);
            for j in (i + 1)..self.dim {
                num += 2 * self.co_numerator(i, j);
            }
        }
        let n = self.n as f64;
        num as f64 / (n * n)
    }

    /// Merges another estimator (same dimension) into this one: exact
    /// integer addition, so any merge order gives the same result.
    pub fn merge(&mut self, other: &CorrelationMatrix) {
        assert_eq!(self.dim, other.dim, "dimension mismatch in merge");
        self.n += other.n;
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        for (a, b) in self.products.iter_mut().zip(&other.products) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(obs: &[&[u32]]) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::new(obs[0].len());
        for o in obs {
            m.push(o);
        }
        m
    }

    #[test]
    fn diagonal_is_one() {
        let m = of(&[&[1, 2, 3], &[2, 1, 5]]);
        for i in 0..3 {
            assert_eq!(m.correlation(i, i), 1.0);
        }
    }

    #[test]
    fn symmetric_access() {
        let mut m = CorrelationMatrix::new(3);
        for i in 0..50u32 {
            m.push(&[i, 2 * i + i % 3, 100 - i]);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.correlation(i, j), m.correlation(j, i));
                assert_eq!(m.covariance(i, j), m.covariance(j, i));
            }
        }
    }

    #[test]
    fn perfect_and_anti_correlation() {
        let mut m = CorrelationMatrix::new(3);
        for i in 0..100u32 {
            let x = (i * 37) % 41;
            m.push(&[x, 3 * x + 7, 50 - x]);
        }
        // Exact numerators: ±1 up to the one rounding of the division.
        assert!((m.correlation(0, 1) - 1.0).abs() < 1e-15);
        assert!((m.correlation(0, 2) + 1.0).abs() < 1e-15);
        assert!((m.correlation(1, 2) + 1.0).abs() < 1e-15);
    }

    #[test]
    fn independent_alternation_is_uncorrelated() {
        // x has period 2, y period 4 in quadrature: over full periods
        // the covariance numerator is exactly zero.
        let mut m = CorrelationMatrix::new(2);
        for i in 0..400u32 {
            m.push(&[i % 2, u32::from(i % 4 < 2)]);
        }
        assert_eq!(m.covariance(0, 1), 0.0);
        assert_eq!(m.correlation(0, 1), 0.0);
    }

    #[test]
    fn known_covariance() {
        // means 2.5, 2.5; cov = ((-1.5)(-0.5)+(-0.5)(-1.5)+(0.5)(1.5)+(1.5)(0.5))/4
        let m = of(&[&[1, 2], &[2, 1], &[3, 4], &[4, 3]]);
        assert_eq!(m.count(), 4);
        assert_eq!(m.covariance(0, 1), 0.75);
        assert_eq!(m.covariance(0, 0), 1.25);
        assert_eq!(m.correlation(0, 1), 0.6);
    }

    #[test]
    fn degenerate_correlation_is_zero() {
        let mut m = CorrelationMatrix::new(2);
        for _ in 0..10 {
            m.push(&[1, 2]);
        }
        assert_eq!(m.correlation(0, 1), 0.0);
        assert_eq!(m.covariance(0, 1), 0.0);
        // Fewer than two observations are degenerate too.
        let one = of(&[&[3, 4]]);
        assert_eq!(one.correlation(0, 1), 0.0);
        assert_eq!(one.sum_variance(), 0.0);
    }

    #[test]
    fn sum_variance_matches_direct_computation() {
        let mut m = CorrelationMatrix::new(3);
        let mut totals = Vec::new();
        for i in 0..500u32 {
            let a = (i * 13) % 7;
            let b = (i * 5) % 11;
            let c = (i * 3) % 5 + a / 2;
            m.push(&[a, b, c]);
            totals.push(f64::from(a + b + c));
        }
        let n = totals.len() as f64;
        let mean = totals.iter().sum::<f64>() / n;
        let var = totals.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / n;
        assert!((m.sum_variance() - var).abs() < 1e-12 * var);
    }

    #[test]
    fn merge_equals_concatenation() {
        let obs: Vec<[u32; 2]> = (0..300u32)
            .map(|i| [(i * 17) % 29, (i * 11) % 31])
            .collect();
        for split in [0usize, 1, 120, 299, 300] {
            let mut a = CorrelationMatrix::new(2);
            let mut b = CorrelationMatrix::new(2);
            for (i, o) in obs.iter().enumerate() {
                if i < split {
                    a.push(o);
                } else {
                    b.push(o);
                }
            }
            let mut whole = CorrelationMatrix::new(2);
            for o in &obs {
                whole.push(o);
            }
            let mut ba = b.clone();
            ba.merge(&a);
            a.merge(&b);
            assert_eq!(a, whole, "split {split}");
            assert_eq!(ba, whole, "split {split}, reversed");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dimension_panics() {
        let mut m = CorrelationMatrix::new(2);
        m.push(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        CorrelationMatrix::new(0);
    }
}
