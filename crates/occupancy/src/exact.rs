//! Exact distribution of the number of empty cells `µ(n, C)`.
//!
//! Under uniform allocation of `n` balls into `C` cells, the classical
//! results (paper §2, from Kolchin et al.) are:
//!
//! * `E[µ] = C (1 - 1/C)^n`
//! * `Var[µ] = C (1-1/C)^n + C(C-1)(1-2/C)^n - C² (1-1/C)^{2n}`
//! * `P(µ = k) = C(C,k) Σ_{j} (-1)^j C(C-k, j) (1 - (k+j)/C)^n`
//!
//! The alternating sum in the pmf cancels catastrophically in `f64`, so
//! the primary evaluation path here uses Stirling numbers of the second
//! kind instead: the number of surjections of `n` balls onto `C - k`
//! specific cells is `S(n, C-k) · (C-k)!`, hence
//!
//! ```text
//! P(µ = k) = C(C,k) · S(n, C-k) · (C-k)! / C^n,
//! ```
//!
//! and `S` satisfies the positive recurrence `S(n, m) = m·S(n-1, m) +
//! S(n-1, m-1)`, which is evaluated in log space without any
//! subtraction. The inclusion–exclusion form is retained as
//! [`Occupancy::pmf_empty_inclusion_exclusion`] and cross-checked in
//! tests where it is well conditioned.

use crate::OccupancyError;
use manet_stats::special::{ln_binomial, ln_factorial, log_add_exp, log_sub_exp, log_sum_exp};

/// Guard for the `O(n·C)` Stirling dynamic program.
const MAX_DP_CELLS: u64 = 200_000_000;

/// An occupancy problem: `balls` thrown uniformly into `cells`.
///
/// See the [crate docs](crate) for the connection to 1-D network
/// connectivity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Occupancy {
    balls: u64,
    cells: u64,
}

impl Occupancy {
    /// Creates the problem of throwing `balls` into `cells`.
    ///
    /// # Errors
    ///
    /// Returns [`OccupancyError::NoCells`] when `cells == 0`.
    pub fn new(balls: u64, cells: u64) -> Result<Self, OccupancyError> {
        if cells == 0 {
            return Err(OccupancyError::NoCells);
        }
        Ok(Occupancy { balls, cells })
    }

    /// Number of balls `n`.
    pub fn balls(&self) -> u64 {
        self.balls
    }

    /// Number of cells `C`.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The load factor `α = n / C`.
    pub fn alpha(&self) -> f64 {
        self.balls as f64 / self.cells as f64
    }

    /// Exact expectation `E[µ] = C (1 - 1/C)^n`.
    ///
    /// Evaluated as `exp(ln C + n·ln(1 - 1/C))` so it stays accurate
    /// for huge `n` where the direct power underflows.
    pub fn expected_empty(&self) -> f64 {
        let c = self.cells as f64;
        if self.cells == 1 {
            // Single cell: it is empty iff n = 0.
            return if self.balls == 0 { 1.0 } else { 0.0 };
        }
        (c.ln() + self.balls as f64 * (1.0 - 1.0 / c).ln()).exp()
    }

    /// Exact variance
    /// `Var[µ] = C(1-1/C)^n + C(C-1)(1-2/C)^n − C²(1-1/C)^{2n}`.
    ///
    /// Derived from `µ = Σ_i 1{cell i empty}` with
    /// `P(two specific cells empty) = (1-2/C)^n`.
    pub fn variance_empty(&self) -> f64 {
        let c = self.cells as f64;
        let n = self.balls as f64;
        if self.cells == 1 {
            return 0.0;
        }
        let ln_q1 = (1.0 - 1.0 / c).ln();
        // (1 - 2/C)^n: for C = 2 this is 0^n.
        let t2 = if self.cells == 2 {
            if self.balls == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            (n * (1.0 - 2.0 / c).ln()).exp()
        };
        let e1 = (c.ln() + n * ln_q1).exp();
        let pair = c * (c - 1.0) * t2;
        let sq = (2.0 * c.ln() + 2.0 * n * ln_q1).exp();
        (e1 + pair - sq).max(0.0)
    }

    /// Exact standard deviation of `µ`.
    pub fn std_dev_empty(&self) -> f64 {
        self.variance_empty().sqrt()
    }

    /// Exact pmf `P(µ = k)` via the Stirling-number path.
    ///
    /// Cost is `O(n·C)`; see [`Occupancy::distribution`] to obtain all
    /// `k` at once for the same price.
    ///
    /// # Errors
    ///
    /// Returns [`OccupancyError::EmptyCountOutOfRange`] when
    /// `k > cells` and [`OccupancyError::ProblemTooLarge`] when the DP
    /// would exceed the practicality bound.
    pub fn pmf_empty(&self, k: u64) -> Result<f64, OccupancyError> {
        if k > self.cells {
            return Err(OccupancyError::EmptyCountOutOfRange {
                k,
                cells: self.cells,
            });
        }
        Ok(self.distribution_impl()?[k as usize])
    }

    /// The full pmf of `µ` as a vector indexed by `k = 0..=C`.
    ///
    /// # Errors
    ///
    /// Returns [`OccupancyError::ProblemTooLarge`] when `n·C` exceeds
    /// the practicality bound.
    #[expect(
        clippy::expect_used,
        reason = "documented panic: try_distribution is the fallible API"
    )]
    pub fn distribution(&self) -> Vec<f64> {
        self.distribution_impl()
            .expect("distribution() requires a problem within the DP bound; use try_distribution")
    }

    /// Fallible variant of [`Occupancy::distribution`].
    ///
    /// # Errors
    ///
    /// Returns [`OccupancyError::ProblemTooLarge`] when `n·C` exceeds
    /// the practicality bound.
    pub fn try_distribution(&self) -> Result<Vec<f64>, OccupancyError> {
        self.distribution_impl()
    }

    fn distribution_impl(&self) -> Result<Vec<f64>, OccupancyError> {
        let n = self.balls;
        let c = self.cells;
        if n.saturating_mul(c) > MAX_DP_CELLS {
            return Err(OccupancyError::ProblemTooLarge { balls: n, cells: c });
        }
        let c_usize = c as usize;
        if n == 0 {
            // All cells empty with probability 1.
            let mut pmf = vec![0.0; c_usize + 1];
            pmf[c_usize] = 1.0;
            return Ok(pmf);
        }
        // ln S(n, m) for m = 0..=min(n, C) via the positive recurrence.
        let m_max = c.min(n) as usize;
        let mut row = vec![f64::NEG_INFINITY; m_max + 1];
        // S(1, 1) = 1.
        if m_max >= 1 {
            row[1] = 0.0;
        }
        for _level in 2..=n {
            // Walk m downward so row[m-1] is still the previous level.
            let hi = m_max.min(_level as usize);
            for m in (1..=hi).rev() {
                let from_same = (m as f64).ln() + row[m];
                row[m] = log_add_exp(from_same, row[m - 1]);
            }
            // S(level, 0) = 0 for level >= 1 (already -inf).
        }
        let ln_cn = n as f64 * (c as f64).ln();
        let mut pmf = vec![0.0; c_usize + 1];
        for (k, slot) in pmf.iter_mut().enumerate() {
            let occupied = c_usize - k;
            if occupied == 0 || occupied > m_max {
                continue;
            }
            let ln_p =
                ln_binomial(c, k as u64) + row[occupied] + ln_factorial(occupied as u64) - ln_cn;
            *slot = ln_p.exp();
        }
        Ok(pmf)
    }

    /// The textbook inclusion–exclusion pmf (paper §2):
    /// `P(µ = k) = C(C,k) Σ_j (-1)^j C(C-k, j) (1-(k+j)/C)^n`.
    ///
    /// Evaluated in log space with positive and negative terms summed
    /// separately. **Numerically fragile** when massive cancellation
    /// occurs (small `α`); retained as an independent cross-check of
    /// the Stirling path where both are well conditioned.
    ///
    /// # Errors
    ///
    /// Returns [`OccupancyError::EmptyCountOutOfRange`] when
    /// `k > cells`.
    pub fn pmf_empty_inclusion_exclusion(&self, k: u64) -> Result<f64, OccupancyError> {
        if k > self.cells {
            return Err(OccupancyError::EmptyCountOutOfRange {
                k,
                cells: self.cells,
            });
        }
        let c = self.cells;
        let n = self.balls as f64;
        if k == c {
            // All cells empty: possible only with zero balls.
            return Ok(if self.balls == 0 { 1.0 } else { 0.0 });
        }
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for j in 0..=(c - k) {
            let remaining = c - k - j;
            let ln_term = if remaining == 0 {
                // (1 - (k+j)/C)^n = 0^n; only contributes when n = 0.
                if self.balls == 0 {
                    ln_binomial(c - k, j)
                } else {
                    f64::NEG_INFINITY
                }
            } else {
                ln_binomial(c - k, j) + n * ((remaining as f64 / c as f64).ln())
            };
            if j % 2 == 0 {
                pos.push(ln_term);
            } else {
                neg.push(ln_term);
            }
        }
        let ln_pos = log_sum_exp(&pos);
        let ln_neg = log_sum_exp(&neg);
        let ln_sum = if ln_neg == f64::NEG_INFINITY {
            ln_pos
        } else if ln_pos >= ln_neg {
            log_sub_exp(ln_pos, ln_neg)
        } else {
            // Pure cancellation noise; the true value is >= 0.
            return Ok(0.0);
        };
        Ok((ln_binomial(c, k) + ln_sum).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_requires_cells() {
        assert_eq!(Occupancy::new(5, 0), Err(OccupancyError::NoCells));
        assert!(Occupancy::new(0, 1).is_ok());
    }

    #[test]
    fn expected_empty_matches_direct_formula() {
        for (n, c) in [(0u64, 5u64), (1, 5), (10, 5), (100, 20), (7, 7)] {
            let occ = Occupancy::new(n, c).unwrap();
            let direct = c as f64 * (1.0 - 1.0 / c as f64).powi(n as i32);
            assert!((occ.expected_empty() - direct).abs() < 1e-9, "n={n}, C={c}");
        }
    }

    #[test]
    fn single_cell_cases() {
        let occ = Occupancy::new(3, 1).unwrap();
        assert_eq!(occ.expected_empty(), 0.0);
        assert_eq!(occ.variance_empty(), 0.0);
        let empty = Occupancy::new(0, 1).unwrap();
        assert_eq!(empty.expected_empty(), 1.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        for (n, c) in [(1u64, 1u64), (3, 3), (10, 4), (50, 20), (200, 40)] {
            let occ = Occupancy::new(n, c).unwrap();
            let total: f64 = occ.distribution().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n}, C={c}: total={total}");
        }
    }

    #[test]
    fn pmf_mean_matches_expected_empty() {
        for (n, c) in [(5u64, 5u64), (30, 10), (100, 25)] {
            let occ = Occupancy::new(n, c).unwrap();
            let pmf = occ.distribution();
            let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
            assert!(
                (mean - occ.expected_empty()).abs() < 1e-8,
                "n={n}, C={c}: {mean} vs {}",
                occ.expected_empty()
            );
        }
    }

    #[test]
    fn pmf_variance_matches_variance_empty() {
        for (n, c) in [(5u64, 5u64), (30, 10), (100, 25)] {
            let occ = Occupancy::new(n, c).unwrap();
            let pmf = occ.distribution();
            let mean: f64 = pmf.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
            let var: f64 = pmf
                .iter()
                .enumerate()
                .map(|(k, p)| (k as f64 - mean) * (k as f64 - mean) * p)
                .sum();
            assert!(
                (var - occ.variance_empty()).abs() < 1e-7,
                "n={n}, C={c}: {var} vs {}",
                occ.variance_empty()
            );
        }
    }

    #[test]
    fn two_balls_two_cells_by_hand() {
        // 2 balls, 2 cells: P(µ=0) = 1/2 (balls split), P(µ=1) = 1/2.
        let occ = Occupancy::new(2, 2).unwrap();
        let pmf = occ.distribution();
        assert!((pmf[0] - 0.5).abs() < 1e-12);
        assert!((pmf[1] - 0.5).abs() < 1e-12);
        assert!(pmf[2].abs() < 1e-12);
    }

    #[test]
    fn three_balls_two_cells_by_hand() {
        // P(all in one cell) = 2/8 = 1/4 -> µ=1; else µ=0.
        let occ = Occupancy::new(3, 2).unwrap();
        let pmf = occ.distribution();
        assert!((pmf[1] - 0.25).abs() < 1e-12);
        assert!((pmf[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fewer_balls_than_cells_forces_empties() {
        // 2 balls into 5 cells: at least 3 empty.
        let occ = Occupancy::new(2, 5).unwrap();
        let pmf = occ.distribution();
        assert!(pmf[0].abs() < 1e-15);
        assert!(pmf[1].abs() < 1e-15);
        assert!(pmf[2].abs() < 1e-15);
        // P(µ=4) = P(both in same cell) = 1/5.
        assert!((pmf[4] - 0.2).abs() < 1e-12);
        assert!((pmf[3] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_balls_all_cells_empty() {
        let occ = Occupancy::new(0, 4).unwrap();
        let pmf = occ.distribution();
        assert_eq!(pmf[4], 1.0);
        assert!(pmf[..4].iter().all(|&p| p == 0.0));
    }

    #[test]
    fn inclusion_exclusion_agrees_with_stirling() {
        for (n, c) in [(10u64, 4u64), (20, 8), (60, 12), (100, 20)] {
            let occ = Occupancy::new(n, c).unwrap();
            let stirling = occ.distribution();
            for k in 0..=c {
                let ie = occ.pmf_empty_inclusion_exclusion(k).unwrap();
                let st = stirling[k as usize];
                // Agreement where the probability is non-negligible.
                if st > 1e-10 {
                    assert!(
                        ((ie - st) / st).abs() < 1e-6,
                        "n={n}, C={c}, k={k}: IE={ie}, Stirling={st}"
                    );
                }
            }
        }
    }

    #[test]
    fn pmf_empty_single_value_matches_distribution() {
        let occ = Occupancy::new(30, 10).unwrap();
        let pmf = occ.distribution();
        for k in 0..=10u64 {
            assert_eq!(occ.pmf_empty(k).unwrap(), pmf[k as usize]);
        }
        assert!(occ.pmf_empty(11).is_err());
    }

    #[test]
    fn too_large_problem_is_rejected() {
        let occ = Occupancy::new(1 << 32, 1 << 32).unwrap();
        assert!(matches!(
            occ.try_distribution(),
            Err(OccupancyError::ProblemTooLarge { .. })
        ));
    }

    #[test]
    fn alpha_ratio() {
        let occ = Occupancy::new(50, 20).unwrap();
        assert!((occ.alpha() - 2.5).abs() < 1e-15);
        assert_eq!(occ.balls(), 50);
        assert_eq!(occ.cells(), 20);
    }
}
