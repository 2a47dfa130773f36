//! Variance-reduced standard-normal draw plans for Monte-Carlo yield
//! estimation.
//!
//! The yield engine consumes one mismatch vector per trial; this
//! module controls *how* those vectors are drawn:
//!
//! * [`VarianceReduction::Plain`] — independent draws, the reference
//!   behaviour (bit-compatible with `NormalSampler` streams).
//! * [`VarianceReduction::Antithetic`] — trials come in pairs `(z, −z)`.
//!   Yield estimates of a smooth pass function inherit the negative
//!   correlation of the pair, cutting the estimator variance; the draw
//!   cost also halves.
//! * [`VarianceReduction::Stratified`] — blocks of trials are Latin
//!   hypercube samples (one stratum per trial in every dimension, see
//!   [`crate::lhs`]) pushed through the normal quantile, so each block
//!   covers the mismatch space evenly.
//!
//! Antithetic and stratified trials are *not* independent within a pair or
//! block, so a Wilson interval computed from them is approximate (it
//! treats the counts as Bernoulli); use `Plain` when the confidence
//! interval itself is the deliverable, and the reduced schemes when the
//! point estimate (or a yield *difference* across design points under
//! common random numbers) is what matters.

use crate::lhs::latin_hypercube;
use crate::mc::StatsError;
use crate::normal::inv_phi;
use crate::rng::Rng;
use crate::sample::NormalSampler;

/// How per-trial standard-normal vectors are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarianceReduction {
    /// Independent draws per trial (the reference stream).
    Plain,
    /// Pairs `(z, −z)`: every odd trial negates the preceding even trial.
    Antithetic,
    /// Latin-hypercube blocks of the given size, transformed to normals.
    Stratified {
        /// Trials per stratified block (clamped to at least 2).
        strata: usize,
    },
}

/// Stateful per-trial normal-vector generator under a chosen
/// variance-reduction scheme.
///
/// Trials are served strictly in sequence by [`NormalDrawPlan::fill_next`];
/// pairing (antithetic) and blocking (stratified) are relative to the
/// plan's own trial counter, so a fresh plan per RNG stream — e.g. one per
/// supervised chunk — keeps results deterministic and jobs-invariant.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_stats::mc::StatsError> {
/// use ctsdac_stats::sample::seeded_rng;
/// use ctsdac_stats::variance::{NormalDrawPlan, VarianceReduction};
///
/// let mut plan = NormalDrawPlan::new(3, VarianceReduction::Antithetic)?;
/// let mut rng = seeded_rng(9);
/// let mut a = [0.0; 3];
/// let mut b = [0.0; 3];
/// plan.fill_next(&mut rng, &mut a);
/// plan.fill_next(&mut rng, &mut b);
/// assert!(a.iter().zip(&b).all(|(x, y)| *x == -*y));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NormalDrawPlan {
    dims: usize,
    scheme: VarianceReduction,
    trial: u64,
    /// Antithetic: the even trial's vector, negated for the odd twin.
    pair: Vec<f64>,
    /// Stratified: the current block, row-major `[trial][dim]`.
    block: Vec<f64>,
    /// Stratified: rows already served from `block`.
    served: usize,
    strata: usize,
}

impl NormalDrawPlan {
    /// Builds a plan for `dims`-dimensional trial vectors.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyData`] if `dims == 0`.
    pub fn new(dims: usize, scheme: VarianceReduction) -> Result<Self, StatsError> {
        if dims == 0 {
            return Err(StatsError::EmptyData);
        }
        let strata = match scheme {
            VarianceReduction::Stratified { strata } => strata.max(2),
            _ => 0,
        };
        Ok(Self {
            dims,
            scheme,
            trial: 0,
            pair: Vec::new(),
            block: Vec::new(),
            served: 0,
            strata,
        })
    }

    /// The vector length this plan produces.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Trials served so far.
    pub fn trials_served(&self) -> u64 {
        self.trial
    }

    /// Fills `out` with the next trial's standard-normal vector.
    ///
    /// Only the first `dims` slots are written; `out` must be at least
    /// that long (extra slots are left untouched so callers can reuse a
    /// wider scratch buffer).
    pub fn fill_next<R: Rng + ?Sized>(&mut self, rng: &mut R, out: &mut [f64]) {
        let dims = self.dims;
        let slots = &mut out[..dims];
        match self.scheme {
            VarianceReduction::Plain => {
                // One fresh sampler per trial keeps the draw sequence
                // bit-identical to `CellErrors::random`, which constructs
                // its own sampler for every realisation.
                let mut sampler = NormalSampler::new();
                sampler.fill(rng, slots);
            }
            VarianceReduction::Antithetic => {
                if self.trial % 2 == 0 {
                    let mut sampler = NormalSampler::new();
                    sampler.fill(rng, slots);
                    self.pair.clear();
                    self.pair.extend_from_slice(slots);
                } else {
                    for (slot, &z) in slots.iter_mut().zip(&self.pair) {
                        *slot = -z;
                    }
                }
            }
            VarianceReduction::Stratified { .. } => {
                if self.served * dims >= self.block.len() {
                    self.refill_block(rng);
                }
                let row = &self.block[self.served * dims..(self.served + 1) * dims];
                slots.copy_from_slice(row);
                self.served += 1;
            }
        }
        self.trial += 1;
    }

    /// Regenerates the stratified block: one Latin-hypercube sample of
    /// `strata` points, pushed through the normal quantile.
    fn refill_block<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let points = latin_hypercube(rng, self.strata, self.dims);
        self.block.clear();
        for point in &points {
            for &u in point {
                self.block.push(normal_from_uniform(u));
            }
        }
        self.served = 0;
    }
}

/// Maps a uniform `u ∈ [0, 1)` to a standard-normal variate via the
/// quantile function, clamping away from the endpoints so the inverse CDF
/// stays finite (the clamp moves `u` by at most one part in 10¹⁶).
fn normal_from_uniform(u: f64) -> f64 {
    let p = u.clamp(1e-300, 0.999_999_999_999_999_9);
    match inv_phi(p) {
        Ok(z) => z,
        // Unreachable after the clamp; 0.0 keeps the draw harmless.
        Err(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::seeded_rng;
    use crate::summary::Summary;

    #[test]
    fn plain_matches_per_trial_sampler_streams() {
        let mut plan = NormalDrawPlan::new(5, VarianceReduction::Plain).expect("valid");
        let mut rng_a = seeded_rng(3);
        let mut rng_b = seeded_rng(3);
        let mut got = [0.0; 5];
        for _ in 0..4 {
            plan.fill_next(&mut rng_a, &mut got);
            let mut sampler = NormalSampler::new();
            let want = sampler.take(&mut rng_b, 5);
            assert_eq!(got.to_vec(), want);
        }
    }

    #[test]
    fn antithetic_pairs_negate_exactly() {
        let mut plan = NormalDrawPlan::new(7, VarianceReduction::Antithetic).expect("valid");
        let mut rng = seeded_rng(11);
        let mut even = [0.0; 7];
        let mut odd = [0.0; 7];
        for _ in 0..5 {
            plan.fill_next(&mut rng, &mut even);
            plan.fill_next(&mut rng, &mut odd);
            for (a, b) in even.iter().zip(&odd) {
                assert_eq!(*a, -*b);
            }
        }
    }

    #[test]
    fn antithetic_mean_cancels_over_pairs() {
        let mut plan = NormalDrawPlan::new(1, VarianceReduction::Antithetic).expect("valid");
        let mut rng = seeded_rng(21);
        let mut x = [0.0; 1];
        let mut sum = 0.0;
        for _ in 0..1000 {
            plan.fill_next(&mut rng, &mut x);
            sum += x[0];
        }
        // Pairs cancel exactly; the sum over an even count is 0.
        assert!(sum.abs() < 1e-12, "sum = {sum}");
    }

    #[test]
    fn stratified_blocks_are_stratified_per_dimension() {
        let strata = 64;
        let mut plan =
            NormalDrawPlan::new(2, VarianceReduction::Stratified { strata }).expect("valid");
        let mut rng = seeded_rng(5);
        let mut x = [0.0; 2];
        let mut firsts = Vec::new();
        for _ in 0..strata {
            plan.fill_next(&mut rng, &mut x);
            firsts.push(x[0]);
        }
        // Map back through Φ: one sample per stratum of width 1/strata.
        let mut bins: Vec<usize> = firsts
            .iter()
            .map(|&z| ((crate::normal::phi(z) * strata as f64) as usize).min(strata - 1))
            .collect();
        bins.sort_unstable();
        assert_eq!(bins, (0..strata).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_moments_are_standard_normal() {
        let mut plan =
            NormalDrawPlan::new(1, VarianceReduction::Stratified { strata: 128 }).expect("valid");
        let mut rng = seeded_rng(17);
        let mut x = [0.0; 1];
        let summary: Summary = (0..4096)
            .map(|_| {
                plan.fill_next(&mut rng, &mut x);
                x[0]
            })
            .collect();
        assert!(summary.mean().abs() < 0.01, "mean = {}", summary.mean());
        assert!(
            (summary.std_dev() - 1.0).abs() < 0.02,
            "sd = {}",
            summary.std_dev()
        );
    }

    #[test]
    fn stratified_variance_of_the_mean_beats_plain() {
        // The mean of each 32-trial block has far lower variance when the
        // block is stratified.
        let block = 32;
        let block_means = |scheme| {
            let mut plan = NormalDrawPlan::new(1, scheme).expect("valid");
            let mut rng = seeded_rng(99);
            let mut x = [0.0; 1];
            let means: Summary = (0..200)
                .map(|_| {
                    let mut sum = 0.0;
                    for _ in 0..block {
                        plan.fill_next(&mut rng, &mut x);
                        sum += x[0];
                    }
                    sum / block as f64
                })
                .collect();
            means.std_dev()
        };
        let plain = block_means(VarianceReduction::Plain);
        let strat = block_means(VarianceReduction::Stratified { strata: block });
        assert!(
            strat < plain / 3.0,
            "stratified sd {strat} not well below plain sd {plain}"
        );
    }

    #[test]
    fn zero_dims_is_a_typed_error() {
        assert_eq!(
            NormalDrawPlan::new(0, VarianceReduction::Plain).map(|p| p.dims()),
            Err(StatsError::EmptyData)
        );
    }

    #[test]
    fn quantile_transform_is_clamped_at_the_ends() {
        assert!(normal_from_uniform(0.0).is_finite());
        assert!(normal_from_uniform(1.0).is_finite());
        assert!(normal_from_uniform(0.5).abs() < 1e-12);
    }
}
