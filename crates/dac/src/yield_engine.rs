//! Allocation-free, lane-batched Monte-Carlo yield engine.
//!
//! Every converter yield of the workspace — the eq. (1) INL yield of
//! [`inl_yield_mc`](crate::static_metrics::inl_yield_mc), its DNL and
//! monotonicity siblings, the supervised and CRN drivers below — runs on
//! one engine that
//!
//! * draws **one mismatch vector per trial** and decides all three
//!   pass/fail metrics on it (common random numbers across metrics), and
//! * classifies trials `W` at a time through a structure-of-arrays
//!   **lane kernel** ([`YieldMode::Lanes`]), writing into reusable scratch
//!   buffers — zero allocation per trial.
//!
//! # One production path, one oracle
//!
//! [`YieldMode::Lanes`] is the production path; [`YieldMode::Reference`]
//! is its oracle, the scalar allocating chain ([`CellErrors::random`] →
//! [`TransferFunction::compute_fast`] → `inl_max_abs`/`dnl_max_abs`/
//! `is_monotone`). The two make **bit-identical** decisions — and
//! therefore identical yield counts — for the same RNG stream, at any
//! lane width. The supervised driver ([`fused_yields_supervised`]) keeps
//! per-chunk seeded RNG streams, so pooled results are bit-identical for
//! any `--jobs` value and in either mode.
//!
//! # The screened classifier
//!
//! Yield estimation only needs the pass/fail *decision* per trial, not
//! the metric values. The segmented architecture makes that decision
//! computable in `O(2^b + n_unary)` instead of `O(2^n)`: with code
//! `k = t·2^b + r`, the INL decomposes (in real arithmetic) into a
//! per-residue term plus a per-block term, in-block DNL steps repeat the
//! binary deltas in every block, and only the `n_unary` block-boundary
//! codes need individual treatment. The screened values differ from the
//! exact fused-pass floats by bounded rounding noise, so the classifier
//! brackets each metric inside a rigorous 64-ulp band and decides
//! pass/fail only when the limit lies outside the band; the rare trial
//! whose metric grazes its limit falls back to the exact fused walk, a
//! loop restructure of the reference chain that matches it operation for
//! operation. Decisions — and therefore yield counts — remain
//! **bit-identical** to [`YieldMode::Reference`], while the per-trial work
//! drops from one full transfer curve (4096 codes at 12 bits) to one block
//! scan (~272 codes' worth).
//!
//! # Variance reduction and early stopping
//!
//! [`YieldEngine::run_reduced`] draws trials through a
//! [`VarianceReduction`] scheme (antithetic pairs, stratified LHS
//! blocks), and [`YieldEngine::run_sequential`] wires a
//! [`YieldTest`] Wilson-interval stopping rule so a pass/fail verdict
//! against a target yield terminates as soon as the interval clears it.
//! [`fused_yields_crn`] shares one draw per trial across *design points*
//! (different unit-source sigmas), making yield differences low-variance.

use crate::architecture::SegmentedDac;
use crate::errors::CellErrors;
use crate::static_metrics::{positive_limit, MetricError, TransferFunction};
use core::fmt;
use ctsdac_obs as obs;
use ctsdac_runtime::{
    yield_vector_supervised_chunked, ExecPolicy, McPlan, RuntimeError, Supervised,
};
use ctsdac_stats::rng::Rng;
use ctsdac_stats::sample::NormalSampler;
use ctsdac_stats::{
    NormalDrawPlan, SequentialYield, StatsError, VarianceReduction, YieldEstimate, YieldTest,
};

/// Which evaluation path a yield run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldMode {
    /// The production path: the screened lane classifier, eight trials
    /// per group (one lane where trials are drawn one at a time),
    /// with the exact fused walk for limit-grazing trials and for
    /// [`YieldEngine::trial`]'s metric values.
    Lanes,
    /// The oracle: the scalar allocating chain (`CellErrors` →
    /// `TransferFunction`), kept for bitwise cross-checks against `Lanes`.
    Reference,
}

/// Lane width of the production path. Eight `f64` lanes span two AVX-512 /
/// four SSE2 vectors; the certified widths 4 and 8 are both exercised by
/// the lane-differential tests.
const LANE_W: usize = 8;

/// The pass/fail metric a sequential test gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldMetric {
    /// `max|INL| < inl_limit` (the paper's eq. (1) yield).
    Inl,
    /// `max|DNL| < dnl_limit`.
    Dnl,
    /// Monotone transfer characteristic.
    Monotonicity,
}

impl YieldMetric {
    /// Position of this metric in `[inl, dnl, monotonicity]` flag arrays.
    pub fn index(self) -> usize {
        match self {
            Self::Inl => 0,
            Self::Dnl => 1,
            Self::Monotonicity => 2,
        }
    }
}

/// Pass/fail limits for the fused metrics (LSB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldLimits {
    /// `max|INL|` must stay strictly below this (LSB).
    pub inl: f64,
    /// `max|DNL|` must stay strictly below this (LSB).
    pub dnl: f64,
}

impl YieldLimits {
    /// Builds validated limits.
    ///
    /// # Errors
    ///
    /// [`MetricError::InvalidLimit`] if either limit is not positive and
    /// finite.
    pub fn new(inl: f64, dnl: f64) -> Result<Self, MetricError> {
        positive_limit("INL", inl)?;
        positive_limit("DNL", dnl)?;
        Ok(Self { inl, dnl })
    }

    /// The paper's standard ±½ LSB limits on both INL and DNL.
    pub fn half_lsb() -> Self {
        Self { inl: 0.5, dnl: 0.5 }
    }
}

/// All three fused static metrics of one mismatch realisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedMetrics {
    /// Worst absolute endpoint-fit INL (LSB).
    pub inl_max: f64,
    /// Worst absolute DNL (LSB).
    pub dnl_max: f64,
    /// True if the transfer characteristic is monotone.
    pub monotone: bool,
}

impl FusedMetrics {
    /// Pass flags in [`YieldMetric`] order: `[inl, dnl, monotonicity]`.
    pub fn flags(&self, limits: &YieldLimits) -> [bool; 3] {
        [
            self.inl_max < limits.inl,
            self.dnl_max < limits.dnl,
            self.monotone,
        ]
    }

    /// The pass flag for one metric.
    pub fn passes(&self, metric: YieldMetric, limits: &YieldLimits) -> bool {
        match metric {
            YieldMetric::Inl => self.inl_max < limits.inl,
            YieldMetric::Dnl => self.dnl_max < limits.dnl,
            YieldMetric::Monotonicity => self.monotone,
        }
    }
}

/// The three yield estimates of one fused MC run — computed from common
/// random numbers, so they are positively correlated across metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedYields {
    /// INL yield (eq. (1)).
    pub inl: YieldEstimate,
    /// DNL yield.
    pub dnl: YieldEstimate,
    /// Monotonicity yield.
    pub monotonicity: YieldEstimate,
}

impl FusedYields {
    fn from_counts(counts: [u64; 3], trials: u64) -> Result<Self, MetricError> {
        Ok(Self {
            inl: YieldEstimate::from_counts(counts[0], trials)?,
            dnl: YieldEstimate::from_counts(counts[1], trials)?,
            monotonicity: YieldEstimate::from_counts(counts[2], trials)?,
        })
    }
}

/// Reusable per-engine buffers: one mismatch draw plus the segmented
/// transfer-curve tables, sized once for a converter and overwritten in
/// place every trial.
#[derive(Debug, Clone)]
pub struct YieldScratch {
    /// Standard-normal draw of the current trial, one per cell.
    zs: Vec<f64>,
    /// Per-cell relative errors of the current trial (`scale ⊙ zs`).
    rel: Vec<f64>,
    /// Binary sub-DAC level per residue (`2^b` entries).
    bin_levels: Vec<f64>,
    /// Unary cumulative sums in switching-rank order (`n_unary + 1`).
    unary_cum: Vec<f64>,
}

impl YieldScratch {
    /// Allocates scratch sized for `dac` (once per engine; trials never
    /// allocate).
    pub fn for_dac(dac: &SegmentedDac) -> Self {
        let seg = 1usize << dac.spec().binary_bits;
        Self {
            zs: vec![0.0; dac.n_cells()],
            rel: vec![0.0; dac.n_cells()],
            bin_levels: vec![0.0; seg],
            unary_cum: vec![0.0; dac.n_unary() + 1],
        }
    }
}

/// Structure-of-arrays scratch for the lane classifier: every table row
/// holds `W` trials side by side as one `[f64; W]` chunk, so the table
/// build and the screens run as straight-line elementwise loops the
/// compiler autovectorizes. Sized once per run and overwritten per
/// group.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch<const W: usize> {
    /// Transposed standard-normal draws: `zs[cell][lane]`.
    zs: Vec<[f64; W]>,
    /// Per-binary-cell terms `wᵢ·(1 + scaleᵢ·zᵢ)`, one row per binary
    /// bit, precomputed once per group instead of once per residue.
    terms: Vec<[f64; W]>,
    /// Binary sub-DAC level per residue (`2^b` rows).
    bin_levels: Vec<[f64; W]>,
    /// Unary cumulative sums in switching-rank order (`n_unary + 1`).
    unary_cum: Vec<[f64; W]>,
}

impl<const W: usize> LaneScratch<W> {
    /// Allocates lane scratch sized for `dac`.
    pub fn for_dac(dac: &SegmentedDac) -> Self {
        assert!(W >= 1, "lane width must be at least 1");
        let seg = 1usize << dac.spec().binary_bits;
        Self {
            zs: vec![[0.0; W]; dac.n_cells()],
            terms: vec![[0.0; W]; dac.spec().binary_bits as usize],
            bin_levels: vec![[0.0; W]; seg],
            unary_cum: vec![[0.0; W]; dac.n_unary() + 1],
        }
    }
}

/// Lane-batched Monte-Carlo yield engine for one converter instance.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_dac::static_metrics::MetricError> {
/// use ctsdac_core::DacSpec;
/// use ctsdac_dac::architecture::SegmentedDac;
/// use ctsdac_dac::yield_engine::{YieldEngine, YieldLimits, YieldMode};
/// use ctsdac_stats::sample::seeded_rng;
///
/// let spec = DacSpec::new(8, 4, 0.997, DacSpec::paper_12bit().env,
///                         DacSpec::paper_12bit().tech);
/// let dac = SegmentedDac::new(&spec);
/// let mut engine = YieldEngine::new(&dac, spec.sigma_unit_spec(),
///                                   YieldLimits::half_lsb())?;
/// let mut rng = seeded_rng(42);
/// let yields = engine.run(YieldMode::Lanes, 200, &mut rng)?;
/// assert!(yields.inl.estimate() > 0.95);
/// // CRN: the three metrics came from the same 200 draws.
/// assert_eq!(yields.dnl.trials(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct YieldEngine<'a> {
    dac: &'a SegmentedDac,
    sigma_unit: f64,
    limits: YieldLimits,
    /// Per-cell draw scale `σ_unit/√w`, the exact expression
    /// `CellErrors::random` applies per cell.
    scale: Vec<f64>,
    /// Unary cell index per switching rank, precomputed so the per-trial
    /// table build skips the asserting accessor.
    unary_cells: Vec<usize>,
    /// Unary cell weight per switching rank, pre-converted to f64 (the
    /// same float `weights[cell] as f64` yields in the reference chain).
    unary_w: Vec<f64>,
    scratch: YieldScratch,
    /// Single-lane scratch for trials drawn one at a time.
    single: LaneScratch<1>,
    codes_scanned: u64,
    trials_run: u64,
    fallbacks: u64,
}

impl<'a> YieldEngine<'a> {
    /// Builds an engine after validating `sigma_unit` and `limits`.
    ///
    /// # Errors
    ///
    /// [`MetricError::InvalidSigma`] if `sigma_unit` is negative or
    /// non-finite; [`MetricError::InvalidLimit`] via [`YieldLimits`] when
    /// constructing limits inline.
    pub fn new(
        dac: &'a SegmentedDac,
        sigma_unit: f64,
        limits: YieldLimits,
    ) -> Result<Self, MetricError> {
        if !(sigma_unit.is_finite() && sigma_unit >= 0.0) {
            return Err(MetricError::InvalidSigma { value: sigma_unit });
        }
        Ok(Self::build(dac, sigma_unit, limits))
    }

    /// Infallible constructor for pre-validated inputs (per-chunk engine
    /// builds inside the supervised driver).
    fn build(dac: &'a SegmentedDac, sigma_unit: f64, limits: YieldLimits) -> Self {
        let unary_cells: Vec<usize> = (0..dac.n_unary()).map(|r| dac.unary_cell_at_rank(r)).collect();
        let unary_w: Vec<f64> = unary_cells.iter().map(|&c| dac.weights()[c] as f64).collect();
        Self {
            dac,
            sigma_unit,
            limits,
            scale: draw_scale(dac, sigma_unit),
            unary_cells,
            unary_w,
            scratch: YieldScratch::for_dac(dac),
            single: LaneScratch::for_dac(dac),
            codes_scanned: 0,
            trials_run: 0,
            fallbacks: 0,
        }
    }

    /// The validated pass/fail limits.
    pub fn limits(&self) -> &YieldLimits {
        &self.limits
    }

    /// The unit-source relative mismatch sigma.
    pub fn sigma_unit(&self) -> f64 {
        self.sigma_unit
    }

    /// Deterministic work counter in transfer-curve-code equivalents:
    /// a screened classification adds one block scan
    /// (`2^b + n_unary + 1`), an exact fused walk (an explicit
    /// [`Self::trial`] or a screen fallback) adds the full curve. A
    /// regression that re-walks the curve per trial shows up here even
    /// on a noisy machine.
    pub fn codes_scanned(&self) -> u64 {
        self.codes_scanned
    }

    /// Trials evaluated since construction (either mode).
    pub fn trials_run(&self) -> u64 {
        self.trials_run
    }

    /// Screened classifications that had to fall back to the exact fused
    /// pass because a metric grazed its limit's rounding band.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Evaluates one trial: draw a mismatch vector, compute all three
    /// exact metrics on it — by the fused walk in [`YieldMode::Lanes`], by
    /// the scalar chain in [`YieldMode::Reference`].
    pub fn trial<R: Rng + ?Sized>(&mut self, mode: YieldMode, rng: &mut R) -> FusedMetrics {
        normal_fill(rng)(&mut self.scratch.zs);
        self.trials_run += 1;
        obs::incr(obs::Counter::YieldTrials);
        match mode {
            YieldMode::Lanes => self.eval_batched(),
            YieldMode::Reference => self.eval_reference(),
        }
    }

    /// Draws one trial and returns its pass/fail flags in
    /// `[inl, dnl, monotonicity]` order. [`YieldMode::Lanes`] classifies
    /// it through a single-lane group; the decisions are bit-identical to
    /// [`Self::trial`]`.flags(..)` in either mode.
    pub fn trial_flags<R: Rng + ?Sized>(&mut self, mode: YieldMode, rng: &mut R) -> [bool; 3] {
        match mode {
            YieldMode::Lanes => {
                let mut ls = std::mem::take(&mut self.single);
                let mut flags = [false; 3];
                self.classify_stream(&mut ls, 1, normal_fill(rng), |f| flags = f);
                self.single = ls;
                flags
            }
            YieldMode::Reference => self.trial(YieldMode::Reference, rng).flags(&self.limits),
        }
    }

    /// The fused single pass: scale the draw, rebuild the segmented
    /// tables in place, then walk the transfer curve once accumulating
    /// INL, DNL and monotonicity together. Every expression mirrors the
    /// scalar reference chain, keeping the result bitwise identical.
    fn eval_batched(&mut self) -> FusedMetrics {
        let dac = self.dac;
        let b = dac.spec().binary_bits;
        let n_bin = b as usize;
        let seg = 1usize << b;
        let n_unary = dac.n_unary();
        let weights = dac.weights();
        let s = &mut self.scratch;

        // rel = scale ⊙ z: `(σ_unit/√w) * z`, the exact per-cell
        // expression of `CellErrors::random`.
        for i in 0..s.rel.len() {
            s.rel[i] = self.scale[i] * s.zs[i];
        }

        // Binary sub-DAC level per residue, accumulated in index order
        // exactly like `compute_fast`.
        for (r, slot) in s.bin_levels.iter_mut().enumerate() {
            let mut acc = 0.0;
            for i in 0..n_bin {
                if (r >> i) & 1 == 1 {
                    acc += weights[i] as f64 * (1.0 + s.rel[i]);
                }
            }
            *slot = acc;
        }

        // Unary cumulative sums in switching-rank order.
        s.unary_cum[0] = 0.0;
        let mut acc = 0.0;
        for (rank, (&cell, &w)) in self.unary_cells.iter().zip(&self.unary_w).enumerate() {
            acc += w * (1.0 + s.rel[cell]);
            s.unary_cum[rank + 1] = acc;
        }

        // One fused walk over all codes `k = t·2^b + r`.
        let n_codes = dac.max_code() + 1;
        let first = s.bin_levels[0] + s.unary_cum[0];
        let last = s.bin_levels[seg - 1] + s.unary_cum[n_unary];
        let gain = (last - first) / (n_codes - 1) as f64;
        let mut inl_max = 0.0f64;
        let mut dnl_max = 0.0f64;
        let mut monotone = true;
        let mut prev = 0.0f64;
        let mut k = 0u64;
        let mut kf = 0.0f64;
        for t in 0..=n_unary {
            let cum = s.unary_cum[t];
            for r in 0..seg {
                let level = s.bin_levels[r] + cum;
                let inl = level - (first + gain * kf);
                inl_max = inl_max.max(inl.abs());
                if k != 0 {
                    let dnl = level - prev - 1.0;
                    dnl_max = dnl_max.max(dnl.abs());
                    monotone &= level >= prev;
                }
                prev = level;
                k += 1;
                kf += 1.0;
            }
        }
        self.codes_scanned += n_codes;
        obs::count(obs::Counter::YieldCodesScanned, n_codes);
        FusedMetrics {
            inl_max,
            dnl_max,
            monotone,
        }
    }

    /// The scalar reference chain: allocate the error vector, build the
    /// full transfer function, then take three separate metric passes.
    fn eval_reference(&self) -> FusedMetrics {
        let rel: Vec<f64> = self
            .scale
            .iter()
            .zip(&self.scratch.zs)
            .map(|(&sc, &z)| sc * z)
            .collect();
        let errors = CellErrors::from_rel(self.dac, rel);
        let tf = TransferFunction::compute_fast(self.dac, &errors);
        FusedMetrics {
            inl_max: tf.inl_max_abs(),
            dnl_max: tf.dnl_max_abs(),
            monotone: tf.is_monotone(),
        }
    }

    /// Runs `trials` trials and pools all three yields (common random
    /// numbers across metrics). [`YieldMode::Lanes`] classifies in groups
    /// of eight.
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        mode: YieldMode,
        trials: u64,
        rng: &mut R,
    ) -> Result<FusedYields, MetricError> {
        if mode == YieldMode::Lanes {
            return self.run_lanes::<LANE_W, R>(trials, rng);
        }
        if trials == 0 {
            return Err(MetricError::Stats(StatsError::NoTrials));
        }
        let mut counts = [0u64; 3];
        for _ in 0..trials {
            tally(&mut counts, self.trial_flags(YieldMode::Reference, rng));
        }
        FusedYields::from_counts(counts, trials)
    }

    /// Runs `trials` lane-classified trials whose draws come from a
    /// [`VarianceReduction`] scheme (antithetic pairing halves the draw
    /// cost and cuts estimator variance; stratified blocks cover the
    /// mismatch space evenly). `Plain` reproduces [`Self::run`] with
    /// [`YieldMode::Lanes`] bit for bit.
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn run_reduced<R: Rng + ?Sized>(
        &mut self,
        scheme: VarianceReduction,
        trials: u64,
        rng: &mut R,
    ) -> Result<FusedYields, MetricError> {
        if trials == 0 {
            return Err(MetricError::Stats(StatsError::NoTrials));
        }
        let mut plan = NormalDrawPlan::new(self.scratch.zs.len(), scheme)?;
        let mut ls = LaneScratch::<LANE_W>::for_dac(self.dac);
        let mut counts = [0u64; 3];
        let fill = |zs: &mut [f64]| plan.fill_next(rng, zs);
        self.classify_stream(&mut ls, trials, fill, |f| tally(&mut counts, f));
        FusedYields::from_counts(counts, trials)
    }

    /// Runs a Wilson-interval sequential test of one metric's yield
    /// against `test`'s target: trials stop deterministically as soon as
    /// the interval clears (or excludes) the target, with the test's
    /// trial budget as fallback.
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] if the underlying counts are ill-posed
    /// (cannot happen with a well-formed [`YieldTest`]).
    pub fn run_sequential<R: Rng + ?Sized>(
        &mut self,
        mode: YieldMode,
        metric: YieldMetric,
        test: &YieldTest,
        rng: &mut R,
    ) -> Result<SequentialYield, MetricError> {
        Ok(test.run_sequential(rng, |rng, _trial| {
            self.trial_flags(mode, rng)[metric.index()]
        })?)
    }

    /// Draws a lane group: `active` trials drawn by `fill` in trial order
    /// and transposed into the SoA scratch. Inactive lanes (a remainder
    /// group shorter than `W`) replicate lane 0 so the kernel computes on
    /// finite values; their results are never read and they touch no
    /// counters.
    fn draw_lane_group<const W: usize>(
        &mut self,
        fill: &mut impl FnMut(&mut [f64]),
        active: usize,
        ls: &mut LaneScratch<W>,
    ) {
        debug_assert!((1..=W).contains(&active));
        for l in 0..active {
            fill(&mut self.scratch.zs);
            for (row, &z) in ls.zs.iter_mut().zip(&self.scratch.zs) {
                row[l] = z;
            }
        }
        for l in active..W {
            for row in ls.zs.iter_mut() {
                row[l] = row[0];
            }
        }
    }

    /// The lane classifier: one pass of the screened classifier over `W`
    /// trials at once, every intermediate a `[f64; W]` chunk updated
    /// elementwise, and no lane reading another's values — so decisions,
    /// fallback triggering and all work counters are lane-width-invariant.
    /// The binary table is built by recursive doubling
    /// (`bin[r | 2^i] = bin[r] + termᵢ` for `r < 2^i`), which reproduces the
    /// fused walk's ascending-set-bit accumulation order exactly while
    /// cutting the table build from `b·2^b` branchy steps to `2^b` adds.
    fn classify_lane_group<const W: usize>(
        &mut self,
        ls: &mut LaneScratch<W>,
        active: usize,
    ) -> [[bool; 3]; W] {
        let dac = self.dac;
        let n_bin = dac.spec().binary_bits as usize;
        let seg = 1usize << n_bin;
        let n_unary = dac.n_unary();
        let weights = dac.weights();

        // Per-cell binary terms, hoisted out of the residue loop (the
        // fused walk recomputes `wᵢ·(1 + scaleᵢ·zᵢ)` per residue; the float
        // is identical either way).
        for (i, term) in ls.terms.iter_mut().enumerate() {
            let w = weights[i] as f64;
            let sc = self.scale[i];
            let z = &ls.zs[i];
            for l in 0..W {
                term[l] = w * (1.0 + sc * z[l]);
            }
        }

        // Binary table by recursive doubling. `bin[r]` accumulates its
        // set-bit terms in ascending bit order — the same left-to-right
        // add sequence as the scalar loop, hence bitwise identical.
        ls.bin_levels[0] = [0.0; W];
        for (i, term) in ls.terms.iter().enumerate() {
            let half = 1usize << i;
            let (lo, hi) = ls.bin_levels.split_at_mut(half);
            for (src, dst) in lo.iter().zip(hi.iter_mut()) {
                for l in 0..W {
                    dst[l] = src[l] + term[l];
                }
            }
        }

        // Unary cumulative sums in switching-rank order.
        ls.unary_cum[0] = [0.0; W];
        let mut acc = [0.0; W];
        for (rank, (&cell, &w)) in self.unary_cells.iter().zip(&self.unary_w).enumerate() {
            let sc = self.scale[cell];
            let z = &ls.zs[cell];
            for l in 0..W {
                acc[l] += w * (1.0 + sc * z[l]);
            }
            ls.unary_cum[rank + 1] = acc;
        }

        // Rounding slack: every screened quantity below differs from its
        // exact fused-walk float by at most ~20 ulps of the full-scale
        // magnitude (both sides read the *same* table floats; the error
        // comes only from re-associating a handful of adds/multiplies).
        // 64 ulps leaves a 3x safety factor.
        let n_codes = dac.max_code() + 1;
        let denom = (n_codes - 1) as f64;
        let mut first = [0.0; W];
        let mut last = [0.0; W];
        let mut gain = [0.0; W];
        let mut eps = [0.0; W];
        for l in 0..W {
            first[l] = ls.bin_levels[0][l] + ls.unary_cum[0][l];
            last[l] = ls.bin_levels[seg - 1][l] + ls.unary_cum[n_unary][l];
            gain[l] = (last[l] - first[l]) / denom;
            let mag = 1.0f64
                .max(first[l].abs())
                .max(last[l].abs())
                .max((gain[l] * denom).abs());
            eps[l] = 64.0 * f64::EPSILON * mag;
        }

        // INL screen: with code k = t·2^b + r, the endpoint-fit INL is (in
        // real arithmetic) A_r + B_t, so max_k |INL| is reached at one of
        // the A extremes over the residues...
        let mut a_min = [f64::INFINITY; W];
        let mut a_max = [f64::NEG_INFINITY; W];
        for (r, bl) in ls.bin_levels.iter().enumerate() {
            let rf = r as f64;
            for l in 0..W {
                let a = bl[l] - gain[l] * rf;
                a_min[l] = a_min[l].min(a);
                a_max[l] = a_max[l].max(a);
            }
        }
        // ...and B extremes over the blocks. |A + b| is convex in b, so the
        // worst code lies at a B extreme. Two reduction lanes keep the
        // min/max latency chains off the critical path; the folds are
        // exact, so their order never changes a value.
        let mut b_lo = [[f64::INFINITY; W]; 2];
        let mut b_hi = [[f64::NEG_INFINITY; W]; 2];
        let mut t = 0usize;
        while t + 2 <= n_unary + 1 {
            let c0 = &ls.unary_cum[t];
            let c1 = &ls.unary_cum[t + 1];
            let off0 = (t * seg) as f64;
            let off1 = ((t + 1) * seg) as f64;
            for l in 0..W {
                let b0 = (c0[l] - gain[l] * off0) - first[l];
                let b1 = (c1[l] - gain[l] * off1) - first[l];
                b_lo[0][l] = b_lo[0][l].min(b0);
                b_hi[0][l] = b_hi[0][l].max(b0);
                b_lo[1][l] = b_lo[1][l].min(b1);
                b_hi[1][l] = b_hi[1][l].max(b1);
            }
            t += 2;
        }
        if t <= n_unary {
            let c = &ls.unary_cum[t];
            let off = (t * seg) as f64;
            for l in 0..W {
                let b = (c[l] - gain[l] * off) - first[l];
                b_lo[0][l] = b_lo[0][l].min(b);
                b_hi[0][l] = b_hi[0][l].max(b);
            }
        }
        let mut inl_screen = [0.0f64; W];
        for l in 0..W {
            let b_min = b_lo[0][l].min(b_lo[1][l]);
            let b_max = b_hi[0][l].max(b_hi[1][l]);
            inl_screen[l] = (a_max[l] + b_max)
                .abs()
                .max((a_max[l] + b_min).abs())
                .max((a_min[l] + b_max).abs())
                .max((a_min[l] + b_min).abs());
        }

        // In-block DNL / monotonicity: within a unary block every step is a
        // binary delta, identical across blocks up to rounding.
        let mut block_dnl = [0.0f64; W];
        let mut block_min_diff = [f64::INFINITY; W];
        for r in 1..seg {
            let cur = ls.bin_levels[r];
            let prev = ls.bin_levels[r - 1];
            for l in 0..W {
                let diff = cur[l] - prev[l];
                block_dnl[l] = block_dnl[l].max((diff - 1.0).abs());
                block_min_diff[l] = block_min_diff[l].min(diff);
            }
        }

        // Block-boundary codes (residue wraps 2^b−1 → 0): only n_unary of
        // them, evaluated with the exact fused-walk expressions, again in
        // two reduction lanes.
        let bl_first = ls.bin_levels[0];
        let bl_last = ls.bin_levels[seg - 1];
        let mut bd = [[0.0f64; W]; 2];
        let mut boundary_monotone = [true; W];
        let mut t = 1usize;
        while t + 1 <= n_unary {
            let cm1 = &ls.unary_cum[t - 1];
            let c = &ls.unary_cum[t];
            let cp1 = &ls.unary_cum[t + 1];
            for l in 0..W {
                let prev0 = bl_last[l] + cm1[l];
                let level0 = bl_first[l] + c[l];
                let dnl0 = level0 - prev0 - 1.0;
                bd[0][l] = bd[0][l].max(dnl0.abs());
                boundary_monotone[l] &= level0 >= prev0;
                let prev1 = bl_last[l] + c[l];
                let level1 = bl_first[l] + cp1[l];
                let dnl1 = level1 - prev1 - 1.0;
                bd[1][l] = bd[1][l].max(dnl1.abs());
                boundary_monotone[l] &= level1 >= prev1;
            }
            t += 2;
        }
        if t <= n_unary {
            let cm1 = &ls.unary_cum[t - 1];
            let c = &ls.unary_cum[t];
            for l in 0..W {
                let prev = bl_last[l] + cm1[l];
                let level = bl_first[l] + c[l];
                let dnl = level - prev - 1.0;
                bd[0][l] = bd[0][l].max(dnl.abs());
                boundary_monotone[l] &= level >= prev;
            }
        }

        // Verdicts and counters per active lane, in lane order — one
        // trial's worth of accounting per lane, so every work counter is
        // independent of `W` and of how trials group.
        let scan = (seg + n_unary + 1) as u64;
        let mut out = [[false; 3]; W];
        for l in 0..active {
            self.trials_run += 1;
            obs::incr(obs::Counter::YieldTrials);
            self.codes_scanned += scan;
            obs::count(obs::Counter::YieldCodesScanned, scan);
            let boundary_dnl = bd[0][l].max(bd[1][l]);
            let inl_pass = if inl_screen[l] + eps[l] < self.limits.inl {
                Some(true)
            } else if inl_screen[l] - eps[l] >= self.limits.inl {
                Some(false)
            } else {
                None
            };
            let dnl_lo = boundary_dnl.max(block_dnl[l] - eps[l]);
            let dnl_hi = boundary_dnl.max(block_dnl[l] + eps[l]);
            let dnl_pass = if dnl_hi < self.limits.dnl {
                Some(true)
            } else if dnl_lo >= self.limits.dnl {
                Some(false)
            } else {
                None
            };
            let mono = if !boundary_monotone[l] || block_min_diff[l] < -eps[l] {
                Some(false)
            } else if block_min_diff[l] > eps[l] {
                Some(true)
            } else {
                None
            };
            if let (Some(i), Some(d), Some(m)) = (inl_pass, dnl_pass, mono) {
                obs::incr(obs::Counter::YieldScreened);
                out[l] = [i, d, m];
                continue;
            }
            // This lane grazed a limit's rounding band: fall back to the
            // exact fused walk on the lane's own draw.
            self.fallbacks += 1;
            obs::incr(obs::Counter::YieldFallbacks);
            for (slot, row) in self.scratch.zs.iter_mut().zip(&ls.zs) {
                *slot = row[l];
            }
            let m = self.eval_batched();
            out[l] = m.flags(&self.limits);
        }
        out
    }

    /// Classifies `trials` trials in lane groups of `W` (the final group
    /// masks its unused lanes), drawing each trial's standard-normal vector
    /// with `fill` in trial order, and hands every trial's flags to `sink`
    /// in trial order.
    fn classify_stream<const W: usize>(
        &mut self,
        ls: &mut LaneScratch<W>,
        trials: u64,
        mut fill: impl FnMut(&mut [f64]),
        mut sink: impl FnMut([bool; 3]),
    ) {
        let mut done = 0u64;
        while done < trials {
            let active = ((trials - done) as usize).min(W);
            self.draw_lane_group(&mut fill, active, ls);
            for &flags in &self.classify_lane_group(ls, active)[..active] {
                sink(flags);
            }
            done += active as u64;
        }
    }

    /// Certification entry: [`Self::run`] in [`YieldMode::Lanes`] at an
    /// explicit lane width. Decisions — and therefore counts — are
    /// bit-identical to [`Self::run`] in either [`YieldMode`] for the same
    /// RNG stream, at any `W ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn run_lanes<const W: usize, R: Rng + ?Sized>(
        &mut self,
        trials: u64,
        rng: &mut R,
    ) -> Result<FusedYields, MetricError> {
        if trials == 0 {
            return Err(MetricError::Stats(StatsError::NoTrials));
        }
        let mut ls = LaneScratch::<W>::for_dac(self.dac);
        let mut counts = [0u64; 3];
        self.classify_stream(&mut ls, trials, normal_fill(rng), |f| tally(&mut counts, f));
        FusedYields::from_counts(counts, trials)
    }

    /// Per-trial pass/fail flags of `trials` lane-classified trials, in
    /// trial order — the differential-test surface: each entry must
    /// equal the corresponding [`Self::trial_flags`] result (either
    /// mode) on the same stream.
    pub fn flags_lanes<const W: usize, R: Rng + ?Sized>(
        &mut self,
        trials: u64,
        rng: &mut R,
    ) -> Vec<[bool; 3]> {
        let mut ls = LaneScratch::<W>::for_dac(self.dac);
        let mut out = Vec::with_capacity(trials as usize);
        self.classify_stream(&mut ls, trials, normal_fill(rng), |f| out.push(f));
        out
    }
}

/// One trial's standard-normal draw: a fresh [`NormalSampler`] per trial,
/// bit-identical to the stream [`CellErrors::random`] consumes.
fn normal_fill<R: Rng + ?Sized>(rng: &mut R) -> impl FnMut(&mut [f64]) + '_ {
    move |zs| NormalSampler::new().fill(rng, zs)
}

/// Adds one trial's pass flags into per-metric pass counts.
fn tally(counts: &mut [u64], flags: [bool; 3]) {
    for (count, flag) in counts.iter_mut().zip(flags) {
        *count += u64::from(flag);
    }
}

/// The per-cell draw scale `σ_unit/√w` — precomputed once so every trial
/// applies the exact expression `CellErrors::random` uses.
fn draw_scale(dac: &SegmentedDac, sigma_unit: f64) -> Vec<f64> {
    dac.weights()
        .iter()
        .map(|&w| sigma_unit / (w as f64).sqrt())
        .collect()
}

/// Fused yields at several design points (unit-source sigmas) under
/// common random numbers: every trial draws **one** standard-normal
/// vector and evaluates it at every sigma, so yield *differences* across
/// the sweep are low-variance.
///
/// # Errors
///
/// [`MetricError::InvalidSigma`] for a bad sigma, [`MetricError::Stats`]
/// with `NoTrials`/`EmptyData` for an empty run.
pub fn fused_yields_crn<R: Rng + ?Sized>(
    dac: &SegmentedDac,
    sigmas: &[f64],
    limits: YieldLimits,
    trials: u64,
    rng: &mut R,
) -> Result<Vec<FusedYields>, MetricError> {
    if sigmas.is_empty() {
        return Err(MetricError::Stats(StatsError::EmptyData));
    }
    if trials == 0 {
        return Err(MetricError::Stats(StatsError::NoTrials));
    }
    for &sigma in sigmas {
        if !(sigma.is_finite() && sigma >= 0.0) {
            return Err(MetricError::InvalidSigma { value: sigma });
        }
    }
    let scales: Vec<Vec<f64>> = sigmas.iter().map(|&s| draw_scale(dac, s)).collect();
    let mut engine = YieldEngine::build(dac, sigmas[0], limits);
    let mut ls = LaneScratch::<LANE_W>::for_dac(dac);
    let mut fill = normal_fill(rng);
    let mut counts = vec![[0u64; 3]; sigmas.len()];
    let mut done = 0u64;
    while done < trials {
        let active = ((trials - done) as usize).min(LANE_W);
        engine.draw_lane_group(&mut fill, active, &mut ls);
        for (scale, point_counts) in scales.iter().zip(counts.iter_mut()) {
            engine.scale.clone_from(scale);
            for &flags in &engine.classify_lane_group(&mut ls, active)[..active] {
                tally(point_counts, flags);
            }
        }
        done += active as u64;
    }
    counts
        .into_iter()
        .map(|c| FusedYields::from_counts(c, trials))
        .collect()
}

/// Failure modes of the supervised fused-yield driver.
#[derive(Debug)]
pub enum FusedYieldError {
    /// Invalid engine inputs (limits, sigma) or ill-posed counts.
    Metric(MetricError),
    /// Pool, journal or retry-exhaustion failures.
    Runtime(RuntimeError),
}

impl fmt::Display for FusedYieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Metric(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FusedYieldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Metric(e) => Some(e),
            Self::Runtime(e) => Some(e),
        }
    }
}

impl From<MetricError> for FusedYieldError {
    fn from(e: MetricError) -> Self {
        Self::Metric(e)
    }
}

impl From<RuntimeError> for FusedYieldError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

/// Runs the yield engine under the supervised pool: trials are chunked
/// per [`McPlan`], every chunk builds its own engine and classifies its own
/// `stream_rng(seed, chunk)` stream in trial order ([`YieldMode::Lanes`]:
/// eight-wide groups, the chunk's remainder trials forming one masked
/// partial group). The pooled counts are bit-identical for any `--jobs`
/// value, across kill + resume, and between the two modes for the same
/// plan — so the modes share one journal identity and can resume from each
/// other's journals.
///
/// # Errors
///
/// [`FusedYieldError::Metric`] for invalid engine inputs,
/// [`FusedYieldError::Runtime`] for pool/journal failures.
pub fn fused_yields_supervised(
    dac: &SegmentedDac,
    sigma_unit: f64,
    limits: YieldLimits,
    mode: YieldMode,
    plan: &McPlan,
    policy: &ExecPolicy,
) -> Result<Supervised<FusedYields>, FusedYieldError> {
    // Validate once up front so per-chunk engine builds are infallible.
    YieldEngine::new(dac, sigma_unit, limits)?;
    let spec = dac.spec();
    let params = format!(
        "fused;sigma={sigma_unit};inl={};dnl={};bits={};bin={};cells={}",
        limits.inl,
        limits.dnl,
        spec.n_bits,
        spec.binary_bits,
        dac.n_cells(),
    );
    let out = yield_vector_supervised_chunked(
        policy,
        plan,
        &params,
        3,
        || {
            (
                YieldEngine::build(dac, sigma_unit, limits),
                LaneScratch::<LANE_W>::for_dac(dac),
            )
        },
        |(engine, ls), rng, _start, len, passes| match mode {
            YieldMode::Lanes => {
                engine.classify_stream(ls, len, normal_fill(rng), |f| tally(passes, f));
            }
            YieldMode::Reference => {
                for _ in 0..len {
                    tally(passes, engine.trial_flags(YieldMode::Reference, rng));
                }
            }
        },
    )?;
    // The driver returns exactly `metrics = 3` estimates.
    Ok(out.map(|v| FusedYields {
        inl: v[0],
        dnl: v[1],
        monotonicity: v[2],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_core::DacSpec;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::stream_rng;

    fn small_spec() -> DacSpec {
        let base = DacSpec::paper_12bit();
        DacSpec::new(8, 4, 0.997, base.env, base.tech)
    }

    #[test]
    fn fused_walk_matches_reference_bitwise() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let mut engine =
            YieldEngine::new(&dac, spec.sigma_unit_spec() * 2.0, YieldLimits::half_lsb())
                .expect("engine");
        let mut rng_a = seeded_rng(77);
        let mut rng_b = seeded_rng(77);
        for _ in 0..50 {
            let fast = engine.trial(YieldMode::Lanes, &mut rng_a);
            let slow = engine.trial(YieldMode::Reference, &mut rng_b);
            assert_eq!(fast.inl_max.to_bits(), slow.inl_max.to_bits());
            assert_eq!(fast.dnl_max.to_bits(), slow.dnl_max.to_bits());
            assert_eq!(fast.monotone, slow.monotone);
        }
    }

    #[test]
    fn fused_walk_matches_reference_bitwise_with_custom_order() {
        let spec = small_spec();
        let n = spec.unary_source_count();
        let order: Vec<usize> = (0..n).rev().collect();
        let dac = SegmentedDac::new(&spec).with_unary_order(order);
        let mut engine =
            YieldEngine::new(&dac, spec.sigma_unit_spec() * 3.0, YieldLimits::half_lsb())
                .expect("engine");
        let mut rng_a = seeded_rng(78);
        let mut rng_b = seeded_rng(78);
        for _ in 0..20 {
            let fast = engine.trial(YieldMode::Lanes, &mut rng_a);
            let slow = engine.trial(YieldMode::Reference, &mut rng_b);
            assert_eq!(fast.inl_max.to_bits(), slow.inl_max.to_bits());
            assert_eq!(fast.dnl_max.to_bits(), slow.dnl_max.to_bits());
            assert_eq!(fast.monotone, slow.monotone);
        }
    }

    #[test]
    fn engine_draw_matches_cell_errors_random() {
        // Same RNG stream ⇒ the engine's trial sees the exact error
        // vector `CellErrors::random` would have produced.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec();
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_a = seeded_rng(5);
        let mut rng_b = seeded_rng(5);
        normal_fill(&mut rng_a)(&mut engine.scratch.zs);
        let expect = CellErrors::random(&dac, sigma, &mut rng_b);
        let got: Vec<f64> = engine
            .scale
            .iter()
            .zip(&engine.scratch.zs)
            .map(|(&sc, &z)| sc * z)
            .collect();
        assert_eq!(got, expect.rel());
    }

    #[test]
    fn plain_reduced_run_reproduces_lanes_run() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_a = seeded_rng(13);
        let plain = engine
            .run_reduced(VarianceReduction::Plain, 200, &mut rng_a)
            .expect("plain");
        let mut rng_b = seeded_rng(13);
        let lanes = engine
            .run(YieldMode::Lanes, 200, &mut rng_b)
            .expect("lanes");
        assert_eq!(plain, lanes);
    }

    #[test]
    fn antithetic_and_stratified_runs_stay_statistically_sane() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec();
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        for scheme in [
            VarianceReduction::Antithetic,
            VarianceReduction::Stratified { strata: 64 },
        ] {
            let mut rng = seeded_rng(21);
            let yields = engine.run_reduced(scheme, 400, &mut rng).expect("reduced");
            assert!(
                yields.inl.estimate() > 0.9,
                "{scheme:?}: {}",
                yields.inl.estimate()
            );
            assert!(yields.monotonicity.estimate() >= yields.dnl.estimate());
        }
    }

    #[test]
    fn sequential_run_decides_fast_at_spec_sigma() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        // Spec sigma delivers ~99.9 % INL yield at 8 bits; testing
        // against a 90 % target must pass early.
        let mut engine = YieldEngine::new(&dac, spec.sigma_unit_spec(), YieldLimits::half_lsb())
            .expect("engine");
        let test = YieldTest::new(0.90, 2.576, 20_000, 50).expect("test");
        let mut rng = seeded_rng(3);
        let out = engine
            .run_sequential(YieldMode::Lanes, YieldMetric::Inl, &test, &mut rng)
            .expect("sequential");
        assert_eq!(out.decision, ctsdac_stats::YieldDecision::Pass);
        assert!(out.estimate.trials() < 20_000, "stopped early");
    }

    #[test]
    fn crn_sweep_orders_yields_by_sigma() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let s = spec.sigma_unit_spec();
        let mut rng = seeded_rng(41);
        let sweep = fused_yields_crn(
            &dac,
            &[s, 2.0 * s, 4.0 * s],
            YieldLimits::half_lsb(),
            300,
            &mut rng,
        )
        .expect("sweep");
        assert_eq!(sweep.len(), 3);
        // Common random numbers: yields are monotone in sigma trial by
        // trial (a heavier draw can only fail more), not just on average.
        assert!(sweep[0].inl.passes() >= sweep[1].inl.passes());
        assert!(sweep[1].inl.passes() >= sweep[2].inl.passes());
    }

    #[test]
    fn crn_sweep_first_point_matches_single_run() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut rng_a = seeded_rng(55);
        let sweep = fused_yields_crn(&dac, &[sigma], YieldLimits::half_lsb(), 250, &mut rng_a)
            .expect("sweep");
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_b = seeded_rng(55);
        let single = engine
            .run(YieldMode::Lanes, 250, &mut rng_b)
            .expect("single");
        assert_eq!(sweep[0], single);
    }

    #[test]
    fn work_counter_tracks_screened_scans_and_exact_walks() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let mut engine = YieldEngine::new(&dac, 0.01, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(1);
        // At this sigma no metric grazes its limit, so every trial stays
        // on the screened block scan.
        let scan = (1u64 << spec.binary_bits) + dac.n_unary() as u64 + 1;
        engine.run(YieldMode::Lanes, 10, &mut rng).expect("run");
        assert_eq!(engine.trials_run(), 10);
        assert_eq!(engine.fallbacks(), 0);
        assert_eq!(engine.codes_scanned(), 10 * scan);
        // An explicit exact-metrics trial walks the whole curve.
        engine.trial(YieldMode::Lanes, &mut rng);
        assert_eq!(engine.codes_scanned(), 10 * scan + (dac.max_code() + 1));
    }

    #[test]
    fn screened_classification_matches_exact_flags() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        // 4x spec sigma puts a healthy share of trials on the fail side
        // of every metric, so both decisions are exercised.
        for mult in [1.0, 2.0, 4.0] {
            let sigma = spec.sigma_unit_spec() * mult;
            let mut engine =
                YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let limits = *engine.limits();
            let mut rng_a = seeded_rng(91);
            let mut rng_b = seeded_rng(91);
            for _ in 0..200 {
                let screened = engine.trial_flags(YieldMode::Lanes, &mut rng_a);
                let exact = engine.trial(YieldMode::Reference, &mut rng_b);
                assert_eq!(screened, exact.flags(&limits), "sigma mult {mult}");
            }
        }
    }

    #[test]
    fn threshold_grazing_limits_fall_back_to_the_exact_pass() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(7);
        let exact = probe.trial(YieldMode::Lanes, &mut rng);
        // A limit equal to the trial's exact INL lies inside the screen's
        // rounding band by construction, forcing the exact fallback; the
        // decision is still the exact strict `<` (a tie fails).
        let limits = YieldLimits::new(exact.inl_max, 0.5).expect("limits");
        let mut engine = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng = seeded_rng(7);
        let flags = engine.trial_flags(YieldMode::Lanes, &mut rng);
        assert_eq!(engine.fallbacks(), 1);
        assert!(!flags[0], "inl_max < inl_max must fail");
    }

    #[test]
    fn supervised_fused_yields_are_jobs_invariant_and_mode_invariant() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let plan = McPlan::new(7, 2_000, 250).expect("plan");
        let baseline = fused_yields_supervised(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            YieldMode::Lanes,
            &plan,
            &ExecPolicy::sequential(),
        )
        .expect("baseline");
        for jobs in [2, 8] {
            let out = fused_yields_supervised(
                &dac,
                sigma,
                YieldLimits::half_lsb(),
                YieldMode::Lanes,
                &plan,
                &ExecPolicy::with_jobs(jobs),
            )
            .expect("parallel");
            assert_eq!(out.value, baseline.value, "jobs = {jobs}");
        }
        let reference = fused_yields_supervised(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            YieldMode::Reference,
            &plan,
            &ExecPolicy::with_jobs(4),
        )
        .expect("reference");
        assert_eq!(reference.value, baseline.value);
    }

    #[test]
    fn supervised_chunk_streams_match_manual_chunking() {
        // The supervised counts are exactly what hand-rolled per-chunk
        // engines over `stream_rng(seed, chunk)` produce.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let plan = McPlan::new(19, 700, 128).expect("plan");
        let out = fused_yields_supervised(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            YieldMode::Lanes,
            &plan,
            &ExecPolicy::sequential(),
        )
        .expect("supervised");
        let mut passes = 0u64;
        for chunk in 0..plan.chunks() {
            let mut engine =
                YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = stream_rng(plan.seed, chunk);
            for _ in 0..plan.chunk_len(chunk) {
                let m = engine.trial(YieldMode::Lanes, &mut rng);
                passes += u64::from(m.flags(&YieldLimits::half_lsb())[0]);
            }
        }
        assert_eq!(out.value.inl.passes(), passes);
        assert_eq!(out.value.inl.trials(), 700);
    }

    #[test]
    fn lane_run_matches_reference_run_at_every_width() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut reference = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(31);
        let oracle = reference
            .run(YieldMode::Reference, 257, &mut rng)
            .expect("reference");

        let mut lanes1 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(31);
        assert_eq!(
            lanes1.run_lanes::<1, _>(257, &mut rng).expect("lanes1"),
            oracle
        );
        let mut lanes4 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(31);
        assert_eq!(
            lanes4.run_lanes::<4, _>(257, &mut rng).expect("lanes4"),
            oracle
        );
        let mut lanes8 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(31);
        assert_eq!(
            lanes8.run(YieldMode::Lanes, 257, &mut rng).expect("lanes8"),
            oracle
        );

        // Work counters are lane-width-invariant: identical trial,
        // code-scan and fallback totals at W = 1, 4 and 8.
        let counters = |e: &YieldEngine<'_>| (e.trials_run(), e.codes_scanned(), e.fallbacks());
        assert_eq!(counters(&lanes4), counters(&lanes1));
        assert_eq!(counters(&lanes8), counters(&lanes1));
        assert_eq!(lanes1.trials_run(), 257);
    }

    #[test]
    fn lane_flags_match_reference_per_trial_at_every_remainder() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 4.0;
        for extra in 0..8u64 {
            let trials = 16 + extra;
            let mut lanes = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = seeded_rng(500 + extra);
            let flags = lanes.flags_lanes::<8, _>(trials, &mut rng);
            let mut reference =
                YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = seeded_rng(500 + extra);
            for (trial, lane_flags) in flags.iter().enumerate() {
                let exact = reference.trial_flags(YieldMode::Reference, &mut rng);
                assert_eq!(*lane_flags, exact, "trial {trial} of {trials}");
            }
        }
    }

    #[test]
    fn lane_fallbacks_are_lane_width_invariant() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(7);
        let exact = probe.trial(YieldMode::Lanes, &mut rng);
        // A limit equal to a trial's exact INL sits inside the screen's
        // rounding band; a four-lane group must take the same per-lane
        // exact fallback a single lane takes, and only for that lane.
        let limits = YieldLimits::new(exact.inl_max, 0.5).expect("limits");
        let mut lanes = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng = seeded_rng(7);
        let flags = lanes.flags_lanes::<4, _>(4, &mut rng);
        assert_eq!(lanes.fallbacks(), 1);
        assert!(!flags[0][0], "inl_max < inl_max must fail");
        let mut scalar = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng = seeded_rng(7);
        for (trial, lane_flags) in flags.iter().enumerate() {
            assert_eq!(
                *lane_flags,
                scalar.trial_flags(YieldMode::Lanes, &mut rng),
                "trial {trial}"
            );
        }
        assert_eq!(scalar.fallbacks(), 1);
        assert_eq!(scalar.codes_scanned(), lanes.codes_scanned());
    }

    #[test]
    fn invalid_engine_inputs_are_typed_errors() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        assert_eq!(
            YieldEngine::new(&dac, -0.1, YieldLimits::half_lsb()).map(|_| ()),
            Err(MetricError::InvalidSigma { value: -0.1 })
        );
        assert_eq!(
            YieldLimits::new(0.5, 0.0).map(|_| ()),
            Err(MetricError::InvalidLimit {
                name: "DNL",
                value: 0.0
            })
        );
        let mut engine = YieldEngine::new(&dac, 0.01, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(1);
        assert!(engine.run(YieldMode::Lanes, 0, &mut rng).is_err());
        assert!(fused_yields_crn(&dac, &[], YieldLimits::half_lsb(), 10, &mut rng).is_err());
        assert!(
            fused_yields_crn(&dac, &[f64::NAN], YieldLimits::half_lsb(), 10, &mut rng).is_err()
        );
    }
}
