//! Segmented DAC architecture: cells, weights, thermometer decoding.
//!
//! The converter of the paper's Fig. 1: `b` binary-weighted cells driven
//! straight from the input word (behind a delay-equalising dummy decoder)
//! plus `2^m − 1` unary cells of weight `2^b` driven by a thermometer
//! decoder. The order in which unary cells turn on (the *switching
//! sequence*) is irrelevant for random mismatch but decides how systematic
//! gradients accumulate — the layout crate optimises it; this module just
//! honours an arbitrary permutation.

use core::fmt;
use ctsdac_core::DacSpec;

/// A segmented current-steering DAC: cell inventory and decoder.
///
/// Cells are indexed `0..n_cells()`: first the `b` binary cells (weights
/// `1, 2, …, 2^{b−1}`), then the `2^m − 1` unary cells (weight `2^b` each).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedDac {
    spec: DacSpec,
    weights: Vec<u64>,
    /// `unary_order[rank]` = cell index (within the unary block) that turns
    /// on `rank`-th; `None` is the natural order, `rank` itself. An
    /// identity order is always stored as `None`, so the derived
    /// `PartialEq` compares orders, not representations.
    unary_order: Option<Vec<usize>>,
}

impl SegmentedDac {
    /// Builds the architecture of `spec` with the natural (sequential)
    /// unary switching order.
    pub fn new(spec: &DacSpec) -> Self {
        let b = spec.binary_bits;
        let n_unary = spec.unary_source_count();
        let mut weights = Vec::with_capacity(b as usize + n_unary);
        weights.extend((0..b).map(|i| 1u64 << i));
        weights.extend(std::iter::repeat_n(spec.unary_weight(), n_unary));
        Self {
            spec: *spec,
            weights,
            unary_order: None,
        }
    }

    /// Replaces the unary switching order. `order[rank]` names the unary
    /// cell (0-based within the unary block) that turns on `rank`-th.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..unary_source_count()`.
    pub fn with_unary_order(mut self, order: Vec<usize>) -> Self {
        let n = self.spec.unary_source_count();
        assert_eq!(order.len(), n, "order length {} != {n}", order.len());
        let mut seen = vec![false; n];
        for &cell in &order {
            assert!(cell < n, "cell index {cell} out of range");
            assert!(!seen[cell], "cell {cell} appears twice");
            seen[cell] = true;
        }
        let natural = order.iter().enumerate().all(|(rank, &cell)| rank == cell);
        self.unary_order = (!natural).then_some(order);
        self
    }

    /// The spec the architecture was built from.
    pub fn spec(&self) -> &DacSpec {
        &self.spec
    }

    /// Total number of cells (binary + unary).
    pub fn n_cells(&self) -> usize {
        self.weights.len()
    }

    /// Number of binary cells.
    pub fn n_binary(&self) -> usize {
        self.spec.binary_bits as usize
    }

    /// Number of unary cells.
    pub fn n_unary(&self) -> usize {
        self.spec.unary_source_count()
    }

    /// Per-cell LSB weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Largest representable code, `2ⁿ − 1`.
    pub fn max_code(&self) -> u64 {
        (1u64 << self.spec.n_bits) - 1
    }

    /// True if `cell` is a binary cell.
    pub fn is_binary(&self, cell: usize) -> bool {
        cell < self.n_binary()
    }

    /// Decodes `code` into per-cell switch states.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds [`Self::max_code`].
    pub fn decode(&self, code: u64) -> Vec<bool> {
        assert!(code <= self.max_code(), "code {code} out of range");
        let b = self.spec.binary_bits;
        let mut states = vec![false; self.n_cells()];
        for (i, state) in states.iter_mut().take(b as usize).enumerate() {
            *state = (code >> i) & 1 == 1;
        }
        let thermometer = (code >> b) as usize;
        for rank in 0..thermometer {
            states[b as usize + self.unary_cell(rank)] = true;
        }
        states
    }

    /// Ideal output level in LSBs for `code` (sanity: equals `code`).
    pub fn ideal_level(&self, code: u64) -> f64 {
        self.decode(code)
            .iter()
            .zip(&self.weights)
            .filter(|&(&on, _)| on)
            .map(|(_, &w)| w as f64)
            .sum()
    }

    /// Output level in LSBs for `code` under per-cell relative current
    /// errors (`errors[i]` = ΔI/I of cell `i`).
    ///
    /// # Panics
    ///
    /// Panics if `errors.len() != n_cells()`.
    pub fn output_level(&self, code: u64, errors: &[f64]) -> f64 {
        assert_eq!(errors.len(), self.n_cells(), "error vector length mismatch");
        self.decode(code)
            .iter()
            .zip(self.weights.iter().zip(errors))
            .filter(|&(&on, _)| on)
            .map(|(_, (&w, &e))| w as f64 * (1.0 + e))
            .sum()
    }

    /// The global cell index of the unary source that turns on `rank`-th.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n_unary()`.
    pub fn unary_cell_at_rank(&self, rank: usize) -> usize {
        assert!(rank < self.n_unary(), "rank {rank} out of range");
        self.n_binary() + self.unary_cell(rank)
    }

    /// The unary-block index of the cell that turns on `rank`-th.
    fn unary_cell(&self, rank: usize) -> usize {
        self.unary_order.as_ref().map_or(rank, |order| order[rank])
    }

    /// Which cells change state between two codes: `(turning_on,
    /// turning_off)` cell indices.
    pub fn switching_cells(&self, from: u64, to: u64) -> (Vec<usize>, Vec<usize>) {
        let a = self.decode(from);
        let b = self.decode(to);
        let mut on = Vec::new();
        let mut off = Vec::new();
        for i in 0..self.n_cells() {
            match (a[i], b[i]) {
                (false, true) => on.push(i),
                (true, false) => off.push(i),
                _ => {}
            }
        }
        (on, off)
    }
}

impl fmt::Display for SegmentedDac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit segmented DAC: {} binary + {} unary cells",
            self.spec.n_bits,
            self.n_binary(),
            self.n_unary()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dac() -> SegmentedDac {
        SegmentedDac::new(&DacSpec::paper_12bit())
    }

    #[test]
    fn cell_inventory_matches_spec() {
        let d = dac();
        assert_eq!(d.n_cells(), 259);
        assert_eq!(d.n_binary(), 4);
        assert_eq!(d.n_unary(), 255);
        assert_eq!(&d.weights()[..4], &[1, 2, 4, 8]);
        assert!(d.weights()[4..].iter().all(|&w| w == 16));
    }

    #[test]
    fn total_weight_covers_full_scale() {
        let d = dac();
        let total: u64 = d.weights().iter().sum();
        assert_eq!(total, d.max_code());
    }

    #[test]
    fn ideal_level_equals_code_for_every_code() {
        let spec = DacSpec::new(
            8,
            3,
            0.99,
            DacSpec::paper_12bit().env,
            DacSpec::paper_12bit().tech,
        );
        let d = SegmentedDac::new(&spec);
        for code in 0..=d.max_code() {
            assert_eq!(d.ideal_level(code), code as f64, "code {code}");
        }
    }

    #[test]
    fn decode_is_monotone_in_on_count_within_unary() {
        let d = dac();
        let at = |code: u64| d.decode(code).iter().filter(|&&s| s).count();
        // Stepping by one unary weight adds exactly one unary cell.
        let base = 16 * 7;
        assert_eq!(at(base as u64 + 16) - at(base as u64), 1);
    }

    #[test]
    fn custom_unary_order_changes_which_cell_fires_first() {
        let spec = DacSpec::new(
            6,
            2,
            0.99,
            DacSpec::paper_12bit().env,
            DacSpec::paper_12bit().tech,
        );
        let n = spec.unary_source_count();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let d = SegmentedDac::new(&spec).with_unary_order(reversed);
        let states = d.decode(4); // one unary cell on
        let unary_states = &states[2..];
        assert!(unary_states[n - 1]);
        assert!(!unary_states[0]);
    }

    #[test]
    fn identity_order_equals_the_natural_order() {
        let d = dac();
        let identity =
            SegmentedDac::new(&DacSpec::paper_12bit()).with_unary_order((0..d.n_unary()).collect());
        assert_eq!(identity, d);
        let mut swapped: Vec<usize> = (0..d.n_unary()).collect();
        swapped.swap(0, 1);
        let permuted = SegmentedDac::new(&DacSpec::paper_12bit()).with_unary_order(swapped);
        assert_ne!(permuted, d);
        assert_eq!(permuted.unary_cell_at_rank(0), d.n_binary() + 1);
        assert_eq!(permuted.unary_cell_at_rank(2), d.unary_cell_at_rank(2));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_rejected() {
        let spec = DacSpec::new(
            6,
            2,
            0.99,
            DacSpec::paper_12bit().env,
            DacSpec::paper_12bit().tech,
        );
        let n = spec.unary_source_count();
        let mut order: Vec<usize> = (0..n).collect();
        order[1] = 0;
        let _ = SegmentedDac::new(&spec).with_unary_order(order);
    }

    #[test]
    fn output_level_applies_errors_with_weight() {
        let d = dac();
        let mut errors = vec![0.0; d.n_cells()];
        errors[3] = 0.01; // binary weight-8 cell 1 % heavy
        let level = d.output_level(8, &errors);
        assert!((level - 8.08).abs() < 1e-12);
    }

    #[test]
    fn switching_cells_at_major_carry() {
        let d = dac();
        // 15 -> 16: all four binary cells turn off, one unary turns on.
        let (on, off) = d.switching_cells(15, 16);
        assert_eq!(on.len(), 1);
        assert_eq!(off.len(), 4);
        assert!(on[0] >= 4);
        assert!(off.iter().all(|&c| c < 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_code_rejected() {
        let d = dac();
        let _ = d.decode(4096);
    }
}
