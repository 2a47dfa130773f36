//! Fixtures and oracles shared by the lanes-vs-oracle equivalence suites
//! (`lane_equivalence`, `mc_equivalence`, `sweep_equivalence`).

#![allow(dead_code)] // each test binary uses a subset

use ctsdac::core::explore::{DesignPoint, DesignSpace};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;

/// An 8-bit converter with 4 binary LSBs: small enough for thousands of
/// Monte-Carlo trials per test.
pub fn small_spec() -> DacSpec {
    let base = DacSpec::paper_12bit();
    DacSpec::new(8, 4, 0.997, base.env, base.tech)
}

/// The paper's 12-bit statistical design space on a `grid` x `grid` lattice.
pub fn space(grid: usize) -> DesignSpace {
    let spec = DacSpec::paper_12bit();
    DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(grid)
}

/// The bitwise sweep oracle: every grid point evaluated on its own by
/// [`DesignSpace::evaluate`], the cold scalar kernel, in row-major order.
pub fn per_point_oracle(space: &DesignSpace) -> Vec<DesignPoint> {
    let axis = space.axis();
    axis.iter()
        .flat_map(|&vov_cs| axis.iter().map(move |&vov_sw| (vov_cs, vov_sw)))
        .map(|(vov_cs, vov_sw)| space.evaluate(vov_cs, vov_sw))
        .collect()
}

/// Asserts two sweeps agree in every bit of every field.
pub fn assert_bitwise_eq(a: &[DesignPoint], b: &[DesignPoint], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: point counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.vov_cs.to_bits(),
            y.vov_cs.to_bits(),
            "{label}: vov_cs at {i}"
        );
        assert_eq!(
            x.vov_sw.to_bits(),
            y.vov_sw.to_bits(),
            "{label}: vov_sw at {i}"
        );
        assert_eq!(x.feasible, y.feasible, "{label}: feasible at {i}");
        assert_eq!(x.reason, y.reason, "{label}: reason at {i}");
        assert_eq!(
            x.total_area.to_bits(),
            y.total_area.to_bits(),
            "{label}: total_area at {i}"
        );
        assert_eq!(
            x.min_pole_hz.to_bits(),
            y.min_pole_hz.to_bits(),
            "{label}: min_pole_hz at {i}"
        );
        assert_eq!(
            x.settling_s.to_bits(),
            y.settling_s.to_bits(),
            "{label}: settling_s at {i}"
        );
        assert_eq!(x.rout.to_bits(), y.rout.to_bits(), "{label}: rout at {i}");
        assert_eq!(
            x.dc_i_out.to_bits(),
            y.dc_i_out.to_bits(),
            "{label}: dc_i_out at {i}"
        );
        assert_eq!(
            x.dc_saturated, y.dc_saturated,
            "{label}: dc_saturated at {i}"
        );
    }
}
