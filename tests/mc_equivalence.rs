//! Acceptance tests for the Monte-Carlo yield engine, end to end through
//! the umbrella crate: the screened production classifier
//! ([`YieldMode::Lanes`], which replaced the scalar `Batched` screen) and
//! the scalar reference chain must produce **bit-identical** yield
//! estimates for the same seed, sequentially and under the supervised
//! pool at `--jobs 1` vs `--jobs 8`.

mod equivalence;

use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::yield_engine::{
    fused_yields_supervised, FusedYields, YieldEngine, YieldLimits, YieldMode,
};
use ctsdac::runtime::{ExecPolicy, McPlan};
use ctsdac::stats::sample::seeded_rng;

use equivalence::small_spec;

/// Sequential runs: the screened classifier vs the reference chain on the
/// same seeded stream give the same `FusedYields` value, exactly.
#[test]
fn batched_and_reference_yields_are_bit_identical_for_the_same_seed() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    // 2x spec sigma puts a visible fraction of trials on the fail side,
    // so the equality is not a trivial all-pass.
    let sigma = spec.sigma_unit_spec() * 2.0;
    let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
    for seed in [1u64, 2003, 0xDACD_ACDA] {
        let mut rng = seeded_rng(seed);
        let screened = engine
            .run(YieldMode::Lanes, 1_500, &mut rng)
            .expect("lanes run");
        let mut rng = seeded_rng(seed);
        let reference = engine
            .run(YieldMode::Reference, 1_500, &mut rng)
            .expect("reference run");
        assert_eq!(screened, reference, "seed {seed}");
        assert!(
            screened.inl.estimate() < 1.0,
            "seed {seed}: expected some INL failures at 2x spec sigma"
        );
    }
}

/// The acceptance criterion: supervised runs are invariant in `--jobs`
/// (1 vs 8) in both modes and agree bit for bit across the modes at the
/// same seed.
#[test]
fn supervised_yields_match_across_jobs_1_and_8_and_both_modes() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_000, 500).expect("plan");

    let run = |mode: YieldMode, policy: &ExecPolicy| -> FusedYields {
        fused_yields_supervised(&dac, sigma, limits, mode, &plan, policy)
            .expect("supervised run")
            .value
    };

    let lanes_1 = run(YieldMode::Lanes, &ExecPolicy::with_jobs(1));
    let lanes_8 = run(YieldMode::Lanes, &ExecPolicy::with_jobs(8));
    assert_eq!(lanes_1, lanes_8, "lanes: jobs 1 vs 8");

    let reference_1 = run(YieldMode::Reference, &ExecPolicy::with_jobs(1));
    let reference_8 = run(YieldMode::Reference, &ExecPolicy::with_jobs(8));
    assert_eq!(reference_1, reference_8, "reference: jobs 1 vs 8");

    assert_eq!(lanes_1, reference_1, "lanes vs reference");
    assert_eq!(lanes_1.inl.trials(), 4_000);
    assert!(lanes_1.inl.estimate() < 1.0, "non-trivial failure rate");
}
