//! Acceptance test for the production sweep kernel: the default dense
//! sweep ([`SweepMode::Lanes`], which replaced the row-chained warm-start
//! sweep) must be bit-identical to the cold per-point oracle, sequentially
//! and on the supervised pool at any job count.
//!
//! [`SweepMode::Lanes`]: ctsdac::core::explore::SweepMode::Lanes

mod equivalence;

use ctsdac::runtime::ExecPolicy;

use equivalence::{assert_bitwise_eq, per_point_oracle, space};

const GRID: usize = 16;

/// The production sweep is a pure accelerant: it reproduces the cold
/// per-point sweep bit for bit, sequentially and on the pool at 1 and 8
/// jobs.
#[test]
fn warm_sweep_is_bit_identical_to_cold_across_job_counts() {
    let production = space(GRID);
    let cold = per_point_oracle(&production);

    assert_bitwise_eq(&production.sweep(), &cold, "sequential lanes vs cold");
    for jobs in [1usize, 8] {
        let sup = production
            .sweep_supervised(&ExecPolicy::with_jobs(jobs))
            .expect("supervised lanes sweep");
        assert_bitwise_eq(&sup.value, &cold, &format!("lanes jobs={jobs} vs cold"));
    }
}
