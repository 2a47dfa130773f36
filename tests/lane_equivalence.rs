//! Lanes-vs-oracle certification suite, end to end through the umbrella
//! crate. Each computation has one production kernel and one oracle:
//!
//! * the Monte-Carlo yield engine's SoA lane classifier
//!   ([`YieldMode::Lanes`]) against the scalar transfer-function chain
//!   ([`YieldMode::Reference`]);
//! * the dense lane sweep ([`SweepMode::Lanes`]) against per-point
//!   [`DesignSpace::evaluate`] (the cold scalar kernel, bitwise) and the
//!   independent [`SweepMode::Reference`] kernel (to solver tolerance).
//!
//! The production kernels must reproduce their oracles at lane widths 4
//! and 8, at every remainder lane count `n % W ∈ 0..W`, sequentially and
//! under the supervised pool at `--jobs 1` vs `--jobs 8`, with injected
//! faults and across journal resume — and every deterministic work counter
//! must be invariant in both the job count and the lane width.

mod equivalence;

use ctsdac::core::explore::{Objective, SweepMode, SweepStats};
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::yield_engine::{
    fused_yields_supervised, FusedYields, YieldEngine, YieldLimits, YieldMode,
};
use ctsdac::runtime::{truncate_tail, ExecPolicy, FaultPlan, McPlan};
use ctsdac::stats::sample::seeded_rng;
use ctsdac::stats::stream_rng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use equivalence::{assert_bitwise_eq, per_point_oracle, small_spec, space};

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// 2x spec sigma puts a visible fraction of trials on the fail side, so
/// bitwise equality between classifiers is not a trivial all-pass.
fn engine(dac: &SegmentedDac) -> YieldEngine<'_> {
    let sigma = dac.spec().sigma_unit_spec() * 2.0;
    YieldEngine::new(dac, sigma, YieldLimits::half_lsb()).expect("engine")
}

// ---------------------------------------------------------------------------
// Monte-Carlo lanes vs the reference oracle
// ---------------------------------------------------------------------------

/// The core remainder sweep: at both certified widths and in the
/// production run, every trial count residue `trials % W ∈ 0..W` (so the
/// final masked partial group takes every possible shape, including "no
/// partial group") reproduces both per-trial scalar paths — the
/// reference chain and the single-lane classifier — bit for bit on the
/// same seeded stream.
#[test]
fn lanes_match_both_scalar_modes_at_every_remainder() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let mut eng = engine(&dac);
    for offset in 0..8u64 {
        let trials = 240 + offset; // covers every residue mod 4 and mod 8
        for seed in [1u64, 2003, 0xDACD_ACDA] {
            let mut rng = seeded_rng(seed);
            let reference = eng
                .run(YieldMode::Reference, trials, &mut rng)
                .expect("reference run");
            let mut rng = seeded_rng(seed);
            let mut single = [0u64; 3];
            for _ in 0..trials {
                let flags = eng.trial_flags(YieldMode::Lanes, &mut rng);
                for (count, flag) in single.iter_mut().zip(flags) {
                    *count += u64::from(flag);
                }
            }
            assert_eq!(
                single,
                [
                    reference.inl.passes(),
                    reference.dnl.passes(),
                    reference.monotonicity.passes()
                ],
                "single lane vs reference, trials={trials} seed={seed}"
            );
            let mut rng = seeded_rng(seed);
            let production = eng
                .run(YieldMode::Lanes, trials, &mut rng)
                .expect("lanes run");
            let mut rng = seeded_rng(seed);
            let lanes4 = eng
                .run_lanes::<4, _>(trials, &mut rng)
                .expect("lanes<4> run");
            let mut rng = seeded_rng(seed);
            let lanes8 = eng
                .run_lanes::<8, _>(trials, &mut rng)
                .expect("lanes<8> run");
            assert_eq!(
                production, reference,
                "lanes vs reference, trials={trials} seed={seed}"
            );
            assert_eq!(
                lanes4, reference,
                "lanes<4> vs reference, trials={trials} seed={seed}"
            );
            assert_eq!(
                lanes8, reference,
                "lanes<8> vs reference, trials={trials} seed={seed}"
            );
            assert!(
                reference.inl.estimate() < 1.0,
                "trials={trials} seed={seed}: expected some INL failures at 2x spec sigma"
            );
        }
    }
}

/// Per-trial differential surface: the lane classifier's flag sequence
/// equals the per-trial one trial by trial in both modes, so any
/// disagreement pinpoints the exact trial (and lane) rather than washing
/// out in pooled counts.
#[test]
fn per_trial_flags_match_scalar_modes_in_trial_order() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let trials = 101u64; // 101 % 4 == 1, 101 % 8 == 5: both widths end on a partial group
    for seed in [7u64, 0xDACD_ACDA] {
        let mut eng = engine(&dac);
        let mut rng = seeded_rng(seed);
        let lanes4 = eng.flags_lanes::<4, _>(trials, &mut rng);
        let mut rng = seeded_rng(seed);
        let lanes8 = eng.flags_lanes::<8, _>(trials, &mut rng);
        for mode in [YieldMode::Reference, YieldMode::Lanes] {
            let mut rng = seeded_rng(seed);
            let scalar: Vec<[bool; 3]> = (0..trials)
                .map(|_| eng.trial_flags(mode, &mut rng))
                .collect();
            assert_eq!(lanes4, scalar, "lanes<4> vs {mode:?}, seed={seed}");
            assert_eq!(lanes8, scalar, "lanes<8> vs {mode:?}, seed={seed}");
        }
    }
}

/// The deterministic work counters (trials evaluated, transfer-curve
/// codes scanned, screen fallbacks) are lane-width-invariant: a fresh
/// engine run at W=1, W=4 and W=8 reports identical numbers for the same
/// stream. `codes_scanned` is the regression tripwire — a lane kernel that
/// silently re-walks the curve shows up here even on a noisy machine.
#[test]
fn work_counters_are_lane_width_invariant() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let trials = 501u64; // partial final group at both widths
    let seed = 2003u64;

    let counters = |run: &mut dyn FnMut(&mut YieldEngine<'_>)| -> (u64, u64, u64) {
        let mut eng = engine(&dac);
        run(&mut eng);
        (eng.trials_run(), eng.codes_scanned(), eng.fallbacks())
    };
    let single = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run_lanes::<1, _>(trials, &mut rng).expect("lanes<1>");
    });
    let lanes4 = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run_lanes::<4, _>(trials, &mut rng).expect("lanes<4>");
    });
    let lanes8 = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run_lanes::<8, _>(trials, &mut rng).expect("lanes<8>");
    });
    assert_eq!(lanes4, single, "lanes<4> counters vs single lane");
    assert_eq!(lanes8, single, "lanes<8> counters vs single lane");
    assert_eq!(
        single.0, trials,
        "trials_run accounts every trial exactly once"
    );
}

/// The acceptance criterion for the supervised pool: the lane-classified
/// chunked run agrees bit for bit with the supervised reference oracle,
/// at `--jobs 1` vs `--jobs 8`, on a plan whose chunks end in partial lane
/// groups (500 % 8 == 4, and a 103-trial tail chunk: 103 % 4 == 3,
/// 103 % 8 == 7) — and equals hand-rolled W=4 lane runs over the same
/// per-chunk streams, so the pooled counts do not depend on the width.
#[test]
fn supervised_lanes_match_scalar_supervised_across_jobs_and_widths() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_103, 500).expect("plan");
    let run = |mode: YieldMode, jobs: usize| -> FusedYields {
        fused_yields_supervised(
            &dac,
            sigma,
            limits,
            mode,
            &plan,
            &ExecPolicy::with_jobs(jobs),
        )
        .expect("supervised run")
        .value
    };

    let oracle = run(YieldMode::Reference, 1);
    assert_eq!(
        run(YieldMode::Reference, 8),
        oracle,
        "reference: jobs 1 vs 8"
    );
    for jobs in [1usize, 8] {
        assert_eq!(
            run(YieldMode::Lanes, jobs),
            oracle,
            "lanes vs reference, jobs={jobs}"
        );
    }

    let mut width4 = [0u64; 3];
    for chunk in 0..plan.chunks() {
        let mut eng = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng = stream_rng(plan.seed, chunk);
        let y = eng
            .run_lanes::<4, _>(plan.chunk_len(chunk), &mut rng)
            .expect("chunk run");
        for (acc, p) in width4.iter_mut().zip([y.inl, y.dnl, y.monotonicity]) {
            *acc += p.passes();
        }
    }
    assert_eq!(
        width4,
        [
            oracle.inl.passes(),
            oracle.dnl.passes(),
            oracle.monotonicity.passes()
        ]
    );
    assert_eq!(oracle.inl.trials(), 4_103);
    assert!(
        oracle.inl.estimate() < 1.0,
        "expected some INL failures at 2x spec sigma"
    );
}

/// Faults and resume on the supervised yield path: injected panics and a
/// NaN-corrupted chunk are retried without changing a count, and a lanes
/// run resumes from a truncated journal the reference oracle wrote — the
/// two modes share one journal identity because their decisions agree.
#[test]
fn supervised_lanes_survive_faults_and_resume_from_an_oracle_journal() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(77, 2_000, 137).expect("plan");
    let oracle = fused_yields_supervised(
        &dac,
        sigma,
        limits,
        YieldMode::Reference,
        &plan,
        &ExecPolicy::sequential(),
    )
    .expect("oracle")
    .value;

    let mut policy = ExecPolicy::with_jobs(8);
    policy.pool.faults = Some(Arc::new(FaultPlan::new().panic_at(1).panic_at(6).nan_at(9)));
    let faulty = fused_yields_supervised(&dac, sigma, limits, YieldMode::Lanes, &plan, &policy)
        .expect("faulty lanes run");
    assert_eq!(faulty.value, oracle);
    assert_eq!(
        faulty.faults.len(),
        3,
        "faults not surfaced: {:?}",
        faulty.faults
    );

    let path = tmp("lane-equivalence-yield.jsonl");
    std::fs::remove_file(&path).ok();
    let journaled = ExecPolicy::with_jobs(2).checkpoint_at(&path);
    fused_yields_supervised(&dac, sigma, limits, YieldMode::Reference, &plan, &journaled)
        .expect("journaled oracle run");
    truncate_tail(&path, 9).expect("corrupt the tail");
    let resuming = ExecPolicy::with_jobs(8).checkpoint_at(&path).resuming();
    let resumed = fused_yields_supervised(&dac, sigma, limits, YieldMode::Lanes, &plan, &resuming)
        .expect("resumed lanes run");
    assert_eq!(resumed.value, oracle);
    assert!(resumed.restored > 0, "resume must reuse journal chunks");
    assert!(resumed.dropped >= 1);
    assert_eq!(
        resumed.value.inl.trials(),
        2_000,
        "no trial lost or double-counted"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Sweep lanes vs the per-point and reference oracles
// ---------------------------------------------------------------------------

/// The sweep remainder sweep: grids 9..=16 make the row width run
/// through every residue mod 8 (and every residue mod 4), so the masked
/// tail of every lane row takes each possible shape. At each grid, both
/// certified widths and the production entry reproduce the cold scalar
/// kernel — the sweep's bitwise oracle — bit for bit.
#[test]
fn lanes_sweep_is_bit_identical_to_cold_at_every_row_remainder() {
    for grid in 9..=16usize {
        let lanes = space(grid);
        let cold = per_point_oracle(&lanes);
        let (grid4, _) = lanes.sweep_with_stats_lane_width::<4>();
        let (grid8, _) = lanes.sweep_with_stats_lane_width::<8>();
        assert_bitwise_eq(
            &grid4.into_points(),
            &cold,
            &format!("lanes<4> vs cold, grid={grid}"),
        );
        assert_bitwise_eq(
            &grid8.into_points(),
            &cold,
            &format!("lanes<8> vs cold, grid={grid}"),
        );
        // The production entry (whatever LANE_W is) must match too.
        assert_bitwise_eq(
            &lanes.sweep(),
            &cold,
            &format!("lanes production vs cold, grid={grid}"),
        );
    }
}

/// The independent reference kernel (different Jacobian, no polish)
/// corroborates the lane sweep at its documented tolerance: identical
/// feasibility decisions and closed-form metrics, DC solution within
/// 1e-6 relative. This breaks the "everyone shares the same bug"
/// symmetry the bitwise chain alone cannot rule out.
#[test]
fn lanes_sweep_agrees_with_the_independent_reference_kernel() {
    let grid = 13usize;
    let reference = space(grid).with_mode(SweepMode::Reference).sweep();
    let lanes = space(grid).sweep();
    assert_eq!(lanes.len(), reference.len());
    for (a, b) in lanes.iter().zip(&reference) {
        assert_eq!(a.feasible, b.feasible, "at ({}, {})", a.vov_cs, a.vov_sw);
        assert_eq!(a.reason, b.reason, "at ({}, {})", a.vov_cs, a.vov_sw);
        assert_eq!(a.total_area.to_bits(), b.total_area.to_bits());
        assert_eq!(a.min_pole_hz.to_bits(), b.min_pole_hz.to_bits());
        if a.dc_i_out != 0.0 {
            assert!(
                ((a.dc_i_out - b.dc_i_out) / a.dc_i_out).abs() < 1e-6,
                "dc mismatch at ({}, {}): {} vs {}",
                a.vov_cs,
                a.vov_sw,
                a.dc_i_out,
                b.dc_i_out
            );
            assert_eq!(a.dc_saturated, b.dc_saturated);
        }
    }
}

/// The DC-solver effort counters are lane-width-invariant: the deferred
/// work list, its solve count and its total Newton iterations do not
/// depend on how the rows were grouped into lanes.
#[test]
fn sweep_stats_are_lane_width_invariant() {
    for grid in [13usize, 16] {
        let lanes = space(grid);
        let (_, s4): (_, SweepStats) = lanes.sweep_with_stats_lane_width::<4>();
        let (_, s8): (_, SweepStats) = lanes.sweep_with_stats_lane_width::<8>();
        let (_, prod) = lanes.sweep_with_stats();
        assert_eq!(s4, s8, "grid={grid}: stats differ between W=4 and W=8");
        assert_eq!(
            s8, prod,
            "grid={grid}: production stats differ from explicit W=8"
        );
        assert!(s8.dc_solves > 0, "grid={grid}: sweep did no DC work");
        assert_eq!(s8.dc_failures, 0, "grid={grid}: unexpected DC failures");
    }
}

/// Lanes rows under the supervised pool: one chunk per row, any job
/// count, bit-identical to the sequential lanes sweep and to the per-point
/// oracle — at a grid whose rows end in a partial lane group
/// (13 % 8 == 5, 13 % 4 == 1).
#[test]
fn supervised_lanes_sweep_matches_sequential_across_jobs() {
    let lanes = space(13);
    let cold = per_point_oracle(&lanes);
    assert_bitwise_eq(&lanes.sweep(), &cold, "sequential lanes vs cold");
    for jobs in [1usize, 8] {
        let sup = lanes
            .sweep_supervised(&ExecPolicy::with_jobs(jobs))
            .expect("supervised lanes sweep");
        assert_bitwise_eq(&sup.value, &cold, &format!("lanes jobs={jobs} vs cold"));
    }
}

/// Fault injection (worker panics, a stalled chunk past its deadline)
/// triggers retries, and a crash leaves a journal with a torn tail: the
/// retried and the resumed sweeps must both reproduce the per-point
/// oracle bit for bit, with every row computed or restored exactly once.
#[test]
fn lanes_sweep_survives_injected_faults_and_resume_bit_identically() {
    const GRID: usize = 16;
    let lanes = space(GRID);
    let cold = per_point_oracle(&lanes);

    let plan = Arc::new(FaultPlan::new().panic_at(1).panic_at(6).delay_ms_at(4, 150));
    let mut policy = ExecPolicy::with_jobs(8);
    policy.pool.deadline = Some(Duration::from_millis(50));
    policy.pool.faults = Some(plan.clone());
    let faulty = lanes.sweep_supervised(&policy).expect("faulty lanes sweep");
    assert!(plan.fired() >= 3, "only {} faults fired", plan.fired());
    assert!(
        faulty.faults.len() >= 3,
        "faults not surfaced: {:?}",
        faulty.faults
    );
    assert_eq!(
        faulty.computed, GRID as u64,
        "every row computed exactly once"
    );
    assert_bitwise_eq(&faulty.value, &cold, "faulty lanes vs cold");

    let path = tmp("lane-equivalence-sweep.jsonl");
    std::fs::remove_file(&path).ok();
    lanes
        .sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&path))
        .expect("journaled sweep");
    truncate_tail(&path, 11).expect("corrupt the tail");
    let resumed = lanes
        .sweep_supervised(&ExecPolicy::with_jobs(8).checkpoint_at(&path).resuming())
        .expect("resumed sweep");
    assert!(resumed.restored > 0, "resume must reuse journal rows");
    assert!(resumed.dropped >= 1);
    assert_eq!(resumed.restored + resumed.computed, GRID as u64);
    assert_bitwise_eq(&resumed.value, &cold, "resumed lanes vs cold");
    std::fs::remove_file(&path).ok();
}

/// The adaptive sweep refines every feasibility boundary and the objective
/// optimum down to the dense lattice, so its optimum sits within one grid
/// cell of the dense sweep's — for both objectives.
#[test]
fn adaptive_optimum_is_within_one_cell_of_dense() {
    let s = space(16);
    let step = {
        let axis = s.axis();
        axis[1] - axis[0]
    };
    for objective in [Objective::MinArea, Objective::MaxSpeed] {
        let dense = s.optimize(objective).expect("dense optimum");
        let adaptive = s
            .optimize_adaptive(objective, f64::INFINITY)
            .expect("adaptive optimum");
        assert!(
            adaptive.feasible,
            "{objective:?}: adaptive optimum infeasible"
        );
        assert!(
            (adaptive.vov_cs - dense.vov_cs).abs() <= step * (1.0 + 1e-12),
            "{objective:?}: vov_cs {} vs dense {} exceeds one cell ({step})",
            adaptive.vov_cs,
            dense.vov_cs
        );
        assert!(
            (adaptive.vov_sw - dense.vov_sw).abs() <= step * (1.0 + 1e-12),
            "{objective:?}: vov_sw {} vs dense {} exceeds one cell ({step})",
            adaptive.vov_sw,
            dense.vov_sw
        );
    }
}

/// The adaptive sweep visits strictly fewer points than the dense lattice
/// it refines into — the speedup exists at all — while reporting the dense
/// point count it stands in for, and every point it visits is bitwise its
/// dense-lattice twin.
#[test]
fn adaptive_sweep_evaluates_a_strict_subset() {
    const GRID: usize = 16;
    let s = space(GRID);
    let sweep = s.sweep_adaptive(Objective::MinArea);
    assert_eq!(sweep.dense_equivalent, GRID * GRID);
    assert!(
        sweep.evaluated < sweep.dense_equivalent,
        "adaptive evaluated {} of {} — no savings",
        sweep.evaluated,
        sweep.dense_equivalent
    );
    assert!(sweep.levels >= 2, "no refinement happened");
    assert_eq!(sweep.points.len(), sweep.evaluated);
    let axis = s.axis();
    let dense = s.sweep();
    for p in &sweep.points {
        let i = axis.iter().position(|v| v.to_bits() == p.vov_cs.to_bits());
        let j = axis.iter().position(|v| v.to_bits() == p.vov_sw.to_bits());
        let (i, j) = i.zip(j).expect("adaptive point on the dense lattice");
        assert_bitwise_eq(
            &[*p],
            &dense[i * GRID + j..=i * GRID + j],
            "adaptive vs dense",
        );
    }
}
