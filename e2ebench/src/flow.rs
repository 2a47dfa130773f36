//! `flow-batch`: the `dacsizer` user's path, in process. A closed loop
//! with one client runs seeded items back to back on a pool of
//! `jobs = nproc`; each item is the sizing flow, its saturation-yield
//! check and the eq. (1) INL-yield check. No service layer is involved.

use crate::daemon::vm_hwm_mb;
use crate::inputs::key_of;
use crate::inputs::{flow_items, FlowItem, FLOW_GRID, INL_TRIALS, SAT_CHUNK, SAT_TRIALS};
use crate::layers::{front_metrics, result_part, time_puts, time_recovery, Replayer};
use crate::loadgen::WireRequest;
use crate::report::{Metrics, Run};
use crate::stats;
use crate::trace::Tracer;
use ctsdac::core::explore::DesignSpace;
use ctsdac::core::flow::run_flow_supervised;
use ctsdac::core::validate::saturation_yield_supervised;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::static_metrics::inl_yield_mc;
use ctsdac::obs;
use ctsdac::runtime::{ExecPolicy, McPlan};
use ctsdac::stats::sample::seeded_rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Distinct items; the closed loop cycles through them.
pub const POOL: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 101;
/// Latency limit for goodput, ms.
pub const LIMIT_MS: f64 = 100.0;
/// Windows the run is cut into for its percentiles; the median of the
/// window percentiles is reported.
const WINDOWS: usize = 5;
/// Items the timed loop runs at least, whatever `--seconds` says, so each
/// window holds the 1000 items a p99 needs and a slow program still gets
/// a figure rather than an error.
const MIN_ITEMS: usize = 1000 * WINDOWS;
/// Measured seconds after which the loop stops even short of
/// [`MIN_ITEMS`], so a run ends well inside its time limit; reached only
/// by a program about six times slower than the recorded baseline.
const MAX_SECONDS: f64 = 120.0;

/// An item ready to run: inputs plus the converter model of its INL check.
struct Prepared {
    item: FlowItem,
    dac: SegmentedDac,
}

/// What one item computed, in a bit-comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ItemResult {
    report: String,
    saturation: String,
    inl: String,
}

fn prepare(seed: u64) -> Vec<Prepared> {
    flow_items(seed, POOL)
        .into_iter()
        .map(|item| Prepared {
            dac: SegmentedDac::new(&item.spec),
            item,
        })
        .collect()
}

/// Runs one item; its steps are spans under one `flow.item` span.
fn run_item(
    p: &Prepared,
    policy: &ExecPolicy,
    tr: &mut Tracer,
    req: u64,
) -> Result<ItemResultRaw, String> {
    let root = tr.open("flow.item", req);
    let out = (|| {
        let spec = &p.item.spec;
        let report = tr
            .time("core.flow.run_flow_supervised", root, req, || {
                run_flow_supervised(spec, &p.item.options, policy)
            })
            .map_err(|e| format!("flow: {e}"))?
            .value;
        let (cs, sw) = (report.overdrives.0, report.overdrives.2);
        let plan =
            McPlan::new(p.item.sat_seed, SAT_TRIALS, SAT_CHUNK).map_err(|e| e.to_string())?;
        let saturation = tr
            .time(
                "core.validate.saturation_yield_supervised",
                root,
                req,
                || saturation_yield_supervised(spec, cs, sw, &plan, policy),
            )
            .map_err(|e| format!("saturation yield: {e}"))?
            .value;
        let mut rng = seeded_rng(p.item.inl_seed);
        let inl = tr
            .time("dac.inl_yield_mc", root, req, || {
                inl_yield_mc(&p.dac, spec.sigma_unit_spec(), 0.5, INL_TRIALS, &mut rng)
            })
            .map_err(|e| format!("INL yield: {e}"))?;
        Ok(ItemResultRaw {
            report,
            saturation,
            inl,
        })
    })();
    tr.close(root);
    out
}

/// Raw results, formatted for comparison outside the item's latency.
struct ItemResultRaw {
    report: ctsdac::core::DesignReport,
    saturation: ctsdac::core::validate::SaturationYield,
    inl: ctsdac::stats::YieldEstimate,
}

impl ItemResultRaw {
    fn comparable(&self) -> ItemResult {
        ItemResult {
            report: format!("{:?}", self.report),
            saturation: format!("{:?}", self.saturation),
            inl: format!("{:?}", self.inl),
        }
    }
}

/// The service requests equivalent to an item's steps: the sweep the
/// flow runs, the sizing it returns, and the yield check at its point.
fn equivalent_requests(p: &Prepared, (vov_cs, vov_sw): (f64, f64)) -> [WireRequest; 3] {
    let y = p.item.spec.inl_yield;
    let objective = match p.item.options.objective {
        ctsdac::core::Objective::MaxSpeed => "max_speed",
        ctsdac::core::Objective::MaxImpedance => "max_impedance",
        ctsdac::core::Objective::MinArea => "min_area",
    };
    [
        WireRequest {
            path: "/v1/sweep",
            body: format!("{{\"grid\":{FLOW_GRID},\"inl_yield\":{y}}}"),
        },
        WireRequest {
            path: "/v1/sizing",
            body: format!("{{\"grid\":{FLOW_GRID},\"inl_yield\":{y},\"objective\":\"{objective}\"}}"),
        },
        WireRequest {
            path: "/v1/yield",
            body: format!(
                "{{\"vov_cs\":{vov_cs},\"vov_sw\":{vov_sw},\"inl_yield\":{y},\"trials\":{SAT_TRIALS},\"chunk_trials\":{SAT_CHUNK},\"seed\":{}}}",
                p.item.sat_seed
            ),
        },
    ]
}

/// Runs `flow-batch` once.
pub fn run(work: &Path, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Run, String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set-up: inputs, converter models and the pool policy.
    let mut setups = Vec::new();
    let mut pool = Vec::new();
    let mut policy = ExecPolicy::sequential();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        pool = prepare(seed);
        policy = ExecPolicy::with_jobs(jobs);
        setups.push(t0.elapsed().as_secs_f64());
    }
    // One untimed warm-up item, so lazy initialisation is paid before the
    // timed loop.
    let mut off = Tracer::new(false);
    run_item(&pool[0], &policy, &mut off, 0)?;

    // Untimed references at jobs = 1, with the work counters armed.
    obs::set_metrics(true);
    let before: Vec<u64> = COUNTERS
        .iter()
        .map(|&(c, _)| obs::counter_value(c))
        .collect();
    let sequential = ExecPolicy::sequential();
    let mut reference = Vec::with_capacity(POOL);
    for (i, p) in pool.iter().enumerate() {
        reference.push(run_item(p, &sequential, &mut off, i as u64).map(|r| r.comparable()));
    }
    let counters: BTreeMap<String, f64> = COUNTERS
        .iter()
        .zip(&before)
        .map(|(&(c, name), &b)| (name.to_string(), (obs::counter_value(c) - b) as f64))
        .collect();
    obs::set_metrics(false);

    // Timed closed loop at jobs = nproc, for `seconds` and at least
    // MIN_ITEMS items. Each item is checked against its jobs = 1
    // reference right after its latency is taken; the check's time is
    // kept out of the loop's measured time, and only the verdict is kept,
    // so the process footprint does not grow with the item count.
    let mut latencies_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut ok = Vec::new();
    let mut points = Vec::with_capacity(POOL);
    let mut checking_s = 0.0;
    let t_start = Instant::now();
    let mut last_end = t_start;
    loop {
        let measured = t_start.elapsed().as_secs_f64() - checking_s;
        if measured >= MAX_SECONDS || (ok.len() >= MIN_ITEMS && measured >= seconds) {
            break;
        }
        let k = ok.len();
        let t0 = Instant::now();
        gaps_ms.push((t0 - last_end).as_secs_f64() * 1e3);
        let r = run_item(&pool[k % POOL], &policy, tr, k as u64);
        let t1 = Instant::now();
        latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        ok.push(match (&r, &reference[k % POOL]) {
            (Ok(got), Ok(want)) => got.comparable() == *want,
            _ => false,
        });
        if k < POOL {
            points.push(r.ok().map(|r| (r.report.overdrives.0, r.report.overdrives.2)));
        }
        last_end = Instant::now();
        checking_s += (last_end - t1).as_secs_f64();
    }
    let elapsed = t_start.elapsed().as_secs_f64() - checking_s;
    let rss_mb = vm_hwm_mb("/proc/self/status")?;

    // WINDOWS windows of consecutive items; each holds at least 1000.
    let n = latencies_ms.len();
    let charged = latencies_ms
        .iter()
        .zip(&ok)
        .enumerate()
        .map(|(k, (l, ok))| (k * WINDOWS / n, stats::charged_ms(*l, *ok, LIMIT_MS)));
    let windows = stats::split_windows(charged, WINDOWS);
    let good: Vec<f64> = latencies_ms
        .iter()
        .zip(&ok)
        .filter(|(_, ok)| **ok)
        .map(|(l, _)| *l)
        .collect();
    eprintln!(
        "e2ebench: flow-batch: {n} items ({} verified) in {elapsed:.2} s",
        good.len()
    );
    let mut m = Metrics::default();
    m.e2e("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    let p50 =
        stats::windowed_percentile(&windows, 50.0).ok_or("too few flow items for a median")?;
    let p99 = stats::windowed_percentile(&windows, 99.0).ok_or("too few flow items for a p99")?;
    m.e2e("p50_ms", p50, "ms");
    m.e2e("p99_ms", p99, "ms");
    let in_limit = good.iter().filter(|&&l| l <= LIMIT_MS).count();
    m.e2e("goodput_per_s", in_limit as f64 / elapsed, "1/s");
    m.e2e("peak_rss_mb", rss_mb, "MB");

    let failed = ok.iter().filter(|ok| !**ok).count() as u64;
    if tr.enabled() {
        layer_metrics(
            work, &pool, &policy, &points, n, &counters, &gaps_ms, tr, &mut m,
        )?;
    }
    Ok(Run {
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics: m,
    })
}

/// In-process counters read around the reference pass.
const COUNTERS: &[(obs::Counter, &str)] = &[
    (obs::Counter::DcSolves, "circuit.dc.solves"),
    (obs::Counter::DcIterations, "circuit.dc.iterations"),
    (obs::Counter::DcFailures, "circuit.dc.failures"),
    (obs::Counter::McTrials, "mc.trials"),
    (obs::Counter::PoolChunks, "pool.chunks"),
    (obs::Counter::PoolRetries, "pool.retries"),
    (obs::Counter::YieldTrials, "dac.yield.trials"),
    (obs::Counter::YieldFallbacks, "dac.yield.fallbacks"),
    (obs::Counter::YieldCodesScanned, "dac.yield.codes_scanned"),
];

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    work: &Path,
    pool: &[Prepared],
    policy: &ExecPolicy,
    points: &[Option<(f64, f64)>],
    items: usize,
    counters: &BTreeMap<String, f64>,
    gaps_ms: &[f64],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let sum_s = |name: &str| tr.durations(name).iter().sum::<f64>() / 1e9;
    let sat_calls = tr
        .durations("core.validate.saturation_yield_supervised")
        .len() as u64;
    let inl_calls = tr.durations("dac.inl_yield_mc").len() as u64;
    let sat_s = sum_s("core.validate.saturation_yield_supervised");
    let inl_s = sum_s("dac.inl_yield_mc");

    // The design space each flow sweeps, supervised against inline.
    for (i, p) in pool.iter().enumerate() {
        let space = DesignSpace::new(&p.item.spec, p.item.options.condition).with_grid(FLOW_GRID);
        crate::layers::time_space(tr, i as u64, &space, policy);
    }

    // Service layers on the requests equivalent to each item's steps,
    // for comparison with the daemon's path (this workload skips them).
    let rp = Replayer::new(3 * POOL);
    let mut entries = Vec::new();
    for (i, p) in pool.iter().enumerate() {
        let Some(Some(point)) = points.get(i).copied() else {
            continue;
        };
        for (j, wire) in equivalent_requests(p, point).iter().enumerate() {
            let r = rp.replay(tr, (3 * i + j) as u64, wire, 0);
            if let (Some(key), Some(body)) = (key_of(wire), r.body.as_deref()) {
                if let Some(result) = result_part(body) {
                    entries.push((key, result.to_string()));
                }
            }
        }
    }
    let store_dir = work.join("store-flow-batch");
    time_puts(tr, &store_dir, &entries)?;
    let recovery_ms = time_recovery(tr, &store_dir)?;
    let _ = std::fs::remove_dir_all(&store_dir);

    let own = tr.median_self_us();
    let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    m.layer("server.queue_residual_us_p50", 0.0, "us");
    m.layer("server.queue_residual_us_p99", 0.0, "us");
    m.layer("client.connect_us", 0.0, "us");
    m.layer("client.ttfb_us", 0.0, "us");
    front_metrics(&own, m);
    m.layer("cache.hit_ratio", 0.0, "ratio");
    m.layer("cache.evictions", 0.0, "count");
    m.layer("admission.shed", 0.0, "count");
    m.layer("store.recovery_ms", recovery_ms, "ms");
    m.layer("store.records_appended", 0.0, "count");
    m.layer("store.fsyncs", 0.0, "count");
    m.layer("runtime.chunks", c("pool.chunks"), "count");
    m.layer("runtime.retries", c("pool.retries"), "count");
    m.layer("dc.solves", c("circuit.dc.solves"), "count");
    let solves = c("circuit.dc.solves");
    let iters = if solves > 0.0 {
        c("circuit.dc.iterations") / solves
    } else {
        0.0
    };
    m.layer("dc.iters_per_solve", iters, "ratio");
    m.layer("dc.failures", c("circuit.dc.failures"), "count");
    m.layer("mc.trials", c("mc.trials"), "count");
    crate::layers::dac_yield_counters(counters, m);
    crate::layers::engine_and_kernel_metrics(tr, &own, sat_calls * SAT_TRIALS, sat_s, m);
    let inl_rate = if inl_s > 0.0 {
        (inl_calls * INL_TRIALS) as f64 / inl_s
    } else {
        0.0
    };
    m.layer("dac.inl_trials_per_s", inl_rate, "1/s");
    let lag = stats::percentile(&stats::sorted(gaps_ms), 99.0).unwrap_or(0.0);
    m.layer("loadgen.lag_p99_ms", lag, "ms");
    m.layer("loadgen.sent", items as f64, "count");
    Ok(())
}
