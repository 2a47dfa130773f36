//! The two service workloads, `hit-heavy` and `miss-compute`: a real
//! `dacd` under open-loop load, then an untimed in-process replay of every
//! request through the same layer functions the daemon calls. The replay
//! verifies each response byte for byte and, in a traced run, times each
//! layer call.

use crate::daemon::{deltas, Daemon};
use crate::inputs::{self, key_of, mode_of};
use crate::layers::{
    fresh_dir, front_metrics, result_part, self_us, time_puts, time_recovery, Replayer, SelfUs,
    MAX_JOBS,
};
use crate::loadgen::{run_open_loop, Outcome, WireRequest};
use crate::report::{Metrics, Run};
use crate::stats::{self, queue_residual_ns, OpenLoopTiming};
use crate::trace::Tracer;
use ctsdac::core::explore::DesignSpace;
use ctsdac::core::DacSpec;
use ctsdac::runtime::ExecPolicy;
use ctsdac::service::protocol::{parse_request, Mode, ServiceRequest};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Open-loop arrival rate of both service workloads, requests per second.
/// At 200 req/s the gap between arrivals is 5 ms, longer than a hit and
/// than most misses, and the lost-wakeup stall (about one gap) stays
/// visible in p99.
const RATE: f64 = 200.0;

/// Requests per part. A run is cut into parts of this many requests (8
/// at `--seconds 40`), each against a freshly started daemon; percentiles
/// are taken per part and their median reported. 1000 is the fewest a p99
/// needs.
const PART_REQUESTS: usize = 1000;

/// Daemon starts before the first part; with each later part's start
/// they are the `setup_s` samples.
const SETUPS: usize = 21;

/// What differs between the two service workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Latency limit for goodput, ms.
    pub limit_ms: f64,
    /// `dacd --cache` entries.
    pub cache: usize,
}

/// `hit-heavy`: recovered cache hits; the hot set fits the cache.
pub const HIT_HEAVY: ServiceSpec = ServiceSpec {
    limit_ms: 2.0,
    cache: 256,
};

/// `miss-compute`: distinct keys, more per part than the cache holds.
pub const MISS_COMPUTE: ServiceSpec = ServiceSpec {
    limit_ms: 100.0,
    cache: 64,
};

/// Hot-set size of `hit-heavy`: large enough that no single key
/// dominates, small enough to fit the cache with room to spare, and
/// cheap to fill untimed. An assumption, like the rest of the mix.
pub const HOT_SET: usize = 60;

fn dacd_flags(spec: &ServiceSpec, store: &Path) -> Vec<String> {
    vec![
        "--cache".into(),
        spec.cache.to_string(),
        "--store".into(),
        store.display().to_string(),
    ]
}

/// Result of the timed open-loop phase against a real daemon.
struct Phase {
    setup_s: f64,
    /// When the first part's schedule started; every outcome's times are
    /// ns after it.
    start: Instant,
    outcomes: Vec<Outcome>,
    /// Part of each outcome.
    part_of: Vec<usize>,
    /// Request-index range of each part.
    parts: Vec<std::ops::Range<usize>>,
    /// Schedule start to last response, summed over parts, s.
    elapsed_s: f64,
    counters: BTreeMap<String, f64>,
    rss_mb: f64,
}

/// Drives `requests` through the daemon open-loop in parts of
/// [`PART_REQUESTS`], each against a freshly started daemon (on a
/// cleared store when `fresh_store`). The first part starts the daemon [`SETUPS`] times
/// and keeps the last; every start is a set-up sample. Counters are
/// scraped around each timed part.
fn timed_phase(
    dacd: &Path,
    spec: &ServiceSpec,
    store: &Path,
    fresh_store: bool,
    requests: &[WireRequest],
) -> Result<Phase, String> {
    let mut setups = Vec::new();
    let mut first_start = None;
    let mut phase = Phase {
        setup_s: 0.0,
        start: Instant::now(),
        outcomes: Vec::with_capacity(requests.len()),
        part_of: Vec::with_capacity(requests.len()),
        parts: Vec::new(),
        elapsed_s: 0.0,
        counters: BTreeMap::new(),
        rss_mb: 0.0,
    };
    let n = requests.len();
    let parts = (n / PART_REQUESTS).max(1);
    for part in 0..parts {
        let range = part * n / parts..(part + 1) * n / parts;
        let starts = if part == 0 { SETUPS } else { 1 };
        let mut daemon = None;
        for k in 0..starts {
            if fresh_store {
                fresh_dir(store)?;
            }
            let (d, s) = Daemon::start(dacd, &dacd_flags(spec, store))?;
            setups.push(s);
            if k + 1 < starts {
                d.stop()?;
            } else {
                daemon = Some(d);
            }
        }
        let daemon = daemon.ok_or("no set-up ran")?;
        let before = daemon.counters()?;
        let (start, mut outcomes) = run_open_loop(
            daemon.addr(),
            &requests[range.clone()],
            RATE,
            Duration::from_secs(60),
        );
        let after = daemon.counters()?;
        phase.rss_mb = phase.rss_mb.max(daemon.peak_rss_mb()?);
        daemon.stop()?;
        for (k, v) in deltas(&before, &after) {
            *phase.counters.entry(k).or_insert(0.0) += v;
        }
        phase.elapsed_s += outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0) as f64 / 1e9;
        // Re-base this part's times on the first part's start.
        let first = *first_start.get_or_insert(start);
        let shift = start.saturating_duration_since(first).as_nanos() as u64;
        for o in outcomes.iter_mut() {
            for t in [
                &mut o.due_ns,
                &mut o.sent_ns,
                &mut o.connected_ns,
                &mut o.written_ns,
                &mut o.done_ns,
                &mut o.closed_ns,
            ] {
                *t += shift;
            }
            if o.first_byte_ns > 0 {
                o.first_byte_ns += shift;
            }
            phase.part_of.push(part);
        }
        phase.outcomes.extend(outcomes);
        phase.parts.push(range);
    }
    phase.setup_s = stats::median(&setups).unwrap_or(0.0);
    phase.start = first_start.unwrap_or(phase.start);
    Ok(phase)
}

/// Per-request verdicts of a phase after the replay.
#[derive(Default)]
struct Checked {
    ok: Vec<bool>,
    residual_ns: Vec<f64>,
    /// Keys the replay caches evicted.
    evictions: u64,
}

/// Replays each request of one part (span ids from `first_id`) and
/// compares the daemon's answer with the replay's, byte for byte.
fn replay_and_verify(
    rp: &Replayer,
    tr: &mut Tracer,
    requests: &[WireRequest],
    outcomes: &[Outcome],
    first_id: usize,
    expect_label: &str,
    into: &mut Checked,
) {
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for (i, (w, o)) in requests.iter().zip(outcomes).enumerate() {
        let r = rp.replay(tr, (first_id + i) as u64, w, o.due_ns);
        let good = o.status == 200
            && o.error.is_none()
            && r.body.as_deref() == Some(o.body.as_str())
            && o.body.contains(&format!("\"cache\":\"{expect_label}\""));
        if !good {
            let why = match (&o.error, r.body.as_deref()) {
                (Some(e), _) => e.clone(),
                (None, None) => "replay failed".into(),
                (None, Some(_)) if o.status != 200 => format!("status {}: {}", o.status, o.body),
                _ => "body differs from the replay".into(),
            };
            *failures.entry(why).or_insert(0usize) += 1;
        }
        if good {
            let latency = OpenLoopTiming {
                due_ns: o.due_ns,
                sent_ns: o.sent_ns,
                done_ns: o.done_ns,
            }
            .latency_ns();
            into.residual_ns
                .push(queue_residual_ns(latency, r.total_ns) as f64);
        }
        into.ok.push(good);
    }
    for (why, count) in &failures {
        eprintln!("e2ebench: {count} request(s) failed: {why}");
    }
    into.evictions += rp.evictions.load(Ordering::Relaxed);
}

/// Records client-side spans of every request (connect, write, first
/// byte, close) under one parent per request.
fn record_client_spans(tr: &mut Tracer, outcomes: &[Outcome], start: Instant) {
    if !tr.enabled() {
        return;
    }
    let at = |ns: u64| start + Duration::from_nanos(ns);
    for (i, o) in outcomes.iter().enumerate() {
        let req = i as u64;
        let root = tr.record(
            "client.request",
            None,
            req,
            at(o.due_ns),
            at(o.closed_ns.max(o.done_ns)),
        );
        tr.record(
            "client.connect",
            root,
            req,
            at(o.sent_ns),
            at(o.connected_ns),
        );
        tr.record(
            "client.write",
            root,
            req,
            at(o.connected_ns),
            at(o.written_ns),
        );
        if o.first_byte_ns > 0 {
            tr.record(
                "client.first_byte",
                root,
                req,
                at(o.written_ns),
                at(o.first_byte_ns),
            );
        }
        tr.record(
            "client.close",
            root,
            req,
            at(o.done_ns),
            at(o.closed_ns.max(o.done_ns)),
        );
    }
}

/// End-to-end metrics of an open-loop phase (latency percentiles per
/// part, goodput within the limit) and the generator's own figures.
fn end_to_end(
    spec: &ServiceSpec,
    phase: &Phase,
    checked: &Checked,
    m: &mut Metrics,
) -> Result<(), String> {
    let timings: Vec<OpenLoopTiming> = phase
        .outcomes
        .iter()
        .map(|o| OpenLoopTiming {
            due_ns: o.due_ns,
            sent_ns: o.sent_ns,
            done_ns: o.done_ns,
        })
        .collect();
    let charged = timings
        .iter()
        .zip(&checked.ok)
        .zip(&phase.part_of)
        .map(|((t, ok), w)| {
            (
                *w,
                stats::charged_ms(t.latency_ns() as f64 / 1e6, *ok, spec.limit_ms),
            )
        });
    let windows = stats::split_windows(charged, phase.parts.len());
    let p50 = stats::windowed_percentile(&windows, 50.0).ok_or("too few requests for a median")?;
    let p99 = stats::windowed_percentile(&windows, 99.0).ok_or("too few requests for a p99")?;
    let good_ms: Vec<f64> = timings
        .iter()
        .zip(&checked.ok)
        .filter(|(_, ok)| **ok)
        .map(|(t, _)| t.latency_ns() as f64 / 1e6)
        .collect();
    eprintln!(
        "e2ebench: {} requests sent, {} verified",
        phase.outcomes.len(),
        good_ms.len()
    );
    let in_limit = good_ms.iter().filter(|&&l| l <= spec.limit_ms).count();
    m.e2e("setup_s", phase.setup_s, "s");
    m.e2e("p50_ms", p50, "ms");
    m.e2e("p99_ms", p99, "ms");
    m.e2e("goodput_per_s", in_limit as f64 / phase.elapsed_s, "1/s");
    m.e2e("peak_rss_mb", phase.rss_mb, "MB");
    let lag: Vec<f64> = timings.iter().map(|t| t.lag_ns() as f64 / 1e6).collect();
    m.layer(
        "loadgen.lag_p99_ms",
        stats::percentile(&stats::sorted(&lag), 99.0).unwrap_or(0.0),
        "ms",
    );
    m.layer("loadgen.sent", phase.outcomes.len() as f64, "count");
    Ok(())
}

/// Per-layer numbers common to both service workloads.
fn layer_metrics(phase: &Phase, checked: &Checked, own: &SelfUs, m: &mut Metrics) {
    let c = |k: &str| phase.counters.get(k).copied().unwrap_or(0.0);
    let residual = stats::sorted(&checked.residual_ns);
    let us = |v: Option<f64>| v.unwrap_or(0.0) / 1e3;
    m.layer(
        "server.queue_residual_us_p50",
        us(stats::percentile(&residual, 50.0)),
        "us",
    );
    m.layer(
        "server.queue_residual_us_p99",
        us(stats::percentile(&residual, 99.0)),
        "us",
    );
    m.layer("client.connect_us", self_us(own, "client.connect"), "us");
    m.layer("client.ttfb_us", self_us(own, "client.first_byte"), "us");
    front_metrics(own, m);
    let hits = c("service.cache.hits");
    let misses = c("service.cache.misses");
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    m.layer("cache.hit_ratio", ratio, "ratio");
    m.layer("cache.evictions", checked.evictions as f64, "count");
    m.layer("admission.shed", c("service.shed"), "count");
    m.layer(
        "store.records_appended",
        c("store.records_appended"),
        "count",
    );
    m.layer("store.fsyncs", c("store.fsyncs"), "count");
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
    crate::layers::dac_yield_counters(&phase.counters, m);
}

/// The specification `Engine::execute` builds for a request.
fn spec_of(q: &ServiceRequest) -> DacSpec {
    DacSpec::new(
        q.n_bits,
        q.binary_bits,
        q.inl_yield,
        ctsdac::circuit::cell::CellEnvironment::paper_12bit(),
        ctsdac::process::Technology::c035(),
    )
}

/// Replays the sweeps among `requests` (at most `limit`) both through
/// the supervised pool and inline on the same space, so the difference
/// is what the runtime adds.
fn time_sweeps(tr: &mut Tracer, requests: &[ServiceRequest], limit: usize) {
    for (i, q) in requests
        .iter()
        .filter(|q| q.mode == Mode::Sweep)
        .take(limit)
        .enumerate()
    {
        let spec = spec_of(q);
        let space = DesignSpace::new(&spec, q.condition.to_condition()).with_grid(q.grid);
        let policy = ExecPolicy::with_jobs(q.jobs.min(MAX_JOBS));
        crate::layers::time_space(tr, i as u64, &space, &policy);
    }
}

/// Replays the yields among `requests` (at most `limit`) through
/// `saturation_yield_supervised`.
fn time_yields(tr: &mut Tracer, requests: &[ServiceRequest], limit: usize) -> (u64, f64) {
    let mut trials = 0;
    let mut secs = 0.0;
    for (i, q) in requests
        .iter()
        .filter(|q| q.mode == Mode::Yield)
        .take(limit)
        .enumerate()
    {
        let spec = spec_of(q);
        let Some((cs, sw)) = q.point else { continue };
        let Ok(plan) = ctsdac::runtime::McPlan::new(q.seed, q.trials, q.chunk_trials) else {
            continue;
        };
        let policy = ExecPolicy::with_jobs(q.jobs.min(MAX_JOBS));
        let t0 = Instant::now();
        let out = tr.time(
            "validate.saturation_yield_supervised",
            None,
            i as u64,
            || ctsdac::core::validate::saturation_yield_supervised(&spec, cs, sw, &plan, &policy),
        );
        if out.is_ok() {
            secs += t0.elapsed().as_secs_f64();
            trials += q.trials;
        }
    }
    (trials, secs)
}

/// Runs `hit-heavy` or `miss-compute` once.
pub fn run(
    name: &str,
    dacd: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let hit = name == "hit-heavy";
    let spec = if hit { HIT_HEAVY } else { MISS_COMPUTE };
    let n = (RATE * seconds).round() as usize;
    let store = work.join(format!("store-{name}"));
    let rp = Replayer::new(spec.cache);
    let mut failed_setup = 0u64;
    let mut hot_results: Vec<(String, String)> = Vec::new();

    let requests = if hit {
        // Untimed fill: compute the hot set in a daemon that persists it,
        // and check each miss against the engine's own answer.
        let hot = inputs::distinct_requests(seed, 2, HOT_SET);
        fresh_dir(&store)?;
        let (daemon, _) = Daemon::start(dacd, &dacd_flags(&spec, &store))?;
        for (i, w) in hot.iter().enumerate() {
            let r = rp.replay(tr, 1_000_000 + i as u64, w, 0);
            let served = daemon.request("POST", w.path, &w.body);
            match (r.body, served) {
                (Some(expect), Ok((200, got))) if expect == got => {
                    if let (Some(key), Some(result)) = (key_of(w), result_part(&got)) {
                        hot_results.push((key, result.to_string()));
                    }
                }
                _ => failed_setup += 1,
            }
        }
        daemon.stop()?;
        inputs::hot_schedule(seed, &hot, n)
    } else {
        inputs::distinct_requests(seed, 1, n)
    };

    let phase = timed_phase(dacd, &spec, &store, !hit, &requests)?;
    // A restarted daemon starts with an empty cache, so each part replays
    // through a fresh pipeline; the hot set replays through the primed one.
    let mut checked = Checked::default();
    for range in &phase.parts {
        let fresh;
        let replayer = if hit {
            &rp
        } else {
            fresh = Replayer::new(spec.cache);
            &fresh
        };
        let label = if hit { "hit" } else { "miss" };
        let (reqs, outs) = (&requests[range.clone()], &phase.outcomes[range.clone()]);
        replay_and_verify(replayer, tr, reqs, outs, range.start, label, &mut checked);
    }

    // Hit bodies must carry exactly the bytes the misses produced.
    let mut hit_mismatch = 0u64;
    if hit {
        let by_key: BTreeMap<&str, &str> = hot_results
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        // Only requests the replay passed: a failed one is counted once,
        // above.
        for ((w, o), ok) in requests.iter().zip(&phase.outcomes).zip(&checked.ok) {
            let got = result_part(&o.body);
            let want = key_of(w).and_then(|k| by_key.get(k.as_str()).copied());
            if *ok && (got.is_none() || got != want) {
                hit_mismatch += 1;
            }
        }
    }

    let failed = checked.ok.iter().filter(|ok| !**ok).count() as u64 + failed_setup + hit_mismatch;
    let attempted = requests.len() as u64 + if hit { HOT_SET as u64 } else { 0 };
    let mut m = Metrics::default();
    end_to_end(&spec, &phase, &checked, &mut m)?;

    if tr.enabled() {
        record_client_spans(tr, &phase.outcomes, phase.start);
        let parsed: Vec<ServiceRequest> = requests
            .iter()
            .filter_map(|w| parse_request(mode_of(w.path), &w.body).ok())
            .collect();
        let recovery_ms = time_recovery(tr, &store)?;
        let entries: Vec<(String, String)> = if hit {
            hot_results.clone()
        } else {
            requests
                .iter()
                .zip(&phase.outcomes)
                .take(256)
                .filter_map(|(w, o)| Some((key_of(w)?, result_part(&o.body)?.to_string())))
                .collect()
        };
        time_puts(tr, &work.join(format!("puts-{name}")), &entries)?;
        time_sweeps(tr, &parsed, 16);
        let (trials, secs) = time_yields(tr, &parsed, 16);
        let own = tr.median_self_us();
        layer_metrics(&phase, &checked, &own, &mut m);
        m.layer("store.recovery_ms", recovery_ms, "ms");
        crate::layers::engine_and_kernel_metrics(tr, &own, trials, secs, &mut m);
        m.layer("dac.inl_trials_per_s", 0.0, "1/s");
    }
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(work.join(format!("puts-{name}")));
    Ok(Run {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
    })
}
