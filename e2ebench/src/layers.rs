//! Per-layer replays shared by every workload: the daemon's pipeline
//! run in process, store recovery and puts, the supervised sweep against
//! the inline one on the same space, and the numbers derived from them.

use crate::inputs::mode_of;
use crate::loadgen::WireRequest;
use crate::report::Metrics;
use crate::stats;
use crate::trace::Tracer;
use ctsdac::core::explore::DesignSpace;
use ctsdac::runtime::ExecPolicy;
use ctsdac::service::admission::{Admission, AdmissionConfig};
use ctsdac::service::cache::{Claim, ResultCache};
use ctsdac::service::engine::{Engine, EngineConfig};
use ctsdac::service::protocol::{cache_key, parse_request, render_ok, Mode};
use ctsdac::store::{Store, StoreConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime pool width of the server-side default (`ServerConfig`).
pub const MAX_JOBS: usize = 8;

fn engine() -> Engine {
    Engine::new(EngineConfig {
        default_deadline: Some(Duration::from_secs(30)),
        faults: None,
        max_jobs: MAX_JOBS,
    })
}

/// In-process copy of the daemon's pipeline for one workload.
pub struct Replayer {
    admission: Admission,
    cache: ResultCache,
    engine: Engine,
    /// Keys the replay cache evicted.
    pub evictions: Arc<AtomicU64>,
    base: Instant,
}

/// What one replayed request produced.
pub struct Replayed {
    /// The response body the daemon should have sent (`None` when the
    /// request failed in-process, which verification counts as a mismatch).
    pub body: Option<String>,
    /// Wall time of parse + admit + claim (+ execute) + render, ns.
    pub total_ns: u64,
}

fn engine_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Sweep => "engine.execute.sweep",
        Mode::Sizing => "engine.execute.sizing",
        Mode::Yield => "engine.execute.yield",
    }
}

impl Replayer {
    /// A pipeline whose cache holds `cache` results.
    pub fn new(cache: usize) -> Self {
        let evictions = Arc::new(AtomicU64::new(0));
        let cache = ResultCache::with_byte_limit(cache, 32 << 20);
        let counter = Arc::clone(&evictions);
        cache.set_evict_hook(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        Self {
            admission: Admission::new(AdmissionConfig::default()),
            cache,
            engine: engine(),
            evictions,
            base: Instant::now(),
        }
    }

    /// Replays one request as the daemon's `handle_api` does. Admission
    /// sees the request's due time, so token buckets evolve as they did
    /// in the live run.
    pub fn replay(
        &self,
        tr: &mut Tracer,
        req_id: u64,
        wire: &WireRequest,
        due_ns: u64,
    ) -> Replayed {
        let root = tr.open("replay.request", req_id);
        let t0 = Instant::now();
        let mode = mode_of(wire.path);
        let body = tr
            .time("protocol.parse_request", root, req_id, || {
                parse_request(mode, &wire.body)
            })
            .ok()
            .and_then(|req| {
                let at = self.base + Duration::from_nanos(due_ns);
                let _slot = tr.time("admission.admit", root, req_id, || {
                    self.admission.admit(&req.tenant, at)
                });
                let key = cache_key(&req);
                let (claim, guard) =
                    tr.time("cache.claim", root, req_id, || self.cache.claim(&key, None));
                let (label, result) = match claim {
                    Claim::Hit(result) => ("hit", result),
                    Claim::Lead => {
                        let out = tr.time(engine_span(mode), root, req_id, || {
                            self.engine.execute(&req)
                        });
                        let result = out.ok()?;
                        if let Some(g) = guard {
                            g.fulfill(Some(&result));
                        }
                        ("miss", result)
                    }
                    Claim::TimedOut => return None,
                };
                Some(tr.time("protocol.render_ok", root, req_id, || {
                    render_ok(label, &result)
                }))
            });
        let total_ns = t0.elapsed().as_nanos() as u64;
        tr.close(root);
        Replayed { body, total_ns }
    }
}

/// The `"result"` member's bytes of a rendered success body.
pub fn result_part(body: &str) -> Option<&str> {
    body.split_once(",\"result\":")
        .and_then(|(_, r)| r.strip_suffix('}'))
}

/// A fresh, empty directory under the run's scratch area.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Times `Store::open` on `dir` (the recovery scan) and closes it.
pub fn time_recovery(tr: &mut Tracer, dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let (store, _) = tr
        .time("store.open", None, 0, || Store::open(StoreConfig::new(dir)))
        .map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    store.close();
    Ok(ms)
}

/// Times `Store::put` of each `(key, value)` into a fresh store at `dir`.
pub fn time_puts(tr: &mut Tracer, dir: &Path, entries: &[(String, String)]) -> Result<(), String> {
    fresh_dir(dir)?;
    let (store, _) = Store::open(StoreConfig::new(dir)).map_err(|e| e.to_string())?;
    for (i, (k, v)) in entries.iter().enumerate() {
        tr.time("store.put", None, i as u64, || store.put(k, v));
    }
    store.close();
    Ok(())
}

/// Sweeps `space` through the supervised pool and inline, one span each.
/// The pair's difference is what the runtime (pool, chunking, merge) adds.
pub fn time_space(tr: &mut Tracer, req: u64, space: &DesignSpace, policy: &ExecPolicy) {
    let sup = tr.time("runtime.sweep_supervised", None, req, || {
        space.sweep_supervised(policy)
    });
    black_box(sup.ok());
    let inline = tr.time("explore.sweep_with_stats", None, req, || {
        space.sweep_with_stats()
    });
    black_box(inline);
}

/// Median self time per span name, µs (see [`Tracer::median_self_us`]).
pub type SelfUs = BTreeMap<&'static str, f64>;

/// Median self time of `name`, or 0 when the run recorded no such span.
pub fn self_us(own: &SelfUs, name: &str) -> f64 {
    own.get(name).copied().unwrap_or(0.0)
}

/// Parse, admit, claim and render: the service front layers.
pub fn front_metrics(own: &SelfUs, m: &mut Metrics) {
    m.layer(
        "protocol.parse_us",
        self_us(own, "protocol.parse_request"),
        "us",
    );
    m.layer(
        "protocol.render_us",
        self_us(own, "protocol.render_ok"),
        "us",
    );
    m.layer("admission.admit_us", self_us(own, "admission.admit"), "us");
    m.layer("cache.claim_us", self_us(own, "cache.claim"), "us");
    m.layer("store.put_us", self_us(own, "store.put"), "us");
}

/// Engine, explore, runtime and validate numbers from the replay spans.
/// `sat_trials` saturation-yield trials took `sat_secs` in replay.
pub fn engine_and_kernel_metrics(
    tr: &Tracer,
    own: &SelfUs,
    sat_trials: u64,
    sat_secs: f64,
    m: &mut Metrics,
) {
    m.layer(
        "engine.sweep_us",
        self_us(own, "engine.execute.sweep"),
        "us",
    );
    m.layer(
        "engine.sizing_us",
        self_us(own, "engine.execute.sizing"),
        "us",
    );
    m.layer(
        "engine.yield_us",
        self_us(own, "engine.execute.yield"),
        "us",
    );
    let sup = tr.durations("runtime.sweep_supervised");
    let inline = tr.durations("explore.sweep_with_stats");
    let diffs: Vec<f64> = sup.iter().zip(&inline).map(|(s, i)| s - i).collect();
    m.layer(
        "runtime.pool_overhead_us",
        stats::median(&diffs).unwrap_or(0.0) / 1e3,
        "us",
    );
    m.layer(
        "explore.sweep_us",
        self_us(own, "explore.sweep_with_stats"),
        "us",
    );
    let rate = if sat_secs > 0.0 {
        sat_trials as f64 / sat_secs
    } else {
        0.0
    };
    m.layer("validate.trials_per_s", rate, "1/s");
}

/// The batched yield engine's counters (`dac.yield.*`). The legacy
/// INL loop does not touch them, so they read 0 until that loop is
/// routed through the engine.
pub fn dac_yield_counters(counters: &BTreeMap<String, f64>, m: &mut Metrics) {
    let c = |k: &str| counters.get(k).copied().unwrap_or(0.0);
    let trials = c("dac.yield.trials");
    let per = |v: f64| if trials > 0.0 { v / trials } else { 0.0 };
    m.layer("dac.yield.trials", trials, "count");
    m.layer(
        "dac.codes_per_trial",
        per(c("dac.yield.codes_scanned")),
        "ratio",
    );
    m.layer("dac.fallback_ratio", per(c("dac.yield.fallbacks")), "ratio");
}
