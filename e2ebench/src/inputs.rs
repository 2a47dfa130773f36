//! Seeded input generation. The same `--seed` gives the same request
//! bodies and flow items; the program under test sees only these inputs.
//!
//! No capture of real `dacd` traffic exists, so the service request mix
//! below is an assumption, not a measurement. Each ratio is chosen for
//! coverage and stated with its reason where it is defined.

use crate::loadgen::WireRequest;
use ctsdac::core::{DacSpec, FlowOptions, Objective, SaturationCondition, TopologyChoice};
use ctsdac::service::protocol::{cache_key, parse_request, Mode};
use std::collections::BTreeSet;

/// Tenants the load is spread over. The default admission bucket is
/// 200 req/s per tenant, so a single tenant would shed the load; at 8
/// tenants each sees 25 req/s, far below its bucket, so admission never
/// sheds and never shapes the latency.
pub const TENANTS: usize = 8;

/// Small deterministic generator for the inputs (splitmix64).
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for one workload stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Endpoint path of a mode.
pub fn path_of(mode: Mode) -> &'static str {
    match mode {
        Mode::Sizing => "/v1/sizing",
        Mode::Sweep => "/v1/sweep",
        Mode::Yield => "/v1/yield",
    }
}

/// Mode served at an endpoint path.
pub fn mode_of(path: &str) -> Mode {
    match path {
        "/v1/sweep" => Mode::Sweep,
        "/v1/yield" => Mode::Yield,
        _ => Mode::Sizing,
    }
}

fn objective_name(g: &mut Gen) -> &'static str {
    ["min_area", "max_speed", "max_impedance"][g.int(0, 2) as usize]
}

/// Modes of the generated requests, cycled in this order: four sweeps,
/// three sizings and three yields in every ten requests. An assumed,
/// near-even split, so each of the three endpoints carries about a third
/// of the load; a fixed cycle keeps the mix identical across seeds and
/// only parameters vary.
pub const MODE_CYCLE: [Mode; 10] = [
    Mode::Sweep,
    Mode::Sizing,
    Mode::Yield,
    Mode::Sweep,
    Mode::Sizing,
    Mode::Yield,
    Mode::Sweep,
    Mode::Sizing,
    Mode::Yield,
    Mode::Sweep,
];

/// Draws a value set in shuffled blocks: every block of `values.len()`
/// draws uses each value once. Across seeds a run then holds nearly the
/// same multiset of grids, trial counts and job counts, in another order,
/// so seed-to-seed spread comes from the order and not from a lucky mix.
#[derive(Debug, Clone)]
struct Strata {
    values: Vec<u64>,
    pos: usize,
}

impl Strata {
    fn new(values: impl IntoIterator<Item = u64>) -> Self {
        let values: Vec<u64> = values.into_iter().collect();
        let pos = values.len();
        Self { values, pos }
    }

    fn next(&mut self, g: &mut Gen) -> u64 {
        if self.pos == self.values.len() {
            for i in (1..self.values.len()).rev() {
                let j = g.int(0, i as u64) as usize;
                self.values.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.values[self.pos - 1]
    }
}

/// Draws service requests: sweeps and sizings at grid 24..=64 and
/// yields at 2k..=20k trials (the ranges the workload definition names),
/// `jobs` 2 on one request in eight (so the pool's fan-out is on the path
/// without dominating it), and the statistical and exact saturation
/// conditions with equal odds (both are served; neither is known to
/// dominate in use).
struct Mix {
    g: Gen,
    grid_sweep: Strata,
    grid_sizing: Strata,
    trials: Strata,
    jobs: Strata,
}

impl Mix {
    fn new(seed: u64, stream: u64) -> Self {
        Self {
            g: Gen::new(seed, stream),
            grid_sweep: Strata::new(24..=64),
            grid_sizing: Strata::new(24..=64),
            trials: Strata::new((2..=20).map(|k| k * 1000)),
            jobs: Strata::new([2, 1, 1, 1, 1, 1, 1, 1]),
        }
    }

    /// One request of `mode` for tenant index `tenant`.
    fn draw(&mut self, mode: Mode, tenant: usize) -> WireRequest {
        let g = &mut self.g;
        let inl_yield = g.uniform(0.99, 0.999);
        let jobs = self.jobs.next(g);
        let condition = ["statistical", "exact"][g.int(0, 1) as usize];
        let fields = match mode {
            Mode::Sweep => {
                let grid = self.grid_sweep.next(g);
                format!("\"grid\":{grid},\"condition\":\"{condition}\"")
            }
            Mode::Sizing => {
                let grid = self.grid_sizing.next(g);
                let objective = objective_name(g);
                format!(
                    "\"grid\":{grid},\"objective\":\"{objective}\",\"condition\":\"{condition}\""
                )
            }
            Mode::Yield => {
                let vov_cs = g.uniform(0.6, 1.2);
                let vov_sw = g.uniform(0.25, 0.45);
                let trials = self.trials.next(g);
                let seed = g.next_u64() >> 16;
                format!(
                    "\"vov_cs\":{vov_cs},\"vov_sw\":{vov_sw},\"trials\":{trials},\"chunk_trials\":1000,\"seed\":{seed}"
                )
            }
        };
        WireRequest {
            path: path_of(mode),
            body: format!(
                "{{{fields},\"inl_yield\":{inl_yield},\"jobs\":{jobs},\"tenant\":\"t{}\"}}",
                tenant % TENANTS
            ),
        }
    }
}

/// Canonical cache key of a wire request (`None` if it does not parse).
pub fn key_of(r: &WireRequest) -> Option<String> {
    parse_request(mode_of(r.path), &r.body)
        .ok()
        .map(|q| cache_key(&q))
}

/// `count` requests with pairwise distinct cache keys.
pub fn distinct_requests(seed: u64, stream: u64, count: usize) -> Vec<WireRequest> {
    let mut mix = Mix::new(seed, stream);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let r = mix.draw(MODE_CYCLE[out.len() % MODE_CYCLE.len()], out.len());
        if let Some(key) = key_of(&r) {
            if seen.insert(key) {
                out.push(r);
            }
        }
    }
    out
}

/// `count` requests drawn uniformly from `hot`, re-labelled round-robin
/// over the tenants (the tenant is not part of the cache key, so every
/// one of them is a hit once `hot` is cached).
pub fn hot_schedule(seed: u64, hot: &[WireRequest], count: usize) -> Vec<WireRequest> {
    let mut g = Gen::new(seed, 7);
    (0..count)
        .map(|i| {
            let h = &hot[g.int(0, hot.len() as u64 - 1) as usize];
            let tenant_field = format!("\"tenant\":\"t{}\"", i % TENANTS);
            let body = match h.body.rfind("\"tenant\":") {
                Some(at) => format!("{}{tenant_field}}}", &h.body[..at]),
                None => h.body.clone(),
            };
            WireRequest { path: h.path, body }
        })
        .collect()
}

/// One `flow-batch` item: the sizing flow, its saturation-yield check,
/// and the eq. (1) INL-yield check of the 12-bit converter.
#[derive(Debug, Clone)]
pub struct FlowItem {
    /// Specification (12 bits, 4 binary LSBs, seeded INL-yield target).
    pub spec: DacSpec,
    /// Flow options: simple topology at grid 64.
    pub options: FlowOptions,
    /// Seed of the supervised saturation-yield run.
    pub sat_seed: u64,
    /// Seed of the INL-yield Monte-Carlo loop.
    pub inl_seed: u64,
}

/// Trials of each item's saturation-yield check.
pub const SAT_TRIALS: u64 = 20_000;
/// Chunk size of the saturation-yield plan.
pub const SAT_CHUNK: u64 = 1_000;
/// Trials of each item's INL-yield loop.
pub const INL_TRIALS: u64 = 100;
/// Flow grid per overdrive axis.
pub const FLOW_GRID: usize = 64;

/// `count` seeded flow items.
pub fn flow_items(seed: u64, count: usize) -> Vec<FlowItem> {
    let mut g = Gen::new(seed, 11);
    (0..count)
        .map(|i| {
            let paper = DacSpec::paper_12bit();
            let spec = DacSpec::new(12, 4, g.uniform(0.99, 0.999), paper.env, paper.tech);
            let objective = [Objective::MinArea, Objective::MaxSpeed][i % 2];
            let options = FlowOptions {
                objective,
                topology: TopologyChoice::Simple,
                condition: SaturationCondition::Statistical,
                grid: FLOW_GRID,
                ..FlowOptions::default()
            };
            FlowItem {
                spec,
                options,
                sat_seed: g.next_u64() >> 16,
                inl_seed: g.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = distinct_requests(5, 1, 50);
        let b = distinct_requests(5, 1, 50);
        let c = distinct_requests(6, 1, 50);
        let bodies = |v: &[WireRequest]| v.iter().map(|r| r.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&c));
    }

    #[test]
    fn strata_use_every_value_once_per_block() {
        let mut g = Gen::new(1, 0);
        let mut s = Strata::new(0..5);
        for _ in 0..3 {
            let mut block: Vec<u64> = (0..5).map(|_| s.next(&mut g)).collect();
            block.sort_unstable();
            assert_eq!(block, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn distinct_requests_have_distinct_keys_and_parse() {
        let reqs = distinct_requests(9, 1, 300);
        let keys: BTreeSet<String> = reqs.iter().filter_map(key_of).collect();
        assert_eq!(keys.len(), 300);
    }

    #[test]
    fn hot_schedule_keeps_keys_and_rotates_tenants() {
        let hot = distinct_requests(3, 2, 10);
        let hot_keys: BTreeSet<String> = hot.iter().filter_map(key_of).collect();
        let sched = hot_schedule(3, &hot, 40);
        for (i, r) in sched.iter().enumerate() {
            let key = key_of(r).expect("parses");
            assert!(hot_keys.contains(&key));
            let q = parse_request(mode_of(r.path), &r.body).expect("parses");
            assert_eq!(q.tenant, format!("t{}", i % TENANTS));
        }
    }
}
