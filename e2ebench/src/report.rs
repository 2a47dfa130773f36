//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports the same names: the end-to-end set in an
//! untraced run, the per-layer set in a traced one. A layer a workload
//! does not reach reads 0 there. The lists below must match
//! `BENCHMARK.json` (checked by a unit test).

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.queue_residual_us_p50", "us"),
    ("server.queue_residual_us_p99", "us"),
    ("client.connect_us", "us"),
    ("client.ttfb_us", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("admission.admit_us", "us"),
    ("cache.claim_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("admission.shed", "count"),
    ("store.recovery_ms", "ms"),
    ("store.put_us", "us"),
    ("store.records_appended", "count"),
    ("store.fsyncs", "count"),
    ("engine.sweep_us", "us"),
    ("engine.sizing_us", "us"),
    ("engine.yield_us", "us"),
    ("runtime.pool_overhead_us", "us"),
    ("runtime.chunks", "count"),
    ("runtime.retries", "count"),
    ("explore.sweep_us", "us"),
    ("dc.solves", "count"),
    ("dc.iters_per_solve", "ratio"),
    ("dc.failures", "count"),
    ("mc.trials", "count"),
    ("validate.trials_per_s", "1/s"),
    ("dac.inl_trials_per_s", "1/s"),
    ("dac.yield.trials", "count"),
    ("dac.codes_per_trial", "ratio"),
    ("dac.fallback_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("error_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_ratio", "ratio"),
];

/// Metrics collected by one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    e2e: Vec<(String, f64, String)>,
    layer: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.push((name.into(), value, unit.into()));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layer.push((name.into(), value, unit.into()));
    }

    /// Value of an end-to-end metric.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Every output verified.
    pub correct: bool,
    /// Operations attempted (requests or flow items, fill phase included).
    pub attempted: u64,
    /// Operations that failed or did not verify.
    pub failed: u64,
    /// Collected metrics.
    pub metrics: Metrics,
}

/// Renders the result line: the end-to-end set, or with `traced` the
/// per-layer set. Errors if the run did not produce every catalogued
/// metric with its catalogued unit, or produced a non-finite value.
pub fn render(run: &Run, traced: bool) -> Result<String, String> {
    let (catalogue, got) = if traced {
        (PER_LAYER, &run.metrics.layer)
    } else {
        (END_TO_END, &run.metrics.e2e)
    };
    let mut fields = Vec::new();
    for (name, unit) in catalogue {
        let (_, value, u) = got
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| format!("metric `{name}` was not produced"))?;
        if u != unit || !value.is_finite() {
            return Err(format!(
                "metric `{name}` = {value} {u} does not fit the catalogue"
            ));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct,
        run.attempted,
        run.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac::service::json::{parse, JsonValue};

    fn names(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_requires_every_metric() {
        let mut m = Metrics::default();
        for (n, u) in END_TO_END {
            m.e2e(n, 1.25, u);
        }
        let run = Run {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m.clone(),
        };
        let line = render(&run, false).expect("complete");
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_num), Some(3.0));
        assert!(render(&run, true).is_err(), "per-layer set is missing");
        let mut short = m;
        short.e2e.pop();
        let run = Run {
            metrics: short,
            ..run
        };
        assert!(render(&run, false).is_err());
    }
}
