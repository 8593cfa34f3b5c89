//! The benchmark's metric tables — the same names, units and bounds
//! `BENCHMARK.json` declares (a unit test holds the two together) — and the
//! container a workload run fills.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// The metric's name, unique across both tables.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression (also the
    /// tolerance `--selfcheck` holds two runs of one commit to). Per-layer
    /// metrics have none.
    pub bound: Option<f64>,
    /// Whether the value is a count that must repeat bit for bit between
    /// two runs of the same commit and seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees, on every workload. An *operation* is
/// one `gmark` CLI run on the four CLI workloads and one HTTP request on
/// the two serve workloads; `wall_s` is the median wall time of one
/// iteration (the workload's CLI runs back to back, or one batch of
/// requests through both clients).
pub const END_TO_END: [Def; 5] = [
    e2e("setup_s", "s", 0.25),
    e2e("wall_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
    e2e("latency_p50_ms", "ms", 0.25),
    e2e("latency_p95_ms", "ms", 0.25),
];

/// Single-layer metrics, reported by `--trace 1`. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [Def; 75] = [
    timed("config.parse_ms", "ms"),
    timed("stats.zipf_draw_ns", "ns"),
    timed("stats.gaussian_draw_ns", "ns"),
    timed("core.gen.stream_s", "s"),
    timed("core.gen.stream_t1_s", "s"),
    timed("core.gen.materialize_s", "s"),
    exact("core.gen.edges", "count", Better::Higher),
    rate("core.gen.edges_per_s", "1/s"),
    timed("store.ntriples_write_s", "s"),
    exact("store.ntriples_bytes", "B", Better::Lower),
    timed("store.csr_build_s", "s"),
    timed("store.gstore_write_s", "s"),
    exact("store.gstore_bytes", "B", Better::Lower),
    rate("store.gstore_mb_per_s", "MB/s"),
    timed("store.open_verify_s", "s"),
    timed("store.scan_inram_s", "s"),
    timed("store.scan_paged_s", "s"),
    timed("store.lookup_paged_ns", "ns"),
    timed("store.paged_read_mb", "MB"),
    timed("store.read_amplification", "ratio"),
    timed("core.workload.generate_s", "s"),
    rate("core.workload.queries_per_s", "1/s"),
    exact("core.workload.target_met_share", "share", Better::Higher),
    timed("translate.write_s", "s"),
    timed("translate.stream_s", "s"),
    exact("translate.bytes", "B", Better::Lower),
    timed("engines.context_build_s", "s"),
    timed("engines.plan_s", "s"),
    exact("engines.plan_within_10x_share", "share", Better::Higher),
    timed("engines.cache_fill_s", "s"),
    exact("engines.cache_fills", "count", Better::Lower),
    exact("engines.cache_hits", "count", Better::Higher),
    exact("engines.cache_misses", "count", Better::Lower),
    exact("engines.cache_hit_rate", "share", Better::Higher),
    timed("engines.P.cell_s", "s"),
    timed("engines.G.cell_s", "s"),
    timed("engines.S.cell_s", "s"),
    timed("engines.D.cell_s", "s"),
    timed("engines.slowest_cell_s", "s"),
    timed("engines.matrix_s", "s"),
    timed("engines.matrix_nocache_s", "s"),
    exact("engines.ok_cells", "count", Better::Higher),
    exact("engines.too_large_cells", "count", Better::Lower),
    exact("engines.timeout_cells", "count", Better::Lower),
    exact("engines.answer_tuples", "count", Better::Higher),
    exact("engines.answered_share", "share", Better::Higher),
    timed("run.nullsink_s", "s"),
    timed("run.dirsink_s", "s"),
    timed("run.stage_graph_s", "s"),
    timed("run.stage_store_s", "s"),
    timed("run.stage_workload_s", "s"),
    timed("run.stage_eval_s", "s"),
    timed("run.cpu_user_s", "s"),
    timed("run.cpu_sys_s", "s"),
    exact("run.output_bytes", "B", Better::Lower),
    timed("serve.healthz_p50_us", "us"),
    timed("serve.close_roundtrip_p50_us", "us"),
    timed("serve.json.parse_us", "us"),
    rate("serve.cache.hits", "count"),
    timed("serve.cache.builds", "count"),
    timed("serve.cache.evictions", "count"),
    rate("serve.cache.hit_rate", "share"),
    timed("serve.admission.rejected", "count"),
    timed("serve.admission.expired", "count"),
    timed("serve.queue_wait_p95_us", "us"),
    timed("serve.build_p50_ms", "ms"),
    timed("serve.stream_p50_us", "us"),
    timed("serve.bytes_out_mb", "MB"),
    timed("serve.latency_p99_ms", "ms"),
    timed("serve.latency_max_ms", "ms"),
    rate("serve.requests_per_s", "1/s"),
    timed("serve.client_overhead_share", "share"),
    timed("serve.client_idle_ms", "ms"),
    timed("trace.spans", "count"),
    timed("trace.overhead_share", "share"),
];

/// One measured value with the sample it summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The reported number: a median, a percentile, a sum or a count.
    pub value: f64,
    /// How many samples stand behind it (0: the layer was not exercised).
    pub samples: usize,
    /// First quartile of those samples (the value itself for single reads).
    pub q1: f64,
    /// Third quartile of those samples.
    pub q3: f64,
}

/// The metrics a run has measured so far, by name.
#[derive(Debug, Clone, Default)]
pub struct Measured(BTreeMap<&'static str, Value>);

impl Measured {
    /// Records a single read (a sum, a count, a maximum).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with_samples(name, value, 1);
    }

    /// Records a value derived from `samples` samples without quartiles of
    /// its own (a percentile, a rate over many requests).
    pub fn set_with_samples(&mut self, name: &'static str, value: f64, samples: usize) {
        self.insert(
            name,
            Value {
                value,
                samples,
                q1: value,
                q3: value,
            },
        );
    }

    /// Records the median of `samples`, with its quartiles.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = stats::summarize(samples);
        self.insert(
            name,
            Value {
                value: s.median,
                samples: s.n,
                q1: s.q1,
                q3: s.q3,
            },
        );
    }

    /// Adds to a running sum (layers measured once per use case).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let previous = self.0.get(name).map_or((0.0, 0), |v| (v.value, v.samples));
        self.set_with_samples(name, previous.0 + value, previous.1 + 1);
    }

    fn insert(&mut self, name: &'static str, value: Value) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Every metric of `table` in declaration order; unmeasured ones read
    /// 0 with no samples.
    pub fn in_table<'a>(&'a self, table: &'a [Def]) -> impl Iterator<Item = (&'a Def, Value)> {
        table.iter().map(move |def| {
            let zero = Value {
                value: 0.0,
                samples: 0,
                q1: 0.0,
                q3: 0.0,
            };
            (def, self.get(def.name).unwrap_or(zero))
        })
    }

    /// `{"name": {"value": …, "unit": …}}` — the shape of the driver's
    /// result line.
    pub fn driver_json(&self, table: &[Def]) -> Json {
        Json::obj(self.in_table(table).map(|(def, v)| {
            (
                def.name,
                Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(def.unit))]),
            )
        }))
    }

    /// The full per-metric record of the result document.
    pub fn document_json(&self, table: &[Def]) -> Json {
        Json::obj(self.in_table(table).map(|(def, v)| {
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(v.value)),
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                    ("samples", Json::Int(v.samples as u64)),
                    ("q1", Json::Num(v.q1)),
                    ("q3", Json::Num(v.q3)),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package.
    fn declared() -> gmark::serve::json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        gmark::serve::json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn rows(doc: &gmark::serve::json::Json, key: &str) -> Vec<gmark::serve::json::Json> {
        match doc.get(key) {
            Some(gmark::serve::json::Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    #[test]
    fn tables_equal_what_benchmark_json_declares() {
        let doc = declared();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = rows(&doc, key);
            assert_eq!(declared.len(), table.len(), "{key}: metric count");
            for (row, def) in declared.iter().zip(table) {
                let field = |k: &str| row.get(k).and_then(|v| v.as_str()).map(str::to_owned);
                assert_eq!(field("name").as_deref(), Some(def.name), "{key}");
                assert_eq!(field("unit").as_deref(), Some(def.unit), "{}", def.name);
                assert_eq!(
                    field("better").as_deref(),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = match row.get("bound") {
                    Some(gmark::serve::json::Json::Num(b)) => Some(*b),
                    _ => None,
                };
                assert_eq!(bound, def.bound, "{}", def.name);
            }
        }
        let names: Vec<String> = rows(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_u64()),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn medians_sums_and_defaults() {
        let mut m = Measured::default();
        m.set_median("wall_s", &[3.0, 1.0, 2.0]);
        m.add("core.gen.edges", 5.0);
        m.add("core.gen.edges", 7.0);
        assert_eq!(m.get("wall_s").unwrap().value, 2.0);
        assert_eq!(m.get("wall_s").unwrap().samples, 3);
        assert_eq!(m.get("core.gen.edges").unwrap().value, 12.0);
        let all: Vec<_> = m.in_table(&PER_LAYER).collect();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all
            .iter()
            .any(|(d, v)| d.name == "serve.cache.hits" && v.value == 0.0 && v.samples == 0));
        let line = m.driver_json(&END_TO_END).to_string();
        assert!(
            line.contains("\"wall_s\":{\"value\":2,\"unit\":\"s\"}"),
            "{line}"
        );
    }
}
