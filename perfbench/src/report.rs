//! Metric tables, the per-run record and its JSON serialisation.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

/// The end-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("vertex_updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
];

/// The per-layer metrics of a traced run: `(name, unit)`. Every traced
/// run reports all of them; a layer a workload does not exercise reads 0
/// and is listed as not exercised in the run record (see
/// `perfbench/workloads.json` for which workloads each one applies to).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("order.rdr_ms", "ms"),
    ("order.apply_ms", "ms"),
    ("order.ori_ms_per_sweep", "ms"),
    ("order.rdr_cost_sweeps", "sweeps"),
    ("order.ori_solve_ms", "ms"),
    ("order.rdr_solve_ms", "ms"),
    ("order.solve_speedup_vs_ori", "ratio"),
    ("order.ori_sweeps", "count"),
    ("order.rdr_sweeps", "count"),
    ("order.mean_gap", "positions"),
    ("order.mean_span", "positions"),
    ("order.ori_mean_gap", "positions"),
    ("order.ori_mean_span", "positions"),
    ("cache.model_l2_misses_per_sweep_rdr", "count"),
    ("cache.model_l2_misses_per_sweep_ori", "count"),
    ("cache.model_l3_misses_per_sweep_rdr", "count"),
    ("cache.model_l3_misses_per_sweep_ori", "count"),
    ("mesh.adjacency_ms", "ms"),
    ("mesh.boundary_ms", "ms"),
    ("mesh3d.adjacency_ms", "ms"),
    ("mesh3d.boundary_ms", "ms"),
    ("mesh3d.engine_new_ms", "ms"),
    ("part.partition_ms", "ms"),
    ("part.schedule_ms", "ms"),
    ("part.edge_cut", "count"),
    ("part.halo_vertices", "count"),
    ("smooth.engine_new_ms", "ms"),
    ("smooth.resident_new_ms", "ms"),
    ("smooth.sweeps", "count"),
    ("smooth.scored_elements", "count"),
    ("smooth.ns_per_vertex_sweep", "ns"),
    ("smooth.ns_per_scored_element", "ns"),
    ("smooth.moved_vertices", "count"),
    ("smooth.interface_visits", "count"),
    ("smooth.moved_ratio", "ratio"),
    ("smooth.gather_ms", "ms"),
    ("smooth.color_step_ms", "ms"),
    ("smooth.scatter_ms", "ms"),
    ("smooth.part_sweep_imbalance", "ratio"),
    ("smooth.halo_messages_per_round", "1/round"),
    ("smooth.halo_bytes_per_round", "B/round"),
    ("dist.encode_ms", "ms"),
    ("dist.decode_ms", "ms"),
    ("dist.poll_wait_ms", "ms"),
    ("dist.hidden_wait_ms", "ms"),
    ("dist.checkpoint_ms", "ms"),
    ("dist.rank_compute_max_ms", "ms"),
    ("dist.recoveries", "count"),
    ("trace.traced_total_s", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-metric samples collected over a run's repetitions.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }
}

/// One reported metric: the median value plus, when it came from more
/// than one sample, the summary it is the median of.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// False for a per-layer metric the workload does not exercise.
    pub exercised: bool,
}

impl Metric {
    pub fn from_samples(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
        let s = summarize(xs);
        Metric { name, unit, value: s.median, summary: (s.n > 1).then_some(s), exercised: true }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, summary: None, exercised: true }
    }
}

/// The per-layer table of a traced run, in [`PER_LAYER`] order.
pub fn per_layer_metrics(samples: &Samples) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| match samples.get(name) {
            Some(xs) if !xs.is_empty() => Metric::from_samples(name, unit, xs),
            _ => Metric { name, unit, value: 0.0, summary: None, exercised: false },
        })
        .collect()
}

/// A JSON value, serialised by [`Json::write`].
#[derive(Debug, Clone)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn write(&self, out: &mut String) {
        match self {
            // Display of f64 is the shortest round-tripping decimal,
            // never in exponent form, so it is valid JSON as printed
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A metric as one record entry: value, unit, and its summary if any.
pub fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
    if let Some(s) = m.summary {
        fields.push(("n", Json::Int(s.n as u64)));
        fields.push(("q1", Json::Num(s.q1)));
        fields.push(("q3", Json::Num(s.q3)));
    }
    if !m.exercised {
        fields.push(("exercised", Json::Bool(false)));
    }
    Json::obj(fields)
}
