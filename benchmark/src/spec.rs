//! The metric and workload tables, read from the one place they are written
//! down: `BENCHMARK.json` at the repository root, embedded at build time.

use pefp_workload::JsonValue;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &JsonValue, key: &str) -> Vec<MetricSpec> {
    let text = |m: &JsonValue, k: &str| {
        m.get(k).and_then(JsonValue::as_str).expect("metric field").to_string()
    };
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric table")
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(JsonValue::as_number),
        })
        .collect()
}

pub fn load() -> Spec {
    let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workload table")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("workload name").to_string())
        .collect();
    Spec {
        workloads,
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_what_the_binary_runs() {
        let spec = load();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert_eq!(spec.end_to_end.len(), 8);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
