//! JSON (de)serialisation for the adaptive engine router.
//!
//! `pefp-core` owns the routing *logic* ([`RoutingTable`], [`RouteDecision`])
//! but cannot depend on this crate, so the hand-rolled JSON round-trip for
//! the committed `docs/routing_table.json` — and the rendering the server's
//! `EXPLAIN` command ships over the wire — live here, next to the rest of the
//! [`crate::json`] vocabulary. No serde: the offline shims cannot serialise,
//! so the file format is plain [`JsonValue`] like every other artefact.

use crate::json::{JsonValue, ToJson};
use pefp_core::routing::{RouteDecision, RoutingTable};

impl ToJson for RoutingTable {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("version", JsonValue::Number(self.version as f64)),
            ("bcdfs_us_per_unit", JsonValue::Number(self.bcdfs_us_per_unit)),
            ("bcdfs_fixed_us", JsonValue::Number(self.bcdfs_fixed_us)),
            ("join_us_per_unit", JsonValue::Number(self.join_us_per_unit)),
            ("join_fixed_us", JsonValue::Number(self.join_fixed_us)),
            ("device_us_per_unit", JsonValue::Number(self.device_us_per_unit)),
            ("device_fixed_us", JsonValue::Number(self.device_fixed_us)),
            ("transfer_us_per_kib", JsonValue::Number(self.transfer_us_per_kib)),
            ("cpu_work_ceiling", JsonValue::Number(self.cpu_work_ceiling)),
        ])
    }
}

/// Parses a [`RoutingTable`] from its committed JSON form. Every field is
/// required; unknown keys are rejected so a typo'd calibration cannot
/// silently fall back to a default coefficient.
pub fn routing_table_from_json(value: &JsonValue) -> Result<RoutingTable, String> {
    let JsonValue::Object(pairs) = value else {
        return Err("routing table must be a JSON object".to_string());
    };
    let known = [
        "version",
        "bcdfs_us_per_unit",
        "bcdfs_fixed_us",
        "join_us_per_unit",
        "join_fixed_us",
        "device_us_per_unit",
        "device_fixed_us",
        "transfer_us_per_kib",
        "cpu_work_ceiling",
    ];
    for (key, _) in pairs {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown routing table key {key:?}"));
        }
    }
    let number = |key: &str| -> Result<f64, String> {
        value
            .get(key)
            .and_then(|v| v.as_number())
            .ok_or_else(|| format!("routing table is missing numeric key {key:?}"))
    };
    let table = RoutingTable {
        version: number("version")? as u32,
        bcdfs_us_per_unit: number("bcdfs_us_per_unit")?,
        bcdfs_fixed_us: number("bcdfs_fixed_us")?,
        join_us_per_unit: number("join_us_per_unit")?,
        join_fixed_us: number("join_fixed_us")?,
        device_us_per_unit: number("device_us_per_unit")?,
        device_fixed_us: number("device_fixed_us")?,
        transfer_us_per_kib: number("transfer_us_per_kib")?,
        cpu_work_ceiling: number("cpu_work_ceiling")?,
    };
    let problems = table.validate();
    if !problems.is_empty() {
        return Err(format!("invalid routing table: {}", problems.join("; ")));
    }
    Ok(table)
}

/// Parses a [`RoutingTable`] from JSON text (the contents of
/// `docs/routing_table.json`).
pub fn parse_routing_table(text: &str) -> Result<RoutingTable, String> {
    let value = JsonValue::parse(text).map_err(|e| format!("routing table JSON: {e}"))?;
    routing_table_from_json(&value)
}

impl ToJson for RouteDecision {
    /// The `EXPLAIN` wire format: decision, predicted per-engine costs, the
    /// full feature vector and the rationale, as one JSON object.
    fn to_json(&self) -> JsonValue {
        let f = &self.features;
        JsonValue::object(vec![
            ("engine", JsonValue::String(self.choice.name().to_string())),
            ("cpu", JsonValue::Bool(self.choice.is_cpu())),
            ("cost_estimate_us", JsonValue::Number(self.cost_estimate_us)),
            (
                "costs_us",
                JsonValue::object(vec![
                    ("bc_dfs", JsonValue::Number(self.costs.bc_dfs_us)),
                    ("join", JsonValue::Number(self.costs.join_us)),
                    ("device", JsonValue::Number(self.costs.device_us)),
                ]),
            ),
            (
                "features",
                JsonValue::object(vec![
                    ("vertices", JsonValue::Number(f.vertices as f64)),
                    ("edges", JsonValue::Number(f.edges as f64)),
                    ("k", JsonValue::Number(f.k as f64)),
                    ("transfer_bytes", JsonValue::Number(f.transfer_bytes as f64)),
                    ("feasible", JsonValue::Bool(f.feasible)),
                    ("max_results", JsonValue::Number(f.estimate.max_results as f64)),
                    (
                        "max_intermediate_paths",
                        JsonValue::Number(f.estimate.max_intermediate_paths as f64),
                    ),
                    ("saturated", JsonValue::Bool(f.estimate.saturated)),
                    ("dfs_work", JsonValue::Number(f.dfs_work)),
                    ("join_work", JsonValue::Number(f.join_work)),
                    (
                        "barrier_histogram",
                        JsonValue::numbers(
                            &f.barrier_histogram.iter().map(|&c| c as f64).collect::<Vec<_>>(),
                        ),
                    ),
                ]),
            ),
            ("rationale", JsonValue::strings(&self.rationale)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_table_round_trips() {
        let table = RoutingTable::builtin();
        let text = table.to_json().render_pretty();
        let parsed = parse_routing_table(&text).expect("round trip");
        assert_eq!(parsed, table);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut value = RoutingTable::builtin().to_json();
        if let JsonValue::Object(pairs) = &mut value {
            pairs.push(("typo_coefficient".to_string(), JsonValue::Number(1.0)));
        }
        assert!(routing_table_from_json(&value).is_err());
    }

    #[test]
    fn retired_multi_cu_keys_are_rejected() {
        let mut value = RoutingTable::builtin().to_json();
        if let JsonValue::Object(pairs) = &mut value {
            pairs.push(("multi_cu_work_cutoff".to_string(), JsonValue::Number(1e6)));
        }
        let err = routing_table_from_json(&value).unwrap_err();
        assert!(err.contains("unknown routing table key"), "{err}");
    }

    #[test]
    fn missing_keys_are_rejected() {
        let mut value = RoutingTable::builtin().to_json();
        if let JsonValue::Object(pairs) = &mut value {
            pairs.retain(|(k, _)| k != "device_us_per_unit");
        }
        let err = routing_table_from_json(&value).unwrap_err();
        assert!(err.contains("device_us_per_unit"), "{err}");
    }

    #[test]
    fn invalid_coefficients_are_rejected() {
        let mut table = RoutingTable::builtin();
        table.device_us_per_unit = -1.0;
        let text = table.to_json().render();
        assert!(parse_routing_table(&text).is_err());
    }

    #[test]
    fn decisions_render_as_real_json() {
        use pefp_core::routing::{route_query, RouteContext};
        use pefp_core::{prepare_snapshot_with, PefpVariant, PrepareContext};
        use pefp_graph::{CsrGraph, GraphSnapshot, VertexId};
        let g = GraphSnapshot::from_csr(CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        let (s, t) = (VertexId(0), VertexId(3));
        let prepared =
            prepare_snapshot_with(&mut PrepareContext::new(), &g, s, t, 3, PefpVariant::Full);
        let decision = route_query(
            &prepared,
            &RoutingTable::builtin(),
            &RouteContext { compute_units: 2, charge_banked: false },
        );
        let rendered = decision.to_json().render();
        let parsed = JsonValue::parse(&rendered).expect("EXPLAIN output must be valid JSON");
        assert_eq!(parsed.get("engine").and_then(|v| v.as_str()), Some(decision.choice.name()));
        assert!(parsed.get("rationale").and_then(|v| v.as_array()).is_some());
    }
}
