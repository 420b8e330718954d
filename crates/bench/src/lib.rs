//! # pefp-bench
//!
//! Evaluation harness for the PEFP reproduction. The **`figures` binary**
//! (`cargo run -p pefp-bench --release --bin figures --
//! <fig8|table2|all|...>`) regenerates every table and figure of the paper's
//! evaluation section as simulated device time, the paper's metric, and
//! writes both a textual report and machine-readable JSON series; its
//! experiment setup comes from [`harness_config`]. The library also holds:
//!
//! * [`gate`] — the fixed workloads the tier-1 cycle-anchor tests share, and
//!   the **`bench_gate` binary**'s one table of within-run ratio floors
//!   ([`gate::CASES`]). It reads no baseline file, and no
//!   verdict depends on an absolute wall-clock number: exact cycles are
//!   tier-1 literals and wall-clock regression is `benchmark/`'s job;
//! * [`routing_fit`] — the offline calibration behind the `routing_table`
//!   binary, with the machine-speed probe its `--write` mode uses;
//! * [`loadgen`] — the open-loop TCP load generator.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gate;
pub mod loadgen;
pub mod routing_fit;

use pefp_fpga::DeviceConfig;
use pefp_graph::ScaleProfile;
use pefp_workload::{ExperimentConfig, Runner};

/// Builds the experiment configuration the figures binary runs.
///
/// `scale` and `queries` come from the CLI; everything else mirrors the
/// paper's setup (Alveo U200 profile).
pub fn harness_config(scale: ScaleProfile, queries: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale,
        queries_per_point: queries,
        seed: 0x5EED,
        device: DeviceConfig::alveo_u200(),
        max_expected_paths: 2.0e5,
    }
}

/// Convenience constructor for a runner at the given scale.
pub fn make_runner(scale: ScaleProfile, queries: usize) -> Runner {
    Runner::new(harness_config(scale, queries))
}

/// Parses a `--scale` CLI value.
pub fn parse_scale(value: &str) -> Option<ScaleProfile> {
    match value.to_ascii_lowercase().as_str() {
        "tiny" => Some(ScaleProfile::Tiny),
        "small" => Some(ScaleProfile::Small),
        "medium" => Some(ScaleProfile::Medium),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("tiny"), Some(ScaleProfile::Tiny));
        assert_eq!(parse_scale("SMALL"), Some(ScaleProfile::Small));
        assert_eq!(parse_scale("medium"), Some(ScaleProfile::Medium));
        assert_eq!(parse_scale("huge"), None);
    }

    #[test]
    fn harness_config_uses_the_u200_profile() {
        let cfg = harness_config(ScaleProfile::Tiny, 5);
        assert_eq!(cfg.queries_per_point, 5);
        assert_eq!(cfg.device, DeviceConfig::alveo_u200());
    }
}
