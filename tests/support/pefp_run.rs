//! One PEFP query through the two core calls — `prepare_snapshot_with` on a
//! fresh `PrepareContext`, then `run_prepared_on_device` on a fresh device —
//! for the integration tests that need a variant, engine options or a device
//! profile the `pefp::enumerate_paths` facade does not take. Each test
//! includes this file with `#[path]` and uses what it needs; it depends on
//! nothing but `pefp`.

#![allow(dead_code)]

use pefp::core::{
    prepare_snapshot_with, run_prepared_on_device, CollectSink, EngineOptions, PefpRunResult,
    PefpVariant, PrepareContext, PreparedQuery,
};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::{GraphSnapshot, Path, VertexId};

/// `variant`'s preparation of `(s, t, k)` on `g`, on a fresh context.
pub fn prepare_fresh(
    g: &GraphSnapshot,
    s: VertexId,
    t: VertexId,
    k: u32,
    variant: PefpVariant,
) -> PreparedQuery {
    prepare_snapshot_with(&mut PrepareContext::new(), g, s, t, k, variant)
}

/// One run of `prep` on a fresh `device`, with the paths it emitted.
pub fn run_collect(
    prep: &PreparedQuery,
    opts: EngineOptions,
    device: &DeviceConfig,
) -> (PefpRunResult, Vec<Path>) {
    let mut sink = CollectSink::new();
    let result = run_prepared_on_device(prep, opts, Device::new(device.clone()), &mut sink);
    (result, sink.into_paths())
}

/// `variant` end to end on `device` with the variant's own engine options.
pub fn run_variant(
    g: &GraphSnapshot,
    (s, t, k): (VertexId, VertexId, u32),
    variant: PefpVariant,
    device: &DeviceConfig,
) -> (PefpRunResult, Vec<Path>) {
    run_collect(&prepare_fresh(g, s, t, k, variant), variant.engine_options(), device)
}
