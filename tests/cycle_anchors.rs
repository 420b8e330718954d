//! Exact simulated-cycle anchors of the fixed gate workloads.
//!
//! The device cost model is deterministic, so each workload's cycle total is
//! a literal: a change to the engine, the memory model or any `DeviceConfig`
//! latency that moves one cycle fails here. Every workload below is a single
//! closed-loop tenant (one query in flight at a time), so no compute unit
//! ever contends and no count depends on thread timing. The 1/2/4-CU
//! dispatch anchor of the same hub-pair batch lives in
//! `tests/multi_cu_dispatch.rs`.

use pefp::core::{prepare_snapshot_with, run_prepared_on_device, PefpVariant, PrepareContext};
use pefp::core::{CountingSink, RoutingTable};
use pefp::fpga::{Device, DeviceConfig};
use pefp::graph::VertexId;
use pefp_bench::gate::{
    concurrency_runtime, fraud_stream_detector, fraud_stream_workload, gate_batch, gate_graph,
    mixed_round_millis, mixed_runtime, mixed_workload_pools, run_concurrency_clients,
};

#[test]
fn counting_the_k7_hub_query_takes_35188_cycles() {
    let prep = prepare_snapshot_with(
        &mut PrepareContext::new(),
        &gate_graph().snapshot(),
        VertexId(0),
        VertexId(3),
        7,
        PefpVariant::Full,
    );
    let device = Device::new(DeviceConfig::alveo_u200());
    let result = run_prepared_on_device(
        &prep,
        PefpVariant::Full.engine_options(),
        device,
        &mut CountingSink::new(),
    );
    assert_eq!(result.device.cycles, 35_188);
}

#[test]
fn one_session_virtual_makespan_is_the_serial_batch_total() {
    let runtime = concurrency_runtime(&gate_graph());
    run_concurrency_clients(&runtime, 1, &gate_batch());
    assert_eq!(runtime.stats().virtual_makespan_cycles, 77_345);
}

#[test]
fn routed_mixed_round_takes_46021_device_cycles() {
    let (handle, tiny, heavy) = mixed_workload_pools();
    let mixed: Vec<_> = tiny.iter().chain(&heavy).copied().collect();
    let runtime = mixed_runtime(&handle, Some(RoutingTable::builtin()));
    mixed_round_millis(&runtime, &mixed);
    assert_eq!(runtime.stats().total_device_cycles, 46_021);
}

#[test]
fn fraud_stream_round_takes_662_device_cycles() {
    let mut detector = fraud_stream_detector();
    for tx in &fraud_stream_workload() {
        detector.ingest(tx);
    }
    assert_eq!(detector.runtime().stats().total_device_cycles, 662);
}
