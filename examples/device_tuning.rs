//! Device tuning: how many verification lanes and how much on-chip buffer
//! does a deployment actually need?
//!
//! The paper builds one bitstream for the Alveo U200 and never revisits the
//! sizing. With the simulated device the design space is cheap to explore:
//! this example sweeps the number of replicated verification lanes and the
//! buffer-area capacity, checks each point against the U200 resource budget,
//! prints an HLS-style report for the chosen configuration and shows how the
//! simulated query time and DRAM traffic respond.
//!
//! Run with `cargo run --release --example device_tuning`.

use pefp::core::{
    count_st_walks, plan_query, prepare_snapshot_with, run_prepared_on_device, CountingSink,
    EngineOptions, PefpRunResult, PefpVariant, PrepareContext,
};
use pefp::fpga::{
    Device, DeviceConfig, KernelReport, ModuleCosts, ModuleLatency, OnChipAreas, PipelineSpec,
    PowerModel, ResourceBudget, ResourceEstimate,
};
use pefp::graph::{sampling::sample_reachable_pairs, Dataset, GraphSnapshot, ScaleProfile};

fn main() {
    // Workload: one representative query on the BerkStan stand-in (dense web
    // graph, the heaviest per-query work in the evaluation). The pair is
    // sampled so that t really is reachable from s within k hops, like the
    // paper's query workloads.
    let graph = Dataset::BerkStan.generate(ScaleProfile::Small).to_csr();
    let k = 7;
    // Among a sample of reachable pairs, keep the one with the largest
    // predicted result volume so the sweeps exercise a non-trivial workload.
    let (s, t) = sample_reachable_pairs(&graph, k, 40, 0xB5)
        .into_iter()
        .max_by_key(|&(s, t)| count_st_walks(&graph, s, t, k))
        .expect("the BerkStan stand-in always has reachable pairs");
    println!(
        "workload: BerkStan stand-in ({} vertices, {} edges), query {s} -> {t}, k = {k}\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    // One preparation serves every run below: only the device side varies.
    let snapshot = GraphSnapshot::from_csr(graph.clone());
    let prepared =
        prepare_snapshot_with(&mut PrepareContext::new(), &snapshot, s, t, k, PefpVariant::Full);
    let run = |options: EngineOptions, device: &DeviceConfig| -> PefpRunResult {
        let cu = Device::new(device.clone());
        run_prepared_on_device(&prepared, options, cu, &mut CountingSink::new())
    };

    // --- Sweep 1: verification lanes -------------------------------------
    println!("== verification-lane sweep (buffer fixed at the default) ==");
    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>10}",
        "lanes", "kernel ms", "DRAM words", "LUT util", "fits"
    );
    for lanes in [1usize, 2, 4, 8, 16, 32] {
        let mut device = DeviceConfig::alveo_u200();
        device.verification_lanes = lanes;
        let result = run(PefpVariant::Full.engine_options(), &device);
        let areas = OnChipAreas {
            buffer_bytes: 8192 * 136,
            processing_bytes: 1024 * 136,
            graph_cache_bytes: graph.byte_size(),
            barrier_cache_bytes: graph.num_vertices() * 4,
            fifo_bytes: lanes * 2 * 136,
        };
        let estimate = ResourceEstimate::estimate(
            lanes,
            &areas,
            &ModuleCosts::default(),
            ResourceBudget::alveo_u200(),
        );
        println!(
            "{:<8} {:>12.3} {:>14} {:>11.1}% {:>10}",
            lanes,
            result.query_millis,
            result.device.counters.dram_words_total(),
            estimate.lut_utilisation() * 100.0,
            if estimate.fits() { "yes" } else { "NO" }
        );
    }

    // --- Sweep 2: buffer-area capacity ------------------------------------
    println!("\n== buffer-area sweep (Batch-DFS, default lanes) ==");
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "buffer paths", "kernel ms", "buffer flushes", "DRAM fetches"
    );
    for buffer in [512usize, 2_048, 8_192, 32_768] {
        let device = DeviceConfig::alveo_u200();
        let mut options = PefpVariant::Full.engine_options();
        options.buffer_capacity = buffer;
        options.dram_fetch_batch = buffer / 2;
        let result = run(options, &device);
        println!(
            "{:<14} {:>12.3} {:>14} {:>14}",
            buffer,
            result.query_millis,
            result.device.counters.buffer_flushes,
            result.device.counters.dram_batch_fetches
        );
    }

    // --- The planner's pick, as an HLS-style report -----------------------
    let device = DeviceConfig::alveo_u200();
    let plan = plan_query(&prepared, &device);
    println!("\n== planner decision ==");
    for line in &plan.rationale {
        println!("  - {line}");
    }
    let mut report = KernelReport::new("pefp_enumerate", &device, plan.areas, plan.resources);
    let expansions = plan.estimate.max_intermediate_paths.min(1_000_000);
    report.push_module(ModuleLatency::from_spec(
        "expansion",
        PipelineSpec::fully_pipelined(4),
        expansions,
    ));
    report.push_module(ModuleLatency::from_spec(
        "verify_dataflow",
        PipelineSpec::fully_pipelined(device.dataflow_verify_depth),
        expansions,
    ));
    println!("\n{}", report.render());

    // --- Energy comparison -------------------------------------------------
    let result = run(plan.options.clone(), &device);
    let power = PowerModel::default();
    // Rough CPU-side comparison point: the JOIN baseline's wall clock on this
    // query (measured on this machine) — here approximated by the host engine
    // time of the run itself for a self-contained example.
    let energy = power.compare(
        result.device.cycles,
        device.clock_mhz,
        &result.device.counters,
        result.host_engine_millis.max(result.query_millis * 10.0),
    );
    println!(
        "energy estimate: {:.2} mJ on the FPGA vs {:.2} mJ on the CPU ({:.1}x more efficient)",
        energy.fpga_millijoules, energy.cpu_millijoules, energy.efficiency_ratio
    );
}
