//! One repeatable benchmark for the whole stack.
//!
//! `pefp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints, as the last line of its
//! standard output, one JSON object with the metrics `BENCHMARK.json` names:
//! the end-to-end ones untraced, the per-layer ones from a traced run.
//! `pefp-benchmark --compare A.json B.json` prints the regression table.
//! `run.sh` builds, pins to one CPU and calls this.

mod compare;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use pefp_workload::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{LayerRun, SetupTimes, StackRun};

/// Share of `--seconds` a traced run spends in the traced stack pass and in
/// the untraced reference pass that prices the tracing.
const TRACED_SHARE: f64 = 0.4;
const REFERENCE_SHARE: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pefp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       pefp-benchmark --compare A.json B.json",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args =
        Args { workload: String::new(), seed: 42, seconds: 16.0, trace: false, out: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s| *s > 0.0 && *s <= 60.0)?,
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    workloads::NAMES.contains(&args.workload.as_str()).then_some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare::run(a, b),
            _ => usage(),
        };
    }
    let Some(args) = parse_args(&argv) else { return usage() };
    run(&args)
}

fn run(args: &Args) -> ExitCode {
    let spec = spec::load();
    println!(
        "workload {} seed {} seconds {} trace {} | cpus allowed: {} (parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::cpus_allowed(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let spin_before = stats::spin_calibration_ms();

    let mut plan = workloads::Plan::new(&args.workload, args.seed).expect("name was checked");
    let mut workload = plan.set_up();
    let op_hash = plan.op_hash;

    let mut info: Vec<(&str, JsonValue)> = Vec::new();
    let mut spans = Vec::new();
    let (metrics, attempted, failed, main_run) = if args.trace {
        let (mut traced, _) = workload.stack(args.seconds * TRACED_SHARE, true);
        let (reference, _) = workload.stack(args.seconds * REFERENCE_SHARE, false);
        let layer = workload.layers(&traced, args.seed);
        let metrics = per_layer(&traced, &reference, &layer, &plan.times, workload.over_wire());
        drop(workload);
        let attempted =
            traced.measured.attempted + reference.measured.attempted + layer.ops.len() as u64;
        let failed = traced.measured.failed + reference.measured.failed + layer.failed;
        // The trace file holds what the layer metrics were computed from: the
        // stack-pass spans of the replayed ops and every layer-pass span (the
        // full stack pass of `tcp_hot` alone would be 200 MB).
        traced.spans.retain(|s| layer.ops.contains(&s.op));
        spans.push(("layer", layer.spans));
        (metrics, attempted, failed, traced)
    } else {
        let (run, oracle_s) = workload.stack(args.seconds, false);
        let mut metrics = run.measured.end_to_end();
        // Peak RSS is read before the extra set-ups below: what it reports is
        // one set-up plus the run, not how the allocator copes with three.
        metrics.insert("peak_rss_mb", stats::peak_rss_mb());
        drop(workload);
        for _ in 1..workloads::SETUP_REPS {
            drop(plan.set_up());
        }
        metrics.insert("setup_s", stats::median(&plan.times.setup_s));
        info.push(("stream_oracle_s", JsonValue::Number(oracle_s)));
        (metrics, run.measured.attempted, run.measured.failed, run)
    };
    let times = &plan.times;
    println!(
        "set-up {:?} s (graph gen {:.3} s), op draw {:.3} s, oracle {:.3} s",
        times.setup_s, times.graph_gen_s, times.query_gen_s, times.oracle_s
    );

    let spin_after = stats::spin_calibration_ms();
    let noisy = (spin_after - spin_before).abs() / spin_before.min(spin_after) > 0.10;
    let m = &main_run.measured;
    let cycles =
        main_run.runtime_after.total_device_cycles - main_run.runtime_before.total_device_cycles;
    println!(
        "measured {:.3} s: attempted {} answered {} failed {}, {} latency samples, {} paths, {} device cycles",
        m.total_ns as f64 / 1e9,
        m.attempted,
        m.answered(),
        m.failed,
        m.latency_samples(),
        m.total_paths(),
        cycles
    );
    let by_slice = m.slice_ops_per_s();
    println!(
        "ops/s by slice ({} slices, the {} fastest reported): {:.0?}",
        by_slice.len(),
        stats::calm_count(by_slice.len()),
        by_slice
    );
    println!(
        "determinism: op-list hash {op_hash:016x}, first pass {} paths / {} sim us, later passes repeat exactly: {}",
        m.list_paths, m.list_sim_us, m.list_repeats
    );
    println!(
        "noise guard: spin {spin_before:.2} ms before, {spin_after:.2} ms after{}",
        if noisy { " -> NOISY (differ by more than 10%)" } else { "" }
    );

    let table = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut rendered = Vec::new();
    for metric in table {
        let value = *metrics
            .get(metric.name.as_str())
            .unwrap_or_else(|| panic!("no value computed for declared metric {}", metric.name));
        println!("  {:<36} {:>18.4} {}", metric.name, value, metric.unit);
        rendered.push((
            metric.name.as_str(),
            JsonValue::object(vec![
                ("value", JsonValue::Number(value)),
                ("unit", JsonValue::String(metric.unit.clone())),
            ]),
        ));
    }
    let correct = failed == 0 && attempted > 0;
    let result = vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Number(attempted as f64)),
        ("failed", JsonValue::Number(failed as f64)),
        ("metrics", JsonValue::object(rendered)),
    ];

    if let Some(dir) = &args.out {
        info.extend([
            ("op_list_hash", JsonValue::String(format!("{op_hash:016x}"))),
            ("list_paths", JsonValue::Number(m.list_paths as f64)),
            ("list_sim_us", JsonValue::Number(m.list_sim_us)),
            ("list_repeats", JsonValue::Bool(m.list_repeats)),
            ("run_paths", JsonValue::Number(m.total_paths() as f64)),
            ("run_device_cycles", JsonValue::Number(cycles as f64)),
            ("latency_samples", JsonValue::Number(m.latency_samples() as f64)),
            ("setup_s_samples", JsonValue::numbers(&times.setup_s)),
            ("oracle_s", JsonValue::Number(times.oracle_s)),
            ("spin_before_ms", JsonValue::Number(spin_before)),
            ("spin_after_ms", JsonValue::Number(spin_after)),
            ("noisy", JsonValue::Bool(noisy)),
            ("cpus_allowed", JsonValue::String(stats::cpus_allowed())),
        ]);
        spans.insert(0, ("stack", main_run.spans));
        if let Err(e) = write_out(dir, args, &result, info, &spans) {
            eprintln!("cannot write {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    println!("{}", JsonValue::object(result).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `<workload>.<traced|untraced>.json` (the result line plus the run's
/// identity and self-checks) and, for a traced run, `<workload>.trace.jsonl`.
fn write_out(
    dir: &std::path::Path,
    args: &Args,
    result: &[(&str, JsonValue)],
    info: Vec<(&str, JsonValue)>,
    spans: &[(&str, Vec<trace::Span>)],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut doc = vec![
        ("workload", JsonValue::String(args.workload.clone())),
        ("seed", JsonValue::Number(args.seed as f64)),
        ("seconds", JsonValue::Number(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
    ];
    doc.extend(result.iter().cloned());
    doc.push(("info", JsonValue::object(info)));
    let kind = if args.trace { "traced" } else { "untraced" };
    std::fs::write(
        dir.join(format!("{}.{kind}.json", args.workload)),
        JsonValue::object(doc).render() + "\n",
    )?;
    if args.trace {
        let file = std::fs::File::create(dir.join(format!("{}.trace.jsonl", args.workload)))?;
        let mut out = std::io::BufWriter::new(file);
        for (pass, spans) in spans {
            trace::write_jsonl(&mut out, &args.workload, pass, spans)?;
        }
        out.flush()?;
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, from the traced stack pass, the untraced
/// reference pass and the layer replay.
fn per_layer(
    traced: &StackRun,
    reference: &StackRun,
    layer: &LayerRun,
    times: &SetupTimes,
    over_wire: bool,
) -> BTreeMap<&'static str, f64> {
    let c = &layer.counters;
    let ops = layer.ops.len().max(1) as f64;
    let queries = c.ops.max(1) as f64;
    let layer_us = |l: &str, n: &str| {
        trace::mean_us(&layer.spans, layer.ops.len(), |s| {
            s.layer == l && (n.is_empty() || s.name == n)
        })
    };
    // Stack-pass means over the replayed ops only.
    let stack_us = |l: &str, n: &str| {
        trace::mean_us(&traced.spans, layer.ops.len(), |s| {
            s.layer == l && (n.is_empty() || s.name == n) && layer.ops.contains(&s.op)
        })
    };

    let bfs_us = layer_us("graph", "bfs_forward") + layer_us("graph", "bfs_backward");
    let preprocess_us = layer_us("core.preprocess", "");
    let route_us = layer_us("core.routing", "");
    let engine_us = layer_us("core.engine", "");
    let payload_bytes_us = layer_us("host.binfmt", "payload_bytes");
    let cpu_engine_us = c.cpu_engine_ns as f64 / 1e3 / ops;
    let wire_us = layer_us("host.wire", "");
    let update_us = layer_us("host.runtime", "apply_updates");
    let ingest_us = stack_us("streaming", "ingest");
    let streaming = ingest_us > 0.0;

    // submit -> wait as the caller (or, over TCP and in the stream, the
    // replay) saw it.
    let runtime_us = if streaming {
        layer_us("host.runtime", "submit_wait")
    } else {
        layer.runtime_us.unwrap_or_else(|| stack_us("host.runtime", ""))
    };
    let pipeline_us = preprocess_us + route_us + payload_bytes_us + engine_us + cpu_engine_us;
    let round_trip_us = stack_us("stack", "round_trip");
    // Window bookkeeping, the reachability pre-check and delta building: what
    // is left of the replica's ingest span once its calls out are removed.
    let streaming_self_us = trace::mean_root_self_us(&layer.spans, |s| s.layer == "streaming");
    let (stack_op_us, covered_us) = if streaming {
        (ingest_us, pipeline_us + update_us + streaming_self_us)
    } else if over_wire {
        // The socket and thread hand-off cannot be replayed without the
        // program's own threads; the in-process submit -> wait replay can.
        (round_trip_us, runtime_us + wire_us)
    } else {
        (runtime_us, pipeline_us)
    };

    let (before, after) = (&traced.runtime_before, &traced.runtime_after);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let net = traced.net.unwrap_or_default();
    let engine_s = engine_us * ops / 1e6;
    let (traced_e2e, reference_e2e) =
        (traced.measured.end_to_end(), reference.measured.end_to_end());
    let blocked_p50 = traced_e2e["lat_p50_us"];
    let (transactions, skipped, alerts) = traced.detector;

    BTreeMap::from([
        ("graph.bfs_us", bfs_us),
        ("graph.bfs_touched", c.bfs_touched as f64 / ops),
        ("graph.delta_apply_us", layer_us("graph", "delta_apply")),
        ("core.preprocess_us", preprocess_us),
        ("core.preprocess_self_us", (preprocess_us - bfs_us).max(0.0)),
        ("core.kept_vertices", c.kept_vertices as f64 / queries),
        ("core.kept_edges", c.kept_edges as f64 / queries),
        ("core.route_us", route_us),
        ("core.route_cpu_frac", ratio(c.routed_cpu as f64, c.routed as f64)),
        ("core.engine_us", engine_us),
        ("core.engine_expansions", c.expansions as f64 / ops),
        ("core.engine_batches", c.batches as f64 / ops),
        ("core.engine_useful_frac", ratio(c.useful as f64, c.expansions as f64)),
        ("core.engine_expansions_per_host_s", ratio(c.expansions as f64, engine_s)),
        ("fpga.cycles", c.cycles as f64 / ops),
        ("fpga.dram_cycles", c.dram_cycles as f64 / ops),
        ("fpga.contention_cycles", c.contention_cycles as f64 / ops),
        ("fpga.bank_conflict_cycles", c.bank_conflict_cycles as f64 / ops),
        ("fpga.turnaround_cycles", c.turnaround_cycles as f64 / ops),
        ("fpga.bram_reads", c.bram_reads as f64 / ops),
        ("fpga.dram_words", c.dram_words as f64 / ops),
        (
            "fpga.cache_hit_frac",
            ratio(c.fpga_cache_hits as f64, (c.fpga_cache_hits + c.fpga_cache_misses) as f64),
        ),
        ("fpga.buffer_flushes", c.buffer_flushes as f64 / ops),
        ("fpga.host_ns_per_cycle", ratio(engine_s * 1e9, c.cycles as f64)),
        ("baselines.bcdfs_us", layer_us("baselines", "bc_dfs")),
        ("baselines.join_us", layer_us("baselines", "join")),
        (
            "baselines.join_over_pefp",
            ratio(layer_us("baselines", "join") * ops / 1e3, c.pefp_total_ms),
        ),
        ("host.binfmt_encode_us", layer_us("host.binfmt", "")),
        ("host.binfmt_bytes", c.binfmt_bytes as f64 / ops),
        ("host.dma_sim_us", c.dma_sim_us / ops),
        ("host.dma_descriptors", c.dma_descriptors as f64 / ops),
        ("host.runtime_us", runtime_us),
        ("host.runtime_self_us", (runtime_us - pipeline_us).max(0.0)),
        ("host.cache_hit_frac", ratio(hits, hits + misses)),
        ("host.cache_invalidated", (after.cache_invalidated - before.cache_invalidated) as f64),
        (
            "host.cpu_routed_frac",
            ratio(
                (after.cpu_routed - before.cpu_routed) as f64,
                (after.completed - before.completed) as f64,
            ),
        ),
        ("host.queue_full", (after.queue_full_rejections - before.queue_full_rejections) as f64),
        ("host.update_us", update_us),
        (
            "host.blocked_over_unblocked",
            layer.unblocked_p50_us.map_or(0.0, |u| ratio(blocked_p50, u)),
        ),
        ("host.wire_codec_us", wire_us),
        ("host.wire_bytes", c.wire_bytes as f64 / ops),
        ("host.net_us", if over_wire { (round_trip_us - runtime_us).max(0.0) } else { 0.0 }),
        ("host.net_frames", (net.1.frames - net.0.frames) as f64),
        ("host.net_busy", (net.1.busy_replies - net.0.busy_replies) as f64),
        ("host.net_protocol_errors", (net.1.protocol_errors - net.0.protocol_errors) as f64),
        ("streaming.ingest_us", ingest_us),
        ("streaming.self_us", streaming_self_us),
        ("streaming.precheck_skip_frac", ratio(skipped as f64, transactions as f64)),
        ("streaming.alerts", alerts as f64),
        ("workload.query_gen_s", times.query_gen_s),
        ("workload.graph_gen_s", times.graph_gen_s),
        ("trace.coverage_frac", ratio(covered_us, stack_op_us)),
        ("trace.overhead_frac", 1.0 - ratio(traced_e2e["ops_per_s"], reference_e2e["ops_per_s"])),
    ])
}
