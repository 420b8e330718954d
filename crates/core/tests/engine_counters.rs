//! Engine counters, checked through the public run entry point.
//!
//! * Every expansion has exactly one outcome: `expansions == results +
//!   intermediate_paths + pruned_by_barrier + pruned_by_visited`, on random
//!   graphs, in both host path-row widths, under both batch orders, without
//!   the cache, with spills, with result caps and with cancellation.
//! * A fixed query set reproduces recorded `EngineStats`, device cycles and
//!   memory counters exactly, so a host-side rewrite of the engine loop
//!   cannot move what the simulator reports.

use pefp_core::{
    prepare_snapshot_with, run_prepared_on_device, BatchStrategy, CancelToken, CountingSink,
    EngineOptions, EngineStats, FnSink, PathSink, PefpRunResult, PefpVariant, PrepareContext,
};
use pefp_fpga::{Device, DeviceConfig, MemoryCounters};
use pefp_graph::generators::{chung_lu, grid_graph, layered_dag, layered_sink, layered_source};
use pefp_graph::{GraphSnapshot, VertexId};
use std::ops::ControlFlow;

fn run<S: PathSink>(
    g: &GraphSnapshot,
    (s, t, k): (u32, u32, u32),
    variant: PefpVariant,
    opts: EngineOptions,
    sink: &mut S,
) -> PefpRunResult {
    let mut ctx = PrepareContext::new();
    let prep = prepare_snapshot_with(&mut ctx, g, VertexId(s), VertexId(t), k, variant);
    run_prepared_on_device(&prep, opts, Device::new(DeviceConfig::alveo_u200()), sink)
}

fn assert_identity(stats: &EngineStats, what: &str) {
    assert_eq!(
        stats.expansions,
        stats.results
            + stats.intermediate_paths
            + stats.pruned_by_barrier
            + stats.pruned_by_visited,
        "{what}: {stats:?}"
    );
}

/// Small hop-budget runs to completion; a larger one is capped so a random
/// graph cannot explode the enumeration.
fn identity_options(k: u32) -> Vec<(&'static str, PefpVariant, EngineOptions)> {
    let tiny = |variant: PefpVariant| EngineOptions {
        processing_capacity: 4,
        buffer_capacity: 8,
        dram_fetch_batch: 8,
        ..variant.engine_options()
    };
    let mut sets = vec![
        ("full", PefpVariant::Full, PefpVariant::Full.engine_options()),
        ("fifo", PefpVariant::NoBatchDfs, PefpVariant::NoBatchDfs.engine_options()),
        ("no-cache", PefpVariant::NoCache, PefpVariant::NoCache.engine_options()),
        ("tiny", PefpVariant::Full, tiny(PefpVariant::Full)),
        ("tiny-fifo", PefpVariant::NoBatchDfs, tiny(PefpVariant::NoBatchDfs)),
        ("tiny-no-cache", PefpVariant::NoCache, tiny(PefpVariant::NoCache)),
    ];
    if k > 7 {
        for (_, _, opts) in &mut sets {
            opts.max_results = Some(150);
        }
    }
    sets
}

/// A splitmix step: deterministic query endpoints without a rand dependency.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn every_expansion_has_exactly_one_outcome() {
    let mut runs = 0;
    for seed in 0..4u64 {
        let n = 60 + 40 * seed as usize;
        let g = GraphSnapshot::from_csr(chung_lu(n, 3.5, 2.2, 900 + seed).to_csr());
        let mut rng = seed;
        // Hop budgets on both sides of the host path-row width boundary (8
        // vertex slots up to k = 7, MAX_K + 1 above).
        for k in [3u32, 7, 8, 16] {
            let s = (mix(&mut rng) % n as u64) as u32;
            let t = (mix(&mut rng) % n as u64) as u32;
            if s == t {
                continue;
            }
            for (name, variant, opts) in identity_options(k) {
                let r = run(&g, (s, t, k), variant, opts, &mut CountingSink::new());
                assert_identity(&r.stats, &format!("seed {seed} ({s},{t},{k}) {name}"));
                assert_eq!(r.stats.results, r.num_paths);
                runs += 1;
            }
        }
    }
    // Uncapped runs at full width: every monotone grid path has
    // `rows + cols - 2` hops, so the enumeration stays small at any budget.
    let grid = GraphSnapshot::from_csr(grid_graph(5, 6).to_csr());
    for k in [9u32, 12, 25] {
        for (name, variant, mut opts) in identity_options(k) {
            opts.max_results = None;
            let r = run(&grid, (0, 29, k), variant, opts, &mut CountingSink::new());
            assert_identity(&r.stats, &format!("grid k {k} {name}"));
            assert_eq!(r.num_paths, 126, "C(9, 4) monotone corner paths");
            runs += 1;
        }
    }
    assert!(runs > 80, "only {runs} runs");
}

#[test]
fn the_identity_holds_at_every_result_cap_and_on_cancellation() {
    // A sink break lands mid-window: the counters must stop at the breaking
    // edge. Sweep the cap over every result of a small query, in both batch
    // orders and with a batch quota small enough to split windows.
    let g = GraphSnapshot::from_csr(chung_lu(3000, 2.2, 2.3, 11).to_csr());
    let query = (3, 5, 7);
    let total =
        run(&g, query, PefpVariant::Full, EngineOptions::default(), &mut CountingSink::new())
            .num_paths;
    assert_eq!(total, 17);
    for strategy in [BatchStrategy::LongestFirst, BatchStrategy::Fifo] {
        for theta2 in [3u32, 64] {
            for cap in 1..=total + 1 {
                let opts = EngineOptions {
                    batch_strategy: strategy,
                    processing_capacity: theta2,
                    max_results: Some(cap),
                    ..EngineOptions::default()
                };
                let r = run(&g, query, PefpVariant::Full, opts, &mut CountingSink::new());
                let what = format!("{strategy:?} Θ2 {theta2} FirstN({cap})");
                assert_identity(&r.stats, &what);
                assert_eq!(r.num_paths, cap.min(total), "{what}");
                assert_eq!(r.stats.early_terminated, cap <= total, "{what}");
            }
        }
    }

    // Cancellation between batches, on a query with many batch boundaries.
    let dag = GraphSnapshot::from_csr(layered_dag(5, 4, 4, 1).to_csr());
    let (s, t) = (layered_source().0, layered_sink(5, 4).0);
    for after in [1u64, 10, 200] {
        let token = CancelToken::new();
        let opts = EngineOptions {
            processing_capacity: 8,
            buffer_capacity: 16,
            dram_fetch_batch: 8,
            cancel: Some(token.clone()),
            ..EngineOptions::default()
        };
        let mut emitted = 0u64;
        let mut sink = FnSink(|_: &[VertexId]| {
            emitted += 1;
            if emitted == after {
                token.cancel();
            }
            ControlFlow::Continue(())
        });
        let r = run(&dag, (s, t, 6), PefpVariant::Full, opts, &mut sink);
        assert!(r.stats.cancelled, "cancel after {after}");
        assert!(r.num_paths < 1024);
        assert_identity(&r.stats, &format!("cancel after {after}"));
    }
}

// ---------------------------------------------------------------------------
// Golden counters
// ---------------------------------------------------------------------------

/// The graphs of the golden query set.
#[derive(Clone, Copy)]
enum Graph {
    /// `chung_lu(3000, 2.2, 2.3, 11)`: sparse, small enumerations.
    Sparse,
    /// `chung_lu(1000, 5.0, 2.2, 5)`: vertices 0, 810 and 588 are its three
    /// highest-degree hubs.
    Dense,
    /// 6 x 7 grid, corner to corner: 462 paths of 11 hops.
    Grid67,
    /// 8 x 9 grid, corner to corner: 6 435 paths of 15 hops.
    Grid89,
}

/// `(name, graph, (s, t, k), variant, (Θ2, buffer, Θ1) override, result cap)`.
type Case =
    (&'static str, Graph, (u32, u32, u32), PefpVariant, Option<(u32, usize, usize)>, Option<u64>);

/// `(name, cycles, stats row, counters row)` as recorded before the
/// barrier-first expansion loop and the k-sized path rows; see [`stats_row`]
/// and [`counters_row`] for the column order.
type Expected = (&'static str, u64, [u64; 9], [u64; 10]);

use Graph::{Dense, Grid67, Grid89, Sparse};
use PefpVariant::{Full, NoBatchDfs, NoCache, NoDataSep, NoPreBfs};

/// Queries in both host widths and every variant, run to completion and
/// capped.
#[rustfmt::skip]
const CASES: &[Case] = &[
    // Host width 8 (k <= 7).
    ("sparse-k7", Sparse, (3, 5, 7), Full, None, None),
    ("sparse-k7-theta64-first1", Sparse, (3, 5, 7), Full, Some((64, 8192, 4096)), Some(1)),
    ("sparse-k7-no-prebfs", Sparse, (3, 5, 7), NoPreBfs, None, None),
    ("sparse-k7-fifo-first5", Sparse, (3, 5, 7), NoBatchDfs, None, Some(5)),
    ("dense-k5", Dense, (0, 810, 5), Full, None, None),
    ("dense-k6-no-cache", Dense, (0, 810, 6), NoCache, None, None),
    ("dense-k6-fifo-spills", Dense, (0, 810, 6), NoBatchDfs, Some((1024, 512, 256)), None),
    // Host width MAX_K + 1 (k >= 8).
    ("dense-k9-first5000", Dense, (0, 810, 9), Full, None, Some(5000)),
    ("dense-k14-no-datasep-first3000", Dense, (0, 588, 14), NoDataSep, None, Some(3000)),
    ("grid67-k12-tiny", Grid67, (0, 41, 12), Full, Some((4, 8, 8)), None),
    ("grid89-k16", Grid89, (0, 71, 16), Full, None, None),
    ("dense-k22-small-areas-first3000", Dense, (0, 810, 22), Full, Some((64, 128, 64)), Some(3000)),
    ("dense-k30-no-cache-first50", Dense, (1, 0, 30), NoCache, None, Some(50)),
];

/// `[batches, expansions, intermediate_paths, results, pruned_by_barrier,
/// pruned_by_visited, peak_buffer_paths, peak_dram_paths, early_terminated]`.
fn stats_row(s: &EngineStats) -> [u64; 9] {
    [
        s.batches,
        s.expansions,
        s.intermediate_paths,
        s.results,
        s.pruned_by_barrier,
        s.pruned_by_visited,
        s.peak_buffer_paths as u64,
        s.peak_dram_paths as u64,
        u64::from(s.early_terminated),
    ]
}

/// `[bram_reads, bram_writes, dram_reads, dram_writes, dram_words_read,
/// dram_words_written, buffer_flushes, dram_batch_fetches, cache_hits,
/// cache_misses]`.
fn counters_row(c: &MemoryCounters) -> [u64; 10] {
    [
        c.bram_reads,
        c.bram_writes,
        c.dram_reads,
        c.dram_writes,
        c.dram_words_read,
        c.dram_words_written,
        c.buffer_flushes,
        c.dram_batch_fetches,
        c.cache_hits,
        c.cache_misses,
    ]
}

#[rustfmt::skip]
const GOLDEN: &[Expected] = &[
    ("sparse-k7", 126, [7, 126, 77, 17, 30, 2, 16, 0, 0], [204, 0, 0, 3, 0, 123, 0, 0, 204, 0]),
    ("sparse-k7-theta64-first1", 39, [5, 79, 64, 1, 12, 2, 16, 0, 1], [129, 0, 0, 1, 0, 6, 0, 0, 129, 0]),
    ("sparse-k7-no-prebfs", 158, [7, 636, 77, 17, 540, 2, 16, 0, 0], [714, 0, 0, 3, 0, 123, 0, 0, 714, 0]),
    ("sparse-k7-fifo-first5", 66, [6, 96, 72, 5, 17, 2, 16, 0, 1], [158, 0, 0, 2, 0, 32, 0, 0, 158, 0]),
    ("dense-k5", 25726, [58, 57586, 10084, 7547, 39834, 121, 1584, 0, 0], [67714, 0, 0, 58, 0, 42840, 0, 0, 67714, 0]),
    ("dense-k6-no-cache", 1010754, [230, 226043, 38358, 28158, 158965, 562, 0, 14816, 0], [0, 0, 303115, 323, 1094240, 507462, 0, 13, 0, 264573]),
    ("dense-k6-fifo-spills", 222162, [249, 226043, 38358, 28158, 158965, 562, 512, 2816, 0], [264553, 0, 54, 303, 110530, 297647, 54, 54, 264553, 0]),
    ("dense-k9-first5000", 26239, [41, 40285, 11395, 5000, 23540, 350, 4221, 0, 1], [48095, 0, 0, 41, 0, 46444, 0, 0, 48095, 0]),
    ("dense-k14-no-datasep-first3000", 27541, [37, 37048, 12977, 3000, 20694, 377, 7225, 0, 1], [43575, 0, 0, 37, 0, 40429, 0, 0, 43575, 0]),
    ("grid67-k12-tiny", 10979, [488, 1714, 1252, 462, 0, 0, 8, 12, 0], [3064, 0, 47, 287, 3080, 8624, 81, 47, 3064, 0]),
    ("grid89-k16", 53246, [34, 24308, 17873, 6435, 0, 0, 2506, 0, 0], [42188, 0, 0, 13, 0, 102960, 0, 0, 42188, 0]),
    ("dense-k22-small-areas-first3000", 45542, [342, 21727, 5264, 3000, 12846, 617, 128, 704, 1], [26599, 0, 2, 344, 2718, 77226, 12, 2, 26599, 0]),
    ("dense-k30-no-cache-first50", 346776, [39, 36586, 36104, 50, 0, 432, 0, 25584, 1], [0, 0, 56291, 67, 238737, 325372, 0, 5, 0, 46309]),
];

#[test]
fn golden_counters_are_reproduced_exactly() {
    let sparse = GraphSnapshot::from_csr(chung_lu(3000, 2.2, 2.3, 11).to_csr());
    let dense = GraphSnapshot::from_csr(chung_lu(1000, 5.0, 2.2, 5).to_csr());
    let grid67 = GraphSnapshot::from_csr(grid_graph(6, 7).to_csr());
    let grid89 = GraphSnapshot::from_csr(grid_graph(8, 9).to_csr());
    let mut actual: Vec<Expected> = Vec::new();
    for &(name, graph, query, variant, areas, cap) in CASES {
        let g = match graph {
            Sparse => &sparse,
            Dense => &dense,
            Grid67 => &grid67,
            Grid89 => &grid89,
        };
        let mut opts = EngineOptions { max_results: cap, ..variant.engine_options() };
        if let Some((theta2, buffer, theta1)) = areas {
            opts.processing_capacity = theta2;
            opts.buffer_capacity = buffer;
            opts.dram_fetch_batch = theta1;
        }
        let r = run(g, query, variant, opts, &mut CountingSink::new());
        assert!(!r.stats.cancelled && r.device_fault().is_none(), "{name}");
        assert_identity(&r.stats, name);
        let row = (name, r.device.cycles, stats_row(&r.stats), counters_row(&r.device.counters));
        actual.push(row);
    }
    let listing: String = actual.iter().map(|row| format!("    {row:?},\n")).collect();
    assert_eq!(actual.as_slice(), GOLDEN, "actual values:\n{listing}");
}
