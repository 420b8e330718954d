//! Allocation accounting for the streaming result pipeline.
//!
//! A counting global allocator measures the bytes allocated by a full
//! engine-to-host query run. Streaming a high-volume query through a
//! `CountingSink` must not pay the O(#paths × k) materialisation that the
//! collect pipeline pays: the engine emits each result from a reused buffer,
//! `TranslateSink` remaps ids through a reused buffer, and no intermediate
//! `Vec<Vec<VertexId>>` is built between the engine and the caller's sink.
//!
//! What *both* pipelines still allocate is the engine's intermediate-path
//! state (buffer area growth, DRAM spills) — that memory is the paper's
//! design point and scales with the enumeration itself, not with result
//! materialisation. The assertions therefore target the *difference* between
//! the two pipelines, at two workload sizes, so the removed cost is isolated
//! from the shared cost.
//!
//! (This lives in its own test binary because a `#[global_allocator]` is
//! process-wide.)

use pefp::core::{pre_bfs, run_prepared, run_prepared_with_sink, PefpVariant, PreparedQuery};
use pefp::fpga::DeviceConfig;
use pefp::graph::generators::{layered_dag, layered_full_path_count, layered_sink, layered_source};
use pefp::graph::{CollectSink, CountingSink, FirstN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Forwards to the system allocator while counting allocated bytes.
struct CountingAllocator;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run: the counter is process-wide, so two
/// tests measuring at once would count each other's allocations.
static MEASURING: Mutex<()> = Mutex::new(());

fn allocated_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATED_BYTES.load(Ordering::Relaxed) - before, result)
}

/// Bytes allocated by the collect pipeline and by the counting (streaming)
/// pipeline for one prepared query, plus the result count.
fn measure(prep: &PreparedQuery) -> (u64, u64, u64) {
    let device = DeviceConfig::alveo_u200();
    let opts = PefpVariant::Full.engine_options();
    // Warm up once so lazily initialised state does not skew the numbers.
    run_prepared(prep, opts.clone(), &device);

    let (collect_bytes, collected) = allocated_during(|| run_prepared(prep, opts.clone(), &device));
    let (stream_bytes, streamed) = allocated_during(|| {
        let mut sink = CountingSink::new();
        let result = run_prepared_with_sink(prep, opts.clone(), &device, &mut sink);
        assert_eq!(sink.count(), result.num_paths);
        result
    });
    assert_eq!(collected.num_paths, streamed.num_paths);
    (collect_bytes, stream_bytes, streamed.num_paths)
}

#[test]
fn streaming_skips_the_per_path_materialisation_cost() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // Two sizes of the fully connected layered DAG: 6^5 = 7,776 and
    // 6^6 = 46,656 result paths (6 and 7 vertices each).
    let small = layered_dag(5, 6, 6, 7).to_csr();
    let big = layered_dag(6, 6, 6, 7).to_csr();
    let prep_small = pre_bfs(&small, layered_source(), layered_sink(5, 6), 6);
    let prep_big = pre_bfs(&big, layered_source(), layered_sink(6, 6), 7);

    let (collect_small, stream_small, paths_small) = measure(&prep_small);
    let (collect_big, stream_big, paths_big) = measure(&prep_big);
    assert_eq!(paths_small, layered_full_path_count(5, 6));
    assert_eq!(paths_big, layered_full_path_count(6, 6));

    // The collect pipeline materialises one Vec per result path (>= 24 bytes
    // of vertex payload each); the streaming pipeline shares every other
    // allocation (buffer area, DRAM spills) with it, so the *difference*
    // must cover at least that materialisation cost — at both sizes.
    for (collect, stream, paths) in
        [(collect_small, stream_small, paths_small), (collect_big, stream_big, paths_big)]
    {
        let floor = paths * 24;
        assert!(
            collect >= stream + floor,
            "collect allocated {collect} B, streaming {stream} B; expected a gap of \
             at least {floor} B for {paths} materialised paths"
        );
    }

    // The removed cost is per-path: the collect-vs-streaming gap must grow
    // with the result count (6x more paths => comfortably > 3x the gap).
    let gap_small = collect_small - stream_small;
    let gap_big = collect_big - stream_big;
    assert!(
        gap_big >= 3 * gap_small,
        "materialisation gap should scale with the result set: {gap_small} B at \
         {paths_small} paths vs {gap_big} B at {paths_big} paths"
    );
}

#[test]
fn first_n_streaming_allocates_a_small_fraction_of_a_full_collect() {
    let _measuring = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    // 6^6 = 46,656 paths: big enough for the materialised result set to
    // dominate the collect side's allocations.
    let g = layered_dag(6, 6, 6, 7).to_csr();
    let prep = pre_bfs(&g, layered_source(), layered_sink(6, 6), 7);
    let device = DeviceConfig::alveo_u200();
    let opts = PefpVariant::Full.engine_options();
    run_prepared(&prep, opts.clone(), &device); // warm-up

    let (collect_bytes, collected) =
        allocated_during(|| run_prepared(&prep, opts.clone(), &device));
    let (firstn_bytes, _) = allocated_during(|| {
        let mut sink = FirstN::new(1, CollectSink::new());
        let result = run_prepared_with_sink(&prep, opts.clone(), &device, &mut sink);
        assert_eq!(result.num_paths, 1);
        result
    });
    assert_eq!(collected.num_paths, layered_full_path_count(6, 6));
    // FirstN(1)'s allocations are the Θ2-bounded engine working set (a few
    // batches of buffer growth); the full collect pays that *plus* ~47k path
    // vectors. Factor 3 leaves headroom over the measured ~4.3x.
    assert!(
        firstn_bytes * 3 <= collect_bytes,
        "FirstN(1) allocated {firstn_bytes} B vs {collect_bytes} B for the full collect"
    );
}
