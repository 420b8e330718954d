//! Hop-budget bitmaps: the engine's barrier check 64 edges at a time.
//!
//! Stage one of the engine's barrier-first check, [`verify::within_budget`],
//! depends only on an edge's target and the window's hop budget
//! `r = k - len(p)`. [`BudgetIndex`] precomputes it per adjacency row: level
//! `r` (`1 <= r <= k`) of a row is a bitmap whose bit `i` is set iff the
//! row's `i`-th target passes `within_budget(·, t, barrier, r)`. A window
//! scan ([`WindowScan`]) then finds the survivors word by word (mask,
//! `trailing_zeros`) and never touches a barrier-pruned edge; budget 0
//! passes nothing and reads no level. On the device every edge still takes
//! its lane slot — only the host stops paying per pruned edge, so no cycle
//! or counter changes.
//!
//! Indexing is lazy: a row is indexed, whole, when a run first scans it, in
//! `O(edges + k·words)`. A run pays for the rows it expands and nothing
//! else: an early-stopping run over the whole graph (the NoPreBfs ablation
//! under a `FirstN` cap) indexes a few hundred rows, not `|E|` edges.
//! Indexing is one barrier lookup per edge, the lookup the per-edge check
//! made on every scan, plus a per-row set-up of `k·words` stores, so a row
//! scanned once costs a little more than it did before, and every further
//! scan of it skips its pruned edges 64 at a time.
//!
//! The buffers outlive the run: each thread keeps the last index's row
//! table (4 bytes per vertex of the largest graph it ran on) and bitmap
//! arena, cleared row by row, for its next run.

use super::verify;
use pefp_graph::VertexId;
use std::cell::Cell;
use std::ops::Range;

/// Per-run hop-budget bitmaps of the rows the run has scanned.
pub(crate) struct BudgetIndex<'a> {
    /// The run's barrier array and target ([`verify::barrier_of`]).
    barrier: &'a [u32],
    t: VertexId,
    /// Budgets with a level, `1..=k`.
    levels: usize,
    store: Store,
}

/// The index's buffers. A run's rows are cleared when it ends and the
/// buffers kept for the thread's next run, so a steady stream of runs
/// allocates nothing and touches no page of the row table it does not use.
#[derive(Default)]
struct Store {
    /// Per vertex: one past the start of its block in `words`, 0 while
    /// unindexed. At least `num_vertices` long.
    rows: Vec<u32>,
    /// The vertices with a non-zero entry in `rows`.
    indexed: Vec<VertexId>,
    /// Each indexed row's `levels` bitmaps of `⌈deg/64⌉` words, budget 1
    /// first.
    words: Vec<u64>,
}

thread_local! {
    /// The buffers of the last index dropped on this thread.
    static SPARE: Cell<Option<Store>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Rows indexed on this thread, so a test can bound a run's build cost.
    pub(crate) static INDEXED_ROWS: Cell<usize> = const { Cell::new(0) };
}

impl<'a> BudgetIndex<'a> {
    /// An empty index for a run over `num_vertices` vertices at hop
    /// constraint `k`.
    pub(crate) fn new(barrier: &'a [u32], t: VertexId, k: u32, num_vertices: usize) -> Self {
        let mut store = SPARE.try_with(Cell::take).ok().flatten().unwrap_or_default();
        if store.rows.len() < num_vertices {
            // A fresh zeroed table, not a resize: the allocator hands out
            // zero pages, so a run on a new thread faults in only the pages
            // of the rows it indexes.
            store.rows = vec![0; num_vertices];
        }
        BudgetIndex { barrier, t, levels: k as usize, store }
    }

    /// Scans `window` (positions in `row`, the successors of `head`) at hop
    /// budget `remaining <= k`, first indexing the row if this is its first
    /// scan in the run.
    #[inline]
    pub(crate) fn scan(
        &mut self,
        head: VertexId,
        row: &[VertexId],
        window: Range<usize>,
        remaining: u32,
    ) -> WindowScan<'_> {
        let level = remaining as usize;
        debug_assert!(level <= self.levels, "budget {remaining} exceeds k = {}", self.levels);
        if level == 0 {
            return WindowScan::new(&[], window);
        }
        let block = match self.store.rows[head.index()] as usize {
            0 => self.index_row(head, row),
            entry => entry - 1,
        };
        let words = row.len().div_ceil(64);
        let bits = block + (level - 1) * words;
        WindowScan::new(&self.store.words[bits..bits + words], window)
    }

    /// Indexes `row`, the successors of `head`, and returns where its
    /// bitmaps start.
    #[inline(never)]
    fn index_row(&mut self, head: VertexId, row: &[VertexId]) -> usize {
        let (levels, words) = (self.levels, row.len().div_ceil(64));
        let Store { rows, indexed, words: arena } = &mut self.store;
        let block = arena.len();
        arena.resize(block + levels * words, 0);
        rows[head.index()] = u32::try_from(block + 1).expect("budget index exceeds u32 words");
        indexed.push(head);
        #[cfg(test)]
        INDEXED_ROWS.with(|n| n.set(n.get() + 1));
        // `bar < r` holds from level `bar + 1` up: set each edge at its
        // lowest passing level, then fold the levels into a running union.
        let bits = &mut arena[block..];
        for (i, &u) in row.iter().enumerate() {
            let bar = verify::barrier_of(u, self.t, self.barrier) as usize;
            if bar < levels {
                bits[bar * words + i / 64] |= 1 << (i % 64);
            }
        }
        for i in words..levels * words {
            bits[i] |= bits[i - words];
        }
        block
    }
}

impl Drop for BudgetIndex<'_> {
    fn drop(&mut self) {
        let mut store = std::mem::take(&mut self.store);
        for v in store.indexed.drain(..) {
            store.rows[v.index()] = 0;
        }
        store.words.clear();
        // A thread that is shutting down just frees the buffers.
        let _ = SPARE.try_with(|spare| spare.set(Some(store)));
    }
}

/// The survivors of one window at one budget, as row positions in edge
/// order. After the scan stops, [`Self::settle`] gives the window's
/// `(expansions, pruned_by_barrier)`.
pub(crate) struct WindowScan<'a> {
    /// The row's bitmap at the window's budget.
    bits: &'a [u64],
    /// The word being scanned and its set bits not yet yielded.
    word: usize,
    pending: u64,
    window: Range<usize>,
    /// Survivors yielded so far, and the position just past the last one.
    survivors: u64,
    past_last: usize,
}

impl<'a> WindowScan<'a> {
    fn new(bits: &'a [u64], window: Range<usize>) -> Self {
        let word = window.start / 64;
        let pending = bits.get(word).map_or(0, |&w| w & (!0u64 << (window.start % 64)));
        WindowScan { bits, word, pending, past_last: window.start, window, survivors: 0 }
    }

    /// `(expansions, pruned_by_barrier)` of the window. A scan that ran to
    /// the end expanded every edge; a scan `stopped` by a sink break
    /// expanded the edges up to and including the last survivor it yielded.
    /// Every expanded edge that was not yielded failed the barrier check.
    pub(crate) fn settle(&self, stopped: bool) -> (u64, u64) {
        let end = if stopped { self.past_last } else { self.window.end };
        let expansions = (end - self.window.start) as u64;
        (expansions, expansions - self.survivors)
    }
}

impl Iterator for WindowScan<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.pending == 0 {
            self.word += 1;
            if self.word * 64 >= self.window.end {
                return None;
            }
            self.pending = *self.bits.get(self.word)?;
        }
        let pos = self.word * 64 + self.pending.trailing_zeros() as usize;
        if pos >= self.window.end {
            return None;
        }
        self.pending &= self.pending - 1;
        self.survivors += 1;
        self.past_last = pos + 1;
        Some(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_K;
    use pefp_graph::CsrGraph;

    /// Scans every window of `head`'s row at every budget and Θ2 and checks
    /// the survivors and, at every break point, the settled counters against
    /// the per-edge `within_budget` rule. Returns the windows checked.
    fn check_row(g: &CsrGraph, head: VertexId, t: VertexId, barrier: &[u32], k: u32) -> usize {
        let row = g.successors(head);
        let mut index = BudgetIndex::new(barrier, t, k, g.num_vertices());
        let before = INDEXED_ROWS.with(|n| n.get());
        let mut windows = 0;
        for theta in [1, 7, 63, 65] {
            for start in (0..row.len()).step_by(theta) {
                let window = start..(start + theta).min(row.len());
                for remaining in 0..=k {
                    let passes = |i: usize| verify::within_budget(row[i], t, barrier, remaining);
                    let pruned_to =
                        |end: usize| (window.start..end).filter(|&i| !passes(i)).count();
                    let expected: Vec<usize> = window.clone().filter(|&i| passes(i)).collect();
                    let case = format!("k {k}, Θ2 {theta}, window {window:?}, budget {remaining}");

                    let mut scan = index.scan(head, row, window.clone(), remaining);
                    assert_eq!(scan.by_ref().collect::<Vec<_>>(), expected, "{case}");
                    let all = window.len();
                    assert_eq!(
                        scan.settle(false),
                        (all as u64, pruned_to(window.end) as u64),
                        "{case}"
                    );

                    // A sink break right after the j-th survivor.
                    for (j, &pos) in expected.iter().enumerate() {
                        let mut scan = index.scan(head, row, window.clone(), remaining);
                        assert_eq!(scan.by_ref().nth(j), Some(pos), "{case}");
                        let expanded = pos + 1 - window.start;
                        assert_eq!(
                            scan.settle(true),
                            (expanded as u64, pruned_to(pos + 1) as u64),
                            "{case}, break at survivor {j}"
                        );
                    }
                }
                windows += 1;
            }
        }
        let indexed = INDEXED_ROWS.with(|n| n.get()) - before;
        assert_eq!(indexed, 1, "a row is indexed once per run");

        // The first scan may start anywhere in the row: scanning the windows
        // last to first reads the same survivors.
        let mut index = BudgetIndex::new(barrier, t, k, g.num_vertices());
        let starts: Vec<usize> = (0..row.len()).step_by(65).collect();
        for &start in starts.iter().rev() {
            let window = start..(start + 65).min(row.len());
            let expected: Vec<usize> =
                window.clone().filter(|&i| verify::within_budget(row[i], t, barrier, k)).collect();
            assert_eq!(index.scan(head, row, window, k).collect::<Vec<_>>(), expected, "k {k}");
        }
        windows
    }

    #[test]
    fn window_scans_match_the_per_edge_rule() {
        // Vertex 0 has a 200-edge row (four words, the last one partial)
        // that holds the target at position 130.
        let n = 260u32;
        let edges: Vec<(u32, u32)> = (1..=200).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let (head, t) = (VertexId(0), VertexId(131));
        assert_eq!(g.successors(head)[130], t);
        let mut windows = 0;
        for k in [1, 7, 8, MAX_K as u32] {
            // A caller's barrier is any u32: uniform 0, k + 1 and UNREACHED,
            // and a mix of every value up to k + 1 with UNREACHED gaps. The
            // target's own entry is never trusted.
            let mixed: Vec<u32> = (0..n)
                .map(|v| if v % 11 == 5 { u32::MAX } else { (v * 7 + v / 3) % (k + 2) })
                .collect();
            for barrier in
                [vec![0; n as usize], vec![k + 1; n as usize], vec![u32::MAX; n as usize], mixed]
            {
                windows += check_row(&g, head, t, &barrier, k);
            }
        }
        assert_eq!(windows, 4 * 4 * (200 + 29 + 4 + 4));
    }

    #[test]
    fn budget_zero_passes_nothing_and_indexes_nothing() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let barrier = [0; 3];
        let mut index = BudgetIndex::new(&barrier, VertexId(2), 3, 3);
        let mut scan = index.scan(VertexId(0), g.successors(VertexId(0)), 0..2, 0);
        assert_eq!(scan.next(), None);
        assert_eq!(scan.settle(false), (2, 2));
        assert!(index.store.indexed.is_empty());
    }
}
