//! Path verification (Algorithm 2) and its pipeline cost model.
//!
//! Each expansion `(p, u)` passes through three checks:
//!
//! 1. **target check** — `u == t` means `p · u` is a result path;
//! 2. **barrier check** — `len(p) + 1 + bar[u] > k` means the hop budget can
//!    no longer be met through `u`;
//! 3. **visited check** — `u ∈ p` would create a cycle.
//!
//! On the device the three checks form the validity-check module. In the
//! *basic* design (Fig. 6) they execute back to back, so one input occupies
//! the module for the full three-stage latency before the next can enter. The
//! *data-separation* design (Fig. 7) feeds each stage its own copy of the
//! input so the stages run concurrently under the HLS dataflow optimisation,
//! and a merge stage ANDs the verdicts; inputs then enter every cycle.
//!
//! [`verify`] is the reference form of Algorithm 2. The engine's expansion
//! loop runs the same checks barrier-first, its software analogue of the
//! merged verdict: stage one, `within_budget`, depends only on an edge's
//! target and the window's hop budget, so the engine precomputes it per
//! adjacency row as hop-budget bitmaps (the `scan` module) and finds a window's
//! survivors 64 edges at a time. The ~90 % of expansions the barrier prunes
//! are never touched one by one; only the survivors reach
//! `survivor_verdict`. The two forms give the same verdict for every input.

use crate::options::VerificationPipeline;
use crate::path::TempPath;
use pefp_fpga::Device;
use pefp_graph::VertexId;

/// Outcome of verifying one expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The successor is the target: emit `p · u` as a result (and stop
    /// extending it — results are never re-expanded).
    Result,
    /// The successor passed all three checks: `p · u` becomes a new
    /// intermediate path.
    Valid,
    /// Rejected by the barrier check.
    PrunedBarrier,
    /// Rejected by the visited check.
    PrunedVisited,
}

/// Functional verification of one expansion (Algorithm 2).
#[inline]
pub fn verify<const W: usize>(
    path: &TempPath<W>,
    successor: VertexId,
    t: VertexId,
    k: u32,
    barrier: u32,
) -> Verdict {
    let new_hops = path.hops() + 1;
    // Target check. Intermediate paths always satisfy len(p) <= k - 1 (see the
    // paper's correctness argument), so `new_hops <= k` holds whenever the
    // engine is driven normally; the explicit guard keeps the function total.
    if successor == t {
        if new_hops <= k {
            return Verdict::Result;
        }
        return Verdict::PrunedBarrier;
    }
    // Barrier check.
    if new_hops + barrier > k {
        return Verdict::PrunedBarrier;
    }
    // Visited check (constant-bound loop, unrolled on the device).
    if path.contains(successor) {
        return Verdict::PrunedVisited;
    }
    Verdict::Valid
}

/// Stage one of the engine's barrier-first form of Algorithm 2: whether an
/// expansion through `u` stays within the hop budget.
///
/// `remaining` is the budget left after the path, `k - len(p)` (saturating
/// at 0). Expanding through `u` spends one hop and needs `bar[u]` more, so
/// the barrier check `len(p) + 1 + bar[u] > k` reads `bar[u] >= remaining`,
/// with `bar[u]` read by [`barrier_of`]. The engine evaluates it once per
/// edge and budget when it indexes a row (`super::scan`), not once per
/// expansion; this form is the per-edge rule the bitmaps are tested against.
#[inline(always)]
pub(crate) fn within_budget(u: VertexId, t: VertexId, barrier: &[u32], remaining: u32) -> bool {
    barrier_of(u, t, barrier) < remaining
}

/// The barrier the check reads for `u`: `barrier[u]`, except that the
/// target counts as barrier 0 whatever `barrier[t]` holds, since
/// [`crate::PefpEngine::new`] takes the barrier from its caller.
#[inline(always)]
pub(crate) fn barrier_of(u: VertexId, t: VertexId, barrier: &[u32]) -> u32 {
    if u == t {
        0
    } else {
        barrier[u.index()]
    }
}

/// Stages two and three on an expansion that passed [`within_budget`]: the
/// target check, then the visited check. Together the two stages give
/// [`verify`]'s verdict for every barrier value up to the `k + 1` clamp.
#[inline(always)]
pub(crate) fn survivor_verdict<const W: usize>(
    path: &TempPath<W>,
    u: VertexId,
    t: VertexId,
) -> Verdict {
    if u == t {
        Verdict::Result
    } else if path.contains(u) {
        Verdict::PrunedVisited
    } else {
        Verdict::Valid
    }
}

/// Charges the complete per-batch expansion + verification schedule.
///
/// The batch streams `lane_iterations` inputs through each replicated lane.
/// The pipeline's initiation interval is determined by two bottlenecks:
///
/// * the verification module — 1 cycle with data separation (Fig. 7), the full
///   three-stage depth without it (Fig. 6), and
/// * memory — 1 cycle when the graph and barrier are served from BRAM, the
///   DRAM read latency when a lookup has to go off-chip (`memory_stall_ii`),
///   which is exactly why the caching techniques matter (Fig. 14).
///
/// The pipeline depth (fill latency) is the expansion stage plus the deeper of
/// the two verification schedules; it is paid once per batch.
pub fn charge_expansion_schedule(
    device: &mut Device,
    pipeline: VerificationPipeline,
    lane_iterations: u64,
    memory_stall_ii: u64,
) {
    let cfg = device.config();
    let verify_ii = match pipeline {
        VerificationPipeline::Basic => cfg.basic_verify_depth,
        VerificationPipeline::Dataflow => 1,
    };
    let ii = verify_ii.max(memory_stall_ii).max(1);
    // Expansion stage (successor fetch + input assembly) is ~2 cycles deep,
    // followed by the verification module and the merge stage.
    let depth = 2 + cfg.basic_verify_depth.max(cfg.dataflow_verify_depth + cfg.merge_depth);
    device.charge_cycles(pefp_fpga::pipeline_cycles(lane_iterations, depth, ii));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::MAX_K;
    use pefp_fpga::DeviceConfig;
    use pefp_graph::CsrGraph;

    fn path_0_1(g: &CsrGraph) -> TempPath {
        TempPath::initial(g, VertexId(0)).extended(g, VertexId(1))
    }

    /// The engine's two stages composed into one verdict.
    fn fused_check<const W: usize>(
        path: &TempPath<W>,
        u: VertexId,
        t: VertexId,
        k: u32,
        barrier: &[u32],
    ) -> Verdict {
        let remaining = k.saturating_sub(path.hops());
        if within_budget(u, t, barrier, remaining) {
            survivor_verdict(path, u, t)
        } else {
            Verdict::PrunedBarrier
        }
    }

    /// `fused_check` against `verify` over every hop budget, path length,
    /// barrier value up to the `k + 1` clamp and kind of successor (the
    /// target, a vertex on the path, a fresh vertex), at both host widths.
    fn fused_matches_reference<const W: usize>() {
        let n = MAX_K + 3;
        let chain: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(n, &chain);
        let t = VertexId(n as u32 - 1);
        let fresh = VertexId(n as u32 - 2);
        let mut barrier = vec![0u32; n];
        let mut checked = 0u32;
        for k in 1..=MAX_K as u32 {
            let mut path = TempPath::<W>::initial(&g, VertexId(0));
            loop {
                let hops = path.hops();
                for u in [t, fresh, VertexId(0), path.last()] {
                    for bar in 0..=k + 1 {
                        barrier[u.index()] = bar;
                        assert_eq!(
                            fused_check(&path, u, t, k, &barrier),
                            verify(&path, u, t, k, bar),
                            "k {k}, {hops} hops, u {u}, bar {bar}"
                        );
                        checked += 1;
                    }
                }
                // Paths up to one hop past the budget, as far as the row holds.
                if hops > k || path.num_vertices() == W.min(n - 2) {
                    break;
                }
                path = path.extended(&g, VertexId(hops + 1));
            }
        }
        assert!(checked > 1_000);
    }

    #[test]
    fn fused_check_gives_the_reference_verdict() {
        fused_matches_reference::<8>();
        fused_matches_reference::<{ MAX_K + 1 }>();
    }

    #[test]
    fn fused_check_treats_the_target_as_barrier_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = path_0_1(&g);
        // A caller's barrier that puts t out of reach does not prune it.
        let barrier = [9, 9, 9, u32::MAX];
        let t = VertexId(3);
        assert!(within_budget(t, t, &barrier, 1));
        assert_eq!(fused_check(&p, t, t, 2, &barrier), Verdict::Result);
        assert_eq!(fused_check(&p, t, t, 1, &barrier), Verdict::PrunedBarrier);
        assert_eq!(fused_check(&p, VertexId(2), t, 5, &barrier), Verdict::PrunedBarrier);
        // An unreached vertex that is not the target is pruned at any budget.
        assert!(!within_budget(VertexId(3), VertexId(0), &barrier, MAX_K as u32));
    }

    #[test]
    fn target_check_wins_over_everything() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(3), VertexId(3), 5, 0), Verdict::Result);
    }

    #[test]
    fn barrier_check_prunes_budget_violations() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = path_0_1(&g); // 1 hop used
                              // Needs 2 more hops after the expansion, but only 3 total allowed: 1+1+2 > 3.
        assert_eq!(verify(&p, VertexId(2), VertexId(9), 3, 2), Verdict::PrunedBarrier);
        // With k = 4 the same expansion survives.
        assert_eq!(verify(&p, VertexId(2), VertexId(9), 4, 2), Verdict::Valid);
    }

    #[test]
    fn visited_check_prevents_cycles() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(0), VertexId(3), 5, 0), Verdict::PrunedVisited);
    }

    #[test]
    fn check_order_matches_the_paper() {
        // A successor that is simultaneously the target and already on the
        // path cannot occur (t is never pushed), but a successor that fails
        // both barrier and visited must be attributed to the barrier stage,
        // because that stage is evaluated first.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(0), VertexId(2), 1, 5), Verdict::PrunedBarrier);
    }

    #[test]
    fn overlong_target_hit_is_not_emitted() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let p = path_0_1(&g);
        assert_eq!(verify(&p, VertexId(2), VertexId(2), 1, 0), Verdict::PrunedBarrier);
    }

    #[test]
    fn dataflow_schedule_is_cheaper_than_basic() {
        let mut basic = Device::new(DeviceConfig::alveo_u200());
        charge_expansion_schedule(&mut basic, VerificationPipeline::Basic, 10_000, 1);
        let mut dataflow = Device::new(DeviceConfig::alveo_u200());
        charge_expansion_schedule(&mut dataflow, VerificationPipeline::Dataflow, 10_000, 1);
        assert!(dataflow.cycles() < basic.cycles());
        // With depth 3 vs II 1 the gap approaches 3x for large batches.
        let ratio = basic.cycles() as f64 / dataflow.cycles() as f64;
        assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn zero_inputs_cost_nothing() {
        let mut d = Device::new(DeviceConfig::alveo_u200());
        charge_expansion_schedule(&mut d, VerificationPipeline::Basic, 0, 1);
        charge_expansion_schedule(&mut d, VerificationPipeline::Dataflow, 0, 1);
        assert_eq!(d.cycles(), 0);
    }
}
