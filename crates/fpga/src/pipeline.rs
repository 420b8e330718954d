//! HLS-style pipeline cost model.
//!
//! High-level synthesis schedules a loop of `n` iterations into a pipeline of
//! depth `d` (latency of one iteration) and initiation interval `ii` (cycles
//! between consecutive iteration starts). Total cycles are `d + (n-1)*ii`.
//! The paper's data-separation technique (Section VI-D) lowers the
//! verification module's `ii` from its three-stage depth to 1 by running the
//! stages as a dataflow region; `pefp-core` charges both schedules through
//! [`pipeline_cycles`].

/// Cycles for a pipelined loop: `depth + (n - 1) * ii`, or 0 when `n == 0`.
pub fn pipeline_cycles(iterations: u64, depth: u64, initiation_interval: u64) -> u64 {
    if iterations == 0 {
        0
    } else {
        depth + (iterations - 1) * initiation_interval.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_pipelined_loop_costs_depth_plus_n_minus_one() {
        assert_eq!(pipeline_cycles(1, 5, 1), 5);
        assert_eq!(pipeline_cycles(100, 5, 1), 104);
        assert_eq!(pipeline_cycles(0, 5, 1), 0);
    }

    #[test]
    fn unpipelined_loop_is_linear_in_depth() {
        assert_eq!(pipeline_cycles(10, 4, 4), 4 + 9 * 4);
    }

    #[test]
    fn zero_initiation_interval_is_treated_as_one() {
        assert_eq!(pipeline_cycles(10, 3, 0), 3 + 9);
    }

    #[test]
    fn dataflow_beats_sequential_whenever_there_are_multiple_stages() {
        // `stages` checks run concurrently (II = 1) or back-to-back (II = stages).
        for stages in 2..=5 {
            assert!(pipeline_cycles(12, stages, 1) < pipeline_cycles(12, stages, stages));
        }
        // A single stage has nothing to overlap.
        assert_eq!(pipeline_cycles(12, 1, 1), 12);
        assert_eq!(pipeline_cycles(12, 3, 1), 14);
        assert_eq!(pipeline_cycles(12, 3, 3), 36);
    }
}
