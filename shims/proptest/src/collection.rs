//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Strategy for vectors whose length is drawn from `size` and whose elements
/// are drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        assert!(self.size.start < self.size.end, "vec size range is empty");
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    /// Length shrinking first (halve toward the minimum length, then drop
    /// the last element), then element-wise shrinking at every index.
    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        if value.len() > self.size.start {
            let half = self.size.start.max(value.len() / 2);
            if half < value.len() - 1 {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
        }
        for (i, item) in value.iter().enumerate() {
            for candidate in self.element.shrink(item) {
                let mut next = value.clone();
                next[i] = candidate;
                out.push(next);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_length_bounds_and_element_range() {
        let strat = vec((0u32..5, 0u32..5), 0..20);
        let mut rng = TestRng::for_case("vec", 1);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!(v.len() < 20);
            assert!(v.iter().all(|&(a, b)| a < 5 && b < 5));
        }
    }

    #[test]
    fn vec_shrink_truncates_then_shrinks_elements() {
        let strat = vec(0u32..10, 0..20);
        let proposals = strat.shrink(&vec![4, 4, 4, 4]);
        // Halving and remove-last come first.
        assert_eq!(proposals[0], vec![4, 4]);
        assert_eq!(proposals[1], vec![4, 4, 4]);
        // Every remaining proposal keeps the length but simplifies one slot.
        assert!(proposals[2..].iter().all(|p| p.len() == 4));
        assert!(proposals[2..].iter().all(|p| p.iter().filter(|&&v| v != 4).count() == 1));
    }

    #[test]
    fn vec_shrink_respects_the_minimum_length() {
        let strat = vec(0u32..10, 3..20);
        // At the minimum length only element shrinks are proposed.
        let proposals = strat.shrink(&vec![0, 0, 0]);
        assert!(proposals.iter().all(|p| p.len() == 3));
        assert!(strat.shrink(&vec![0, 0, 0]).is_empty());
        // One above the minimum: remove-last only, no halving below start.
        let proposals = strat.shrink(&vec![0, 0, 0, 0]);
        assert_eq!(proposals, vec![vec![0, 0, 0]]);
    }
}
