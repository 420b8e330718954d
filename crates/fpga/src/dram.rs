//! Off-chip DRAM model.
//!
//! DRAM on the card is large but slow: the paper cites 7–8 cycles per read
//! against BRAM's single cycle (Section VI-B), which is the entire motivation
//! for the buffer-and-batch and caching techniques. Sequential (burst)
//! accesses amortise the initial latency — the paper exploits this by always
//! reading/writing intermediate paths from the *tail* of the DRAM path set so
//! transfers stay contiguous.

use serde::{Deserialize, Serialize};

/// Off-chip DRAM with latency/burst cost accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dram {
    capacity: usize,
    read_latency: u64,
    write_latency: u64,
    burst_words_per_cycle: u64,
}

impl Dram {
    /// Creates a DRAM model.
    pub fn new(
        capacity: usize,
        read_latency: u64,
        write_latency: u64,
        burst_words_per_cycle: u64,
    ) -> Self {
        assert!(burst_words_per_cycle > 0, "burst rate must be positive");
        Dram { capacity, read_latency, write_latency, burst_words_per_cycle }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cycle cost of one random read of `words` consecutive 32-bit words:
    /// initial latency plus the burst transfer.
    pub fn read_cost(&self, words: u64) -> u64 {
        if words == 0 {
            0
        } else {
            self.read_latency + words.div_ceil(self.burst_words_per_cycle)
        }
    }

    /// Cycle cost of one random write of `words` consecutive 32-bit words.
    pub fn write_cost(&self, words: u64) -> u64 {
        if words == 0 {
            0
        } else {
            self.write_latency + words.div_ceil(self.burst_words_per_cycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_amortises_latency() {
        let d = Dram::new(1 << 30, 8, 8, 2);
        // A single word costs latency + 1 cycle of transfer.
        assert_eq!(d.read_cost(1), 9);
        // 100 words: 8 + 50 — far less than 100 individual accesses (900).
        assert_eq!(d.read_cost(100), 58);
        assert_eq!(100 * d.read_cost(1), 900);
    }

    #[test]
    fn zero_sized_transfers_are_free() {
        let d = Dram::new(1024, 8, 8, 2);
        assert_eq!(d.read_cost(0), 0);
        assert_eq!(d.write_cost(0), 0);
    }

    #[test]
    fn write_cost_mirrors_read_cost() {
        let d = Dram::new(1024, 7, 9, 4);
        assert_eq!(d.write_cost(8), 9 + 2);
        assert_eq!(d.read_cost(8), 7 + 2);
    }

    #[test]
    #[should_panic(expected = "burst rate")]
    fn zero_burst_rate_is_rejected() {
        Dram::new(1024, 8, 8, 0);
    }
}
