//! Order statistics, the slice median, the determinism hash and the two
//! host probes (spin calibration, peak RSS) the benchmark reports.

use std::time::Instant;

/// Bounds on the number of equal time slices the measured phase is cut into.
pub const MIN_SLICES: usize = 10;
pub const MAX_SLICES: usize = 200;
/// Latency samples a slice must hold, so that four of them lie beyond its p99.
pub const MIN_SLICE_SAMPLES: usize = 400;

/// Slices for a run of `latency_samples` over an op list of `list_len`: as
/// many as leave every slice [`MIN_SLICE_SAMPLES`] samples and one whole pass
/// over the list. A slice shorter than a pass sees a share of the ops, and
/// the fastest slices are then the ones that drew the cheap share: on
/// `prep_cold` (2 000 ops a pass, p99 fifty times p50) 200 slices spread
/// `lat_p99_us` 41% over ten seeds, one pass a slice 4%.
pub fn slice_count(latency_samples: usize, list_len: usize) -> usize {
    (latency_samples / list_len.max(MIN_SLICE_SAMPLES)).clamp(MIN_SLICES, MAX_SLICES)
}

/// Slices out of `slices` a per-slice statistic is reported over: the tenth
/// with the highest throughput, and never fewer than ten. Other tenants of the
/// machine only ever slow a slice down, in episodes from 50 ms to seconds
/// that in a bad hour cover most of a run; the floor between them repeats.
/// Over ten 20 s runs on ten seeds, against the faster half of 20 slices, the
/// faster tenth of 200 cut the spread of `lat_p99_us` from 7.0% to 4.2% on
/// `tcp_hot` and from 15.5% to 9.1% on `fraud_stream`, and that of
/// `lat_p50_us` from 6.5% to 2.8%. The floor of ten is for the slow
/// workloads: a slice's p99 is the fifth largest of 400 samples, which on
/// `interference` falls on either side of a gap (the longest heavy query is
/// one round in 56), and the median of the three fastest of 24 slices sat on
/// the far side in 4 runs of 10.
pub fn calm_count(slices: usize) -> usize {
    slices.div_ceil(10).max(slices.min(10))
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of a small sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `values` over the [`calm_count`] slices with the highest
/// `throughput` (both in slice order).
pub fn calm_median(values: &[f64], throughput: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| throughput[b].total_cmp(&throughput[a]));
    let calm: Vec<f64> =
        order.into_iter().take(calm_count(values.len())).map(|i| values[i]).collect();
    median(&calm)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), so `--compare` sees the spread the pipeline
/// sees. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// FNV-1a over a word stream: the op-list / totals fingerprint printed by the
/// determinism self-check.
#[derive(Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Times a fixed integer spin (milliseconds, best of five). Run before and
/// after a workload: the same work taking >10% longer means another tenant
/// took the CPU and the workload's wall-clock numbers are suspect.
pub fn spin_calibration_ms() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line[field.len()..].trim().to_string())
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on, as the kernel prints them (`"1"` when
/// `run.sh` pinned it).
pub fn cpus_allowed() -> String {
    proc_status_field("Cpus_allowed_list:").unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        let mut small = vec![7.0, 3.0, 5.0];
        assert_eq!(percentile(&mut small, 50.0), 5.0);
        assert_eq!(percentile(&mut small, 99.0), 7.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn calm_median_is_taken_over_the_fastest_tenth() {
        // Slice i ran at rate i; its statistic is 1000 - i. The calm tenth of
        // 200 slices is slices 180..200, whose statistics are 801..=820.
        let throughput: Vec<f64> = (0..200).map(f64::from).collect();
        let values: Vec<f64> = throughput.iter().map(|t| 1000.0 - t).collect();
        assert_eq!(calm_median(&values, &throughput), 810.5);
        assert_eq!(calm_median(&throughput, &throughput), 189.5);
        // Never fewer than ten slices: of 24, slices 14..24; of 8, all.
        assert_eq!(calm_median(&throughput[..24], &throughput[..24]), 18.5);
        assert_eq!(calm_median(&throughput[..8], &throughput[..8]), 3.5);
    }

    #[test]
    fn slices_hold_a_list_pass_and_enough_samples() {
        // tcp_hot: 1.2 M samples of a 16-op list hit the cap.
        assert_eq!(slice_count(1_200_000, 16), MAX_SLICES);
        // fraud_stream: 40 000 samples of a stream, 400 a slice.
        assert_eq!(slice_count(40_000, 1), 100);
        // prep_cold: 32 000 samples of a 2 000-op list, one pass a slice.
        assert_eq!(slice_count(32_000, 2_000), 16);
        // A short run keeps the floor.
        assert_eq!(slice_count(900, 56), MIN_SLICES);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
