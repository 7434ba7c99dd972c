//! Order statistics, the percentile picker and `/proc/self` readers.

use std::time::Instant;

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank value at percentile `pct` (0–100) of an ascending slice;
/// 0 when empty.
pub fn percentile(sorted: &[u32], pct: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it — a tail percentile backed by fewer is one outlier's
/// position, not a measurement.
pub fn top_percentile(samples: usize) -> f64 {
    // (percentile, one sample in this many lies beyond it)
    const LADDER: [(f64, usize); 4] = [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)];
    LADDER
        .into_iter()
        .find(|&(_, one_in)| samples >= 10 * one_in)
        .map_or(50.0, |(pct, _)| pct)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Median ns per call of `f` over `batches` timed batches of `iters`
/// calls (one untimed batch first, so lazy allocation is not measured).
pub fn time_ns(batches: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for b in 0..=batches {
        let t = Instant::now();
        for i in 0..iters {
            f(b * iters + i);
        }
        if b > 0 {
            per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&per_call)
}

/// Kernel clock ticks per second for `/proc/self/stat` times. `sysconf`
/// needs libc, which the tree does not have; every Linux ABI this runs on
/// fixes `USER_HZ` at 100.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in µs from the text of `/proc/self/stat`. The comm
/// field may hold spaces and parentheses, so fields count from the last
/// `)`.
pub fn parse_cpu_us(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e6 / USER_HZ)
}

/// `VmHWM` in MiB from the text of `/proc/self/status`.
pub fn parse_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Process CPU time so far, µs.
pub fn cpu_us() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_us(&s))
        .expect("/proc/self/stat is readable and well-formed on linux")
}

/// Peak resident set so far, MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), 50.0);
        assert_eq!(top_percentile(19), 50.0);
        assert_eq!(top_percentile(20), 50.0);
        assert_eq!(top_percentile(99), 50.0);
        assert_eq!(top_percentile(100), 90.0);
        assert_eq!(top_percentile(999), 90.0);
        assert_eq!(top_percentile(1_000), 99.0);
        assert_eq!(top_percentile(10_000), 99.9);
        assert_eq!(top_percentile(100_000), 99.99);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]);
        assert_eq!((q1, q3), (0.5, 3.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_stat_survives_a_hostile_comm() {
        let stat = "42 (load) bench (x)) S 1 42 42 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 7 0 1000 1000000 500 18446744073709551615";
        // utime 250 + stime 50 ticks at 100 Hz = 3 s.
        assert_eq!(parse_cpu_us(stat), Some(3_000_000.0));
        assert_eq!(parse_cpu_us("garbage"), None);
    }

    #[test]
    fn proc_status_hwm_in_mib() {
        let status = "Name:\tloadbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_hwm_mib(status), Some(20.0));
        assert_eq!(parse_hwm_mib("Name:\tx\n"), None);
    }
}
