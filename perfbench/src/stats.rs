//! Order statistics and the process's peak resident memory.

/// The `q`-quantile of `samples` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks. Panics on an empty sample: every caller
/// measures at least one operation first.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The percentile actually reported for a requested tail `q`: the highest
/// one at or below `q` that still has ten samples beyond it, and never
/// below the median.
pub fn supported_tail(count: usize, q: f64) -> f64 {
    let highest = 1.0 - 10.0 / count as f64;
    q.min(highest).max(0.5)
}

/// A tail quantile with at least ten samples beyond it (see
/// [`supported_tail`]), plus the percentile it was taken at.
pub fn tail(samples: &[f64], q: f64) -> (f64, f64) {
    let used = supported_tail(samples.len(), q);
    (quantile(samples, used), used)
}

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage` would not do: its peak survives
/// `exec`, so under `cargo run` it reports cargo's own memory.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(supported_tail(1000, 0.9), 0.9);
        assert_eq!(supported_tail(50, 0.9), 0.8);
        assert_eq!(supported_tail(12, 0.9), 0.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
