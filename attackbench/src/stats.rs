//! Order statistics and digests over raw samples.
//!
//! Percentiles are computed from every recorded sample, not from the
//! bucketed `hsp_obs::Histogram`: bucket upper bounds would read the
//! same on every run and hide real movement.

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of sorted samples, linearly interpolated between ranks.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// p50 and p99 of nanosecond samples, in microseconds.
pub fn p50_p99_us(samples_ns: &mut [u64]) -> (f64, f64) {
    samples_ns.sort_unstable();
    (quantile_sorted(samples_ns, 0.50) / 1e3, quantile_sorted(samples_ns, 0.99) / 1e3)
}

/// Fold one word into an FNV-1a digest.
pub fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(quantile_sorted(&s, 0.5), 30.0);
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 50.0);
        assert_eq!(quantile_sorted(&s, 0.125), 15.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
