//! Host speed. The VMs this benchmark runs on share their physical CPUs,
//! and the same single-threaded build takes 64 ms at one time and 120 ms
//! a few minutes later; each virtual CPU also switches between a fast and
//! a slow state on its own, for tenths of a second to seconds at a time.
//! No median over a 30-second run averages that out, so every end-to-end
//! time is reported at a reference host speed: as measured, scaled
//! by a fixed reference computation timed just before and just after it
//! (for millisecond operations, the samples nearest it) on the CPU that
//! did the work.
//!
//! The reference computation is std-only: an interval DP over exact
//! `i128` window sums, the same mix of wide multiplies, float division
//! and min-plus scans that the library's builders run, but none of the
//! library's code. A change to the library therefore moves a scaled time
//! exactly as much as the raw one, while a CPU that runs everything 40 %
//! slower slows the reference too and cancels out.

use std::hint::black_box;
use std::time::Instant;

/// What one reference computation takes at the reference host speed, in
/// ns: about its median on the 2-vCPU VM the bounds were set on, in its
/// slower state. A scaled time reads `raw × REFERENCE_NS / measured`.
pub const REFERENCE_NS: f64 = 500_000.0;

/// Domain size and bucket count of the reference DP.
const N: usize = 64;
const B: usize = 12;

/// The reference computation: an optimal `B`-bucketing of `N` pseudo-
/// random values under a variance cost, from exact `i128` prefix sums.
fn reference(seed: u64) -> f64 {
    let mut p = [0i128; N + 1];
    let mut p2 = [0i128; N + 2];
    let mut x = seed | 1;
    for i in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p[i + 1] = p[i] + (x >> 44) as i128;
    }
    for i in 0..=N {
        p2[i + 1] = p2[i] + p[i].checked_mul(p[i]).expect("fits in i128");
    }
    let cost = |l: usize, r: usize| -> f64 {
        let len = (r - l + 1) as i128;
        let s = p[r + 1] - p[l];
        let q = p2[r + 2] - p2[l];
        let num = len.checked_mul(q).expect("fits") - s.checked_mul(s).expect("fits");
        num as f64 / (len * len) as f64
    };
    let mut e = [[f64::INFINITY; N + 1]; B + 1];
    e[0][0] = 0.0;
    for k in 1..=B {
        for i in k..=N {
            let mut best = f64::INFINITY;
            #[allow(clippy::needless_range_loop)] // j is an index *and* a boundary value
            for j in (k - 1)..i {
                let c = e[k - 1][j] + cost(j, i - 1);
                if c < best {
                    best = c;
                }
            }
            e[k][i] = best;
        }
    }
    e[B][N]
}

/// Times the reference computation once on the calling thread, in ns.
pub fn sample() -> f64 {
    let t0 = Instant::now();
    black_box(reference(black_box(0x2545_f491_4f6c_dd1d)));
    t0.elapsed().as_nanos() as f64
}

/// The factor that takes a time measured between `samples` to reference
/// host speed: `REFERENCE_NS` over their mean.
pub fn factor(samples: &[f64]) -> f64 {
    REFERENCE_NS * samples.len() as f64 / samples.iter().sum::<f64>()
}

/// Scales operations timed in groups between samples: group `i` lies
/// between `samples[i]` and `samples[i + 1]` and is scaled by the mean of
/// those two and of up to `reach` more on either side.
pub fn scale_groups(samples: &[f64], groups: &[Vec<f64>], reach: usize) -> Times {
    assert_eq!(samples.len(), groups.len() + 1, "a sample on either side");
    let mut times = Times::default();
    for (i, group) in groups.iter().enumerate() {
        let window = &samples[i.saturating_sub(reach)..(i + 2 + reach).min(samples.len())];
        let f = factor(window);
        for &ns in group {
            times.push(ns, f);
        }
    }
    times
}

/// Operation times in ns, as measured and at reference host speed.
#[derive(Clone, Default)]
pub struct Times {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Times {
    pub fn push(&mut self, raw_ns: f64, factor: f64) {
        self.raw.push(raw_ns);
        self.scaled.push(raw_ns * factor);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_and_finite() {
        let a = reference(0x2545_f491_4f6c_dd1d);
        assert!(a.is_finite());
        assert_eq!(a.to_bits(), reference(0x2545_f491_4f6c_dd1d).to_bits());
    }

    #[test]
    fn groups_are_scaled_by_the_samples_around_them() {
        let r = REFERENCE_NS;
        let samples = [r, r, r / 2.0, r / 2.0];
        let groups = [vec![1.0], vec![2.0, 3.0], vec![4.0]];
        let t = scale_groups(&samples, &groups, 0);
        assert_eq!(t.raw, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.scaled, [1.0, 2.0 * 4.0 / 3.0, 3.0 * 4.0 / 3.0, 8.0]);
        // With a reach of one, the middle group sees every sample.
        let t = scale_groups(&samples, &groups, 1);
        assert_eq!(t.scaled[1], 2.0 * 4.0 / 3.0);
        assert_eq!(t.scaled[0], 1.0 * 6.0 / 5.0);
    }

    #[test]
    fn factor_is_the_reference_over_the_mean_sample() {
        assert_eq!(factor(&[REFERENCE_NS, REFERENCE_NS / 2.0]), 4.0 / 3.0);
        assert_eq!(factor(&[REFERENCE_NS * 2.0]), 0.5);
    }
}
