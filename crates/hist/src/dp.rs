//! The shared O(n²B) dynamic program for *bucket-additive* objectives.
//!
//! When a histogram's total error is a sum of per-bucket costs that depend
//! only on the bucket's own `[l, r]` (plus the global `n`) — which the
//! paper's Decomposition Lemma establishes for SAP0/SAP1, which holds
//! trivially for point-query objectives, and which A0 *pretends* holds — the
//! optimal boundaries follow from the classical interval-partition DP of
//! Jagadish et al. (the paper's ref. 6):
//!
//! ```text
//! E(i, k) = min_{k−1 ≤ j < i}  E(j, k−1) + cost(j, i−1)
//! ```
//!
//! where `E(i, k)` is the best cost of covering the prefix `[0, i)` with
//! exactly `k` buckets and `cost(l, r)` is the (O(1)-oracle) cost of a bucket
//! over the inclusive index window `[l, r]`.
//!
//! `cost(j, i−1)` does not depend on `k`, so the DP runs `i` in the outer
//! loop and evaluates each of the `n(n+1)/2` windows exactly once (only the
//! `n` prefix windows when `B = 1`) into a cost row that every bucket count
//! then scans: `O(n²)` cost evaluations plus `O(n²B)` min-scan steps.

use synoptic_core::{Bucketing, Budget, Result, SynopticError};

/// Result of the bucket-additive DP: boundaries, the DP objective value, and
/// the number of buckets actually used.
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// The optimal bucketing.
    pub bucketing: Bucketing,
    /// The DP objective value (the true SSE only when the objective is
    /// genuinely bucket-additive, e.g. SAP0/SAP1 — not A0).
    pub objective: f64,
}

/// Runs the interval-partition DP for a bucket-additive cost.
///
/// `cost(l, r)` must return the cost of a single bucket covering the
/// inclusive window `[l, r]`, `0 ≤ l ≤ r < n`. Uses **at most** `max_buckets`
/// buckets (fewer if that is cheaper, which can happen for costs that are not
/// monotone in the partition refinement).
///
/// Complexity: `n(n+1)/2` cost evaluations (each window once; `n` when
/// `max_buckets == 1`), `O(n² · max_buckets)` min-scan steps,
/// `O(n · max_buckets)` memory.
pub fn optimal_bucketing<C>(n: usize, max_buckets: usize, cost: C) -> Result<DpSolution>
where
    C: Fn(usize, usize) -> f64,
{
    optimal_bucketing_with_budget(n, max_buckets, cost, &Budget::unlimited())
}

/// [`optimal_bucketing`] under execution control: the DP charges its
/// [`Budget`] one checkpoint per `(k, i)` cell (counting the candidate
/// split points examined as work units) and aborts with the budget's error
/// at the first exhausted constraint. With [`Budget::unlimited`] this is
/// bit-identical to [`optimal_bucketing`].
pub fn optimal_bucketing_with_budget<C>(
    n: usize,
    max_buckets: usize,
    cost: C,
    budget: &Budget,
) -> Result<DpSolution>
where
    C: Fn(usize, usize) -> f64,
{
    if n == 0 {
        return Err(SynopticError::EmptyInput);
    }
    if max_buckets == 0 || max_buckets > n {
        return Err(SynopticError::InvalidBucketCount {
            buckets: max_buckets,
            n,
        });
    }
    let b = max_buckets;
    // e[k][i]: best cost covering [0, i) with exactly k buckets; usize::MAX
    // parents mark unreachable states.
    let mut e = vec![vec![f64::INFINITY; n + 1]; b + 1];
    let mut parent = vec![vec![usize::MAX; n + 1]; b + 1];
    e[0][0] = 0.0;
    // `i` outside `k`: the window cost(j, i−1) does not depend on k, so one
    // row per i serves every bucket count. Every e[k−1][j] with j < i is
    // final by the time row i is scanned. The only finite k = 0 state is
    // e[0][0], so one bucket reads cost(0, i−1) alone: with b = 1 the row
    // stops there (the scan skips every other j before reading the row).
    let mut row = Vec::with_capacity(n);
    for i in 1..=n {
        row.clear();
        let width = if b == 1 { 1 } else { i };
        row.extend((0..width).map(|j| cost(j, i - 1)));
        // With k buckets we can cover at least k positions.
        for k in 1..=b.min(i) {
            budget.charge((i - (k - 1)) as u64)?;
            let mut best = f64::INFINITY;
            let mut best_j = usize::MAX;
            #[allow(clippy::needless_range_loop)] // j is an index *and* a boundary value
            for j in (k - 1)..i {
                let prev = e[k - 1][j];
                if !prev.is_finite() {
                    continue;
                }
                let c = prev + row[j];
                if c < best {
                    best = c;
                    best_j = j;
                }
            }
            e[k][i] = best;
            parent[k][i] = best_j;
        }
    }
    // Best over "at most b buckets".
    let (mut best_k, mut best) = (1, e[1][n]);
    for (k, ek) in e.iter().enumerate().take(b + 1).skip(2) {
        if ek[n] < best {
            best = ek[n];
            best_k = k;
        }
    }
    // Reconstruct boundaries.
    let mut starts = Vec::with_capacity(best_k);
    let (mut i, mut k) = (n, best_k);
    while k > 0 {
        let j = parent[k][i];
        debug_assert_ne!(j, usize::MAX, "unreachable DP state in reconstruction");
        starts.push(j);
        i = j;
        k -= 1;
    }
    starts.reverse();
    Ok(DpSolution {
        bucketing: Bucketing::new(n, starts)?,
        objective: best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: enumerate all bucketings with ≤ b buckets.
    fn brute<C: Fn(usize, usize) -> f64 + Copy>(n: usize, b: usize, cost: C) -> f64 {
        fn rec<C: Fn(usize, usize) -> f64 + Copy>(
            start: usize,
            n: usize,
            left: usize,
            cost: C,
        ) -> f64 {
            if start == n {
                return 0.0;
            }
            if left == 0 {
                return f64::INFINITY;
            }
            let mut best = f64::INFINITY;
            for end in start..n {
                let c = cost(start, end) + rec(end + 1, n, left - 1, cost);
                if c < best {
                    best = c;
                }
            }
            best
        }
        rec(0, n, b, cost)
    }

    /// The DP as it ran before the loop swap: `k` outside `i`, one cost
    /// evaluation per `(k, i, j)`. Kept as the bit-identity reference.
    fn reference_k_outer<C: Fn(usize, usize) -> f64>(
        n: usize,
        b: usize,
        cost: C,
    ) -> (Vec<usize>, f64) {
        let mut e = vec![vec![f64::INFINITY; n + 1]; b + 1];
        let mut parent = vec![vec![usize::MAX; n + 1]; b + 1];
        e[0][0] = 0.0;
        for k in 1..=b {
            for i in k..=n {
                let (mut best, mut best_j) = (f64::INFINITY, usize::MAX);
                #[allow(clippy::needless_range_loop)] // j is an index *and* a boundary value
                for j in (k - 1)..i {
                    let prev = e[k - 1][j];
                    if !prev.is_finite() {
                        continue;
                    }
                    let c = prev + cost(j, i - 1);
                    if c < best {
                        best = c;
                        best_j = j;
                    }
                }
                e[k][i] = best;
                parent[k][i] = best_j;
            }
        }
        let (mut best_k, mut best) = (1, e[1][n]);
        for (k, ek) in e.iter().enumerate().skip(2) {
            if ek[n] < best {
                best = ek[n];
                best_k = k;
            }
        }
        let mut starts = Vec::new();
        let (mut i, mut k) = (n, best_k);
        while k > 0 {
            starts.push(parent[k][i]);
            i = parent[k][i];
            k -= 1;
        }
        starts.reverse();
        (starts, best)
    }

    #[test]
    fn loop_swap_is_bit_identical_to_the_k_outer_reference() {
        let mut rng = synoptic_core::rng::Rng::new(20011);
        for case in 0..240 {
            let n = rng.usize_in(1, 25);
            // Draw from a few coarse levels so many candidate splits tie,
            // and make some windows infinitely expensive; the whole-domain
            // window stays finite so a one-bucket answer always exists.
            let levels = rng.usize_in(1, 5) as u64;
            let p_inf = rng.usize_in(0, 4);
            let mut table = vec![0.0f64; n * n];
            for l in 0..n {
                for r in l..n {
                    table[l * n + r] = if (l, r) != (0, n - 1) && rng.usize_in(0, 10) < p_inf {
                        f64::INFINITY
                    } else {
                        rng.bounded_u64(levels) as f64 * 0.375 + (r - l) as f64 * 0.125
                    };
                }
            }
            let cost = |l: usize, r: usize| table[l * n + r];
            let mut bs = vec![1, n, rng.usize_in(1, n + 1)];
            bs.dedup();
            for b in bs {
                let sol = optimal_bucketing(n, b, cost).unwrap();
                let (starts, objective) = reference_k_outer(n, b, cost);
                assert_eq!(sol.bucketing.starts(), starts, "case {case}: n={n} b={b}");
                assert_eq!(
                    sol.objective.to_bits(),
                    objective.to_bits(),
                    "case {case}: n={n} b={b}"
                );
            }
        }
    }

    #[test]
    fn every_window_is_evaluated_exactly_once() {
        use std::cell::Cell;
        for n in 1..=20usize {
            for b in [1, 2, n.div_ceil(2), n] {
                if b > n {
                    continue;
                }
                let calls = Cell::new(0usize);
                let cost = |l: usize, r: usize| {
                    calls.set(calls.get() + 1);
                    ((l * 13 + r * 7) % 5) as f64
                };
                optimal_bucketing(n, b, cost).unwrap();
                // One bucket only ever covers a prefix [0, i).
                let want = if b == 1 { n } else { n * (n + 1) / 2 };
                assert_eq!(calls.get(), want, "n={n} b={b}");
            }
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(optimal_bucketing(0, 1, |_, _| 0.0).is_err());
        assert!(optimal_bucketing(5, 0, |_, _| 0.0).is_err());
        assert!(optimal_bucketing(5, 6, |_, _| 0.0).is_err());
    }

    #[test]
    fn single_bucket_when_b_is_one() {
        let sol = optimal_bucketing(7, 1, |l, r| ((r - l) as f64).powi(2)).unwrap();
        assert_eq!(sol.bucketing.num_buckets(), 1);
        assert_eq!(sol.objective, 36.0);
    }

    #[test]
    fn matches_brute_force_on_random_costs() {
        // A deterministic but irregular cost function.
        let cost = |l: usize, r: usize| {
            let x = (l * 31 + r * 17) % 13;
            (x as f64) + (r - l) as f64 * 1.5
        };
        for n in 1..=9usize {
            for b in 1..=n {
                let sol = optimal_bucketing(n, b, cost).unwrap();
                let want = brute(n, b, cost);
                assert!(
                    (sol.objective - want).abs() < 1e-9,
                    "n={n} b={b}: {} vs {want}",
                    sol.objective
                );
                // Reconstructed bucketing must reproduce the objective.
                let recon: f64 = sol.bucketing.iter().map(|(l, r)| cost(l, r)).sum();
                assert!((recon - sol.objective).abs() < 1e-9, "n={n} b={b}");
                assert!(sol.bucketing.num_buckets() <= b);
            }
        }
    }

    #[test]
    fn splitting_helps_with_convex_costs() {
        // cost = (width)², so more buckets always help; with b = n the
        // optimum is 0 … wait, width 1 ⇒ cost 1. Use (width − 1)² so
        // singleton buckets are free.
        let cost = |l: usize, r: usize| ((r - l) as f64).powi(2);
        let sol = optimal_bucketing(6, 6, cost).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.bucketing.num_buckets(), 6);
    }

    #[test]
    fn budgeted_dp_matches_unbudgeted_and_aborts_cleanly() {
        use synoptic_core::SynopticError;
        let cost = |l: usize, r: usize| ((r - l) as f64) * 1.25 + ((l * 7 + r) % 5) as f64;
        let free = optimal_bucketing(12, 4, cost).unwrap();
        let metered = Budget::unlimited();
        let budgeted = optimal_bucketing_with_budget(12, 4, cost, &metered).unwrap();
        assert_eq!(free.bucketing.starts(), budgeted.bucketing.starts());
        assert_eq!(free.objective, budgeted.objective);
        assert!(metered.cells_used() > 0);
        // A cap below the metered usage must abort with the budget error.
        let capped = Budget::unlimited().with_max_cells(metered.cells_used() / 2);
        match optimal_bucketing_with_budget(12, 4, cost, &capped) {
            Err(SynopticError::CellBudgetExceeded { .. }) => {}
            other => panic!("expected CellBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn may_use_fewer_buckets_when_cheaper() {
        // Penalize narrow buckets: cost = 1/width. Optimal is one wide bucket
        // even when more are allowed.
        let cost = |l: usize, r: usize| 1.0 / (r - l + 1) as f64;
        let sol = optimal_bucketing(8, 4, cost).unwrap();
        assert_eq!(sol.bucketing.num_buckets(), 1);
        assert!((sol.objective - 0.125).abs() < 1e-12);
    }
}
