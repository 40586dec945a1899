//! `build_optimal`: one thread, no server. Each operation is a lineup
//! round that builds every construction of the paper on fixed data.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use synoptic_core::rng::Rng;
use synoptic_core::sse::sse_brute;
use synoptic_core::window::WindowOracle;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, RoundingMode};
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_hist::a0::{build_a0_with_budget, build_a0_with_objective};
use synoptic_hist::dp::optimal_bucketing;
use synoptic_hist::opta::{build_opt_a, build_opt_a_with_budget, OptAConfig};
use synoptic_hist::opta_rounded::{build_opt_a_rounded_eps, build_opt_a_rounded_eps_with_budget};
use synoptic_hist::sap0::{build_sap0_with_budget, build_sap0_with_sse, sap0_bucket_cost};
use synoptic_hist::sap1::{build_sap1_with_budget, build_sap1_with_sse};
use synoptic_hist::vopt::{
    build_point_opt_with_budget, build_point_opt_with_objective, PointWeighting,
};
use synoptic_hist::HistogramMethod;
use synoptic_wavelet::RangeOptimalWavelet;

use crate::host;
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Sizes};

/// Lineup methods in build order, with the span each build records.
pub const METHODS: [(&str, &str); 7] = [
    ("sap0", "hist.build.sap0"),
    ("sap1", "hist.build.sap1"),
    ("a0", "hist.build.a0"),
    ("point_opt", "hist.build.point_opt"),
    ("opt_a", "hist.build.opt_a"),
    ("opt_a_rounded", "hist.build.opt_a_rounded"),
    ("range_optimal", "wavelet.build.range_optimal"),
];

/// The fixed data of every round, generated from the seed.
pub struct Inputs {
    /// Permuted Zipf(1.8) frequencies for SAP0, SAP1, A0, POINT-OPT and the
    /// range-optimal wavelet.
    lineup: Vec<i64>,
    lineup_ps: PrefixSums,
    /// Rank-sorted Zipf(1.8) frequencies at the paper's scale for OPT-A
    /// and OPT-A-ROUNDED.
    opta: Vec<i64>,
    opta_ps: PrefixSums,
    b_sap0: usize,
    b_sap1: usize,
    b_two_word: usize,
    b_opta: usize,
    wavelet_coeffs: usize,
    eps: f64,
    lineup_probes: Vec<RangeQuery>,
    opta_probes: Vec<RangeQuery>,
}

fn probes(n: usize, rng: &mut Rng) -> Vec<RangeQuery> {
    let mut qs = vec![RangeQuery { lo: 0, hi: n - 1 }];
    qs.extend((0..63).map(|_| {
        let (a, b) = (rng.usize_in(0, n), rng.usize_in(0, n));
        RangeQuery {
            lo: a.min(b),
            hi: a.max(b),
        }
    }));
    qs
}

pub fn inputs(seed: u64, sizes: &Sizes) -> Inputs {
    let lineup = paper_dataset(&ZipfConfig {
        n: sizes.lineup_n,
        total_mass: sizes.lineup_mass,
        permute: true,
        seed,
        ..ZipfConfig::default()
    })
    .into_values();
    let opta = paper_dataset(&ZipfConfig {
        n: sizes.opta_n,
        total_mass: sizes.opta_mass,
        seed: seed.wrapping_add(127),
        ..ZipfConfig::default()
    })
    .into_values();
    let buckets = |m: HistogramMethod, words, n| {
        m.buckets_for_budget(words, n)
            .expect("lineup budgets cover at least one bucket")
    };
    let (ln, on) = (sizes.lineup_n, sizes.opta_n);
    let mut rng = Rng::new(seed.wrapping_add(1));
    Inputs {
        lineup_ps: PrefixSums::from_values(&lineup),
        opta_ps: PrefixSums::from_values(&opta),
        b_sap0: buckets(HistogramMethod::Sap0, sizes.lineup_words, ln),
        b_sap1: buckets(HistogramMethod::Sap1, sizes.lineup_words, ln),
        b_two_word: buckets(HistogramMethod::A0, sizes.lineup_words, ln),
        b_opta: buckets(HistogramMethod::OptA, sizes.opta_words, on),
        wavelet_coeffs: sizes.lineup_words / 2,
        eps: sizes.opta_eps,
        lineup_probes: probes(ln, &mut rng),
        opta_probes: probes(on, &mut rng),
        lineup,
        opta,
    }
}

/// One built synopsis and what identifies it bit for bit.
pub struct Built {
    pub method: &'static str,
    pub estimator: Box<dyn RangeEstimator>,
    pub objective: f64,
    pub fingerprint: u64,
    pub ns: f64,
    /// `ns` at reference host speed.
    pub scaled_ns: f64,
}

/// What a round reports besides its builds.
pub struct Round {
    pub builds: Vec<Built>,
    pub ns: f64,
    pub scaled_ns: f64,
    pub opt_a_states: (u64, u64),
}

/// FNV-1a over bucket starts, the objective's bits and the bits of the
/// probe estimates.
fn fingerprint(
    starts: impl Iterator<Item = usize>,
    objective: f64,
    est: &dyn RangeEstimator,
    probes: &[RangeQuery],
) -> u64 {
    let words = starts
        .map(|s| s as u64)
        .chain([objective.to_bits()])
        .chain(probes.iter().map(|&q| est.estimate(q).to_bits()));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the whole lineup once, sampling the host's speed between
/// builds. `check` runs the exactness checks (outside the timed builds);
/// it is set on the reference round.
pub fn round(
    inp: &Inputs,
    tracer: &mut Tracer,
    request: u64,
    check: bool,
) -> Result<Round, String> {
    let round_span = tracer.begin("build.round", ROOT, request);
    let mut builds = Vec::with_capacity(METHODS.len());
    let mut opt_a_states = (0, 0);
    let mut errors = Vec::new();
    let mut before = host::sample();
    for (i, &(method, span)) in METHODS.iter().enumerate() {
        let t0 = Instant::now();
        let (estimator, objective, starts): (Box<dyn RangeEstimator>, f64, Vec<usize>) = match i {
            0 => {
                let (h, obj) = build_sap0_with_sse(&inp.lineup_ps, inp.b_sap0).map_err(err)?;
                let starts = h.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(h), obj, starts)
            }
            1 => {
                let (h, obj) = build_sap1_with_sse(&inp.lineup_ps, inp.b_sap1).map_err(err)?;
                let starts = h.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(h), obj, starts)
            }
            2 => {
                let (h, obj) =
                    build_a0_with_objective(&inp.lineup_ps, inp.b_two_word).map_err(err)?;
                let starts = h.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(h), obj, starts)
            }
            3 => {
                let (h, obj) = build_point_opt_with_objective(
                    &inp.lineup,
                    &inp.lineup_ps,
                    inp.b_two_word,
                    PointWeighting::RangeInclusion,
                )
                .map_err(err)?;
                let starts = h.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(h), obj, starts)
            }
            4 => {
                let cfg = OptAConfig::exact(inp.b_opta, RoundingMode::None);
                let r = build_opt_a(&inp.opta_ps, &cfg).map_err(err)?;
                opt_a_states = (r.stats.states_generated, r.stats.states_kept);
                if check {
                    if r.stats.approximate {
                        errors.push("OPT-A ran approximately".to_string());
                    }
                    if !close(r.sse, r.dp_objective) {
                        errors.push(format!(
                            "OPT-A sse {} != dp objective {}",
                            r.sse, r.dp_objective
                        ));
                    }
                }
                let starts = r.histogram.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(r.histogram), r.sse, starts)
            }
            5 => {
                let r = build_opt_a_rounded_eps(&inp.opta_ps, &inp.opta, inp.b_opta, inp.eps)
                    .map_err(err)?;
                let starts = r.histogram.bucketing().iter().map(|(l, _)| l).collect();
                (Box::new(r.histogram), r.sse, starts)
            }
            _ => {
                let w = RangeOptimalWavelet::build(&inp.lineup_ps, inp.wavelet_coeffs);
                let err = w.virtual_matrix_error();
                (Box::new(w), err, Vec::new())
            }
        };
        let t1 = Instant::now();
        tracer.record(span, round_span, request, (t0, t1), 1);
        let after = host::sample();
        let ns = (t1 - t0).as_nanos() as f64;
        let scaled_ns = ns * host::factor(&[before, after]);
        before = after;
        let probes = if i == 4 || i == 5 {
            &inp.opta_probes
        } else {
            &inp.lineup_probes
        };
        let fingerprint = fingerprint(starts.into_iter(), objective, &*estimator, probes);
        builds.push(Built {
            method,
            estimator,
            objective,
            fingerprint,
            ns,
            scaled_ns,
        });
    }
    // The round's time is its builds' time; fingerprints are not in it.
    let ns = builds.iter().map(|b| b.ns).sum();
    let scaled_ns = builds.iter().map(|b| b.scaled_ns).sum();
    tracer.end(round_span, METHODS.len() as u64);
    if check {
        for b in &builds[..2] {
            let exact = sse_brute(&b.estimator, &inp.lineup_ps);
            if !close(b.objective, exact) {
                errors.push(format!(
                    "{} objective {} != exact SSE {exact}",
                    b.method, b.objective
                ));
            }
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(Round {
        builds,
        ns,
        scaled_ns,
        opt_a_states,
    })
}

fn err(e: synoptic_core::SynopticError) -> String {
    e.to_string()
}

/// Equal up to floating-point summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Bit-identity of a round against the reference round.
pub fn matches(reference: &Round, round: &Round) -> Result<(), String> {
    for (r, b) in reference.builds.iter().zip(&round.builds) {
        if r.fingerprint != b.fingerprint {
            return Err(format!(
                "{} fingerprint {:016x} differs from the reference {:016x}",
                b.method, b.fingerprint, r.fingerprint
            ));
        }
    }
    Ok(())
}

/// Exact work counts of one lineup: DP cost-oracle calls (by wrapping the
/// cost closure handed to the DP), budget cells per method, and OPT-A's
/// states. Also records the layer spans that need these counts.
pub fn counted(
    inp: &Inputs,
    reference: &Round,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let ps = &inp.lineup_ps;
    let n = ps.n();
    let oracle = WindowOracle::new(ps);
    let calls = Cell::new(0u64);
    let sol = optimal_bucketing(n, inp.b_sap0, |l, r| {
        calls.set(calls.get() + 1);
        sap0_bucket_cost(&oracle, n, l, r)
    })
    .map_err(err)?;
    if sol.objective.to_bits() != reference.builds[0].objective.to_bits() {
        return Err("counted SAP0 DP disagrees with build_sap0".into());
    }
    let windows = (n * (n + 1) / 2) as u64;
    counters.set("hist.dp.cost_calls", calls.get());
    counters.set("hist.dp.windows", windows);

    let cells = |f: &dyn Fn(&Budget) -> Result<(), String>| -> Result<u64, String> {
        let budget = Budget::unlimited();
        f(&budget)?;
        Ok(budget.cells_used())
    };
    let opta_cfg = OptAConfig::exact(inp.b_opta, RoundingMode::None);
    let per_method: [(&str, u64); 6] = [
        (
            "hist.build_cells.sap0",
            cells(&|b| {
                build_sap0_with_budget(ps, inp.b_sap0, b)
                    .map(drop)
                    .map_err(err)
            })?,
        ),
        (
            "hist.build_cells.sap1",
            cells(&|b| {
                build_sap1_with_budget(ps, inp.b_sap1, b)
                    .map(drop)
                    .map_err(err)
            })?,
        ),
        (
            "hist.build_cells.a0",
            cells(&|b| {
                build_a0_with_budget(ps, inp.b_two_word, b)
                    .map(drop)
                    .map_err(err)
            })?,
        ),
        (
            "hist.build_cells.point_opt",
            cells(&|b| {
                build_point_opt_with_budget(
                    &inp.lineup,
                    ps,
                    inp.b_two_word,
                    PointWeighting::RangeInclusion,
                    b,
                )
                .map(drop)
                .map_err(err)
            })?,
        ),
        (
            "hist.build_cells.opt_a",
            cells(&|b| {
                build_opt_a_with_budget(&inp.opta_ps, &opta_cfg, b)
                    .map(drop)
                    .map_err(err)
            })?,
        ),
        (
            "hist.build_cells.opt_a_rounded",
            cells(&|b| {
                build_opt_a_rounded_eps_with_budget(&inp.opta_ps, &inp.opta, inp.b_opta, inp.eps, b)
                    .map(drop)
                    .map_err(err)
            })?,
        ),
    ];
    for (name, c) in per_method {
        counters.set(name, c);
    }
    counters.set("hist.opt_a.states_generated", reference.opt_a_states.0);
    counters.set("hist.opt_a.states_kept", reference.opt_a_states.1);

    // The same DP over a precomputed cost table: what is left is the loop.
    let table: Vec<f64> = (0..n * n)
        .map(|k| {
            let (l, r) = (k / n, k % n);
            if l <= r {
                sap0_bucket_cost(&oracle, n, l, r)
            } else {
                0.0
            }
        })
        .collect();
    for rep in 0..5 {
        let sol = tracer.timed("hist.dp.table_loop", ROOT, rep, per_method[0].1, || {
            optimal_bucketing(n, inp.b_sap0, |l, r| table[l * n + r])
        });
        if sol.map_err(err)?.objective.to_bits() != reference.builds[0].objective.to_bits() {
            return Err("table-driven SAP0 DP disagrees with build_sap0".into());
        }
    }
    Ok(())
}

/// Per-call probes of the window oracle and the estimate paths.
pub fn probes_layer(inp: &Inputs, reference: &Round, tracer: &mut Tracer, calls: usize, seed: u64) {
    let ps = &inp.lineup_ps;
    let n = ps.n();
    let oracle = WindowOracle::new(ps);
    let mut rng = Rng::new(seed ^ 0x57AB);
    let windows: Vec<(usize, usize)> = (0..calls)
        .map(|_| {
            let (a, b) = (rng.usize_in(0, n), rng.usize_in(0, n));
            (a.min(b), a.max(b))
        })
        .collect();
    for rep in 0..5 {
        tracer.timed("core.window.sap0_cost", ROOT, rep, calls as u64, || {
            let mut acc = 0.0;
            for &(l, r) in &windows {
                acc += sap0_bucket_cost(&oracle, n, black_box(l), black_box(r));
            }
            black_box(acc)
        });
    }
    let ranges = |n: usize, rng: &mut Rng| -> Vec<RangeQuery> {
        (0..calls)
            .map(|_| {
                let (a, b) = (rng.usize_in(0, n), rng.usize_in(0, n));
                RangeQuery {
                    lo: a.min(b),
                    hi: a.max(b),
                }
            })
            .collect()
    };
    let lineup_q = ranges(n, &mut rng);
    let opta_q = ranges(inp.opta_ps.n(), &mut rng);
    for (idx, span, qs) in [
        (0, "core.estimate.sap0", &lineup_q),
        (1, "core.estimate.sap1", &lineup_q),
        (4, "core.estimate.opt_a", &opta_q),
    ] {
        let est = &reference.builds[idx].estimator;
        for rep in 0..5 {
            tracer.timed(span, ROOT, rep, calls as u64, || {
                let mut acc = 0.0;
                for &q in qs {
                    acc += est.estimate(black_box(q));
                }
                black_box(acc)
            });
        }
    }
}
