//! The repository benchmark. One process runs one workload in-process
//! and prints its metrics by name and unit; the last line of standard
//! output is one JSON object:
//!
//! ```text
//! perfbench --workload <build_optimal|serve_read|ingest_fresh> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` records spans around every call into a layer, writes them
//! to `.perfbench/trace-<workload>-seed<n>.jsonl`, and reports the
//! per-layer metrics, the exact counters (checked to repeat across two
//! passes) and the tracing overhead. `--smoke` runs at tiny sizes.
//! A run whose outputs fail a check prints `"correct": false` and exits 1.
//! See `perfbench/README.md` for every metric's definition.

mod build_optimal;
mod cpu;
mod front;
mod host;
mod ingest_fresh;
mod memstore;
mod serve_read;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::Times;
use stats::{median, peak_rss_mb, tail};
use trace::Tracer;

/// Exact work counts, by name.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// Input sizes of every workload and phase.
pub struct Sizes {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub lineup_n: usize,
    pub lineup_words: usize,
    pub lineup_mass: f64,
    pub opta_n: usize,
    pub opta_words: usize,
    pub opta_mass: f64,
    pub opta_eps: f64,
    pub serve_n: usize,
    pub serve_words: usize,
    pub universe: usize,
    pub batch: usize,
    pub batch_pool: usize,
    pub ingest_n: usize,
    pub ingest_words: usize,
    pub deltas_per_op: usize,
    pub probe_ranges: usize,
    pub probe_every: Duration,
    /// Unmeasured operations before timing starts.
    pub warmup_batches: usize,
    pub warmup_ops: usize,
    /// Fixed-size phases of the traced run that give the exact counters.
    pub counted_batches: usize,
    pub counted_ingest_ops: usize,
    /// Traced run: how long another workload's serving phase runs, and how
    /// many operations another workload's ingest phase makes.
    pub side_seconds: f64,
    pub side_ops: usize,
    pub probe_calls: usize,
    pub disk_appends: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            setups: 9,
            lineup_n: 256,
            lineup_words: 48,
            lineup_mass: 1e6,
            opta_n: 127,
            opta_words: 32,
            opta_mass: 1e4,
            opta_eps: 0.25,
            serve_n: 512,
            serve_words: 96,
            universe: 65_536,
            batch: 4096,
            batch_pool: 64,
            ingest_n: 256,
            ingest_words: 48,
            deltas_per_op: 64,
            probe_ranges: 64,
            probe_every: Duration::from_millis(1),
            warmup_batches: 64,
            warmup_ops: 2,
            counted_batches: 64,
            counted_ingest_ops: 8,
            side_seconds: 0.5,
            side_ops: 4,
            probe_calls: 100_000,
            disk_appends: 200,
        }
    }

    fn smoke() -> Self {
        Sizes {
            setups: 2,
            lineup_n: 24,
            lineup_words: 12,
            opta_n: 15,
            opta_words: 8,
            serve_n: 32,
            serve_words: 12,
            universe: 512,
            batch: 64,
            batch_pool: 8,
            ingest_n: 32,
            ingest_words: 12,
            deltas_per_op: 8,
            probe_ranges: 8,
            warmup_batches: 4,
            warmup_ops: 1,
            counted_batches: 8,
            counted_ingest_ops: 3,
            side_seconds: 0.05,
            side_ops: 2,
            probe_calls: 1000,
            disk_appends: 8,
            ..Sizes::full()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    BuildOptimal,
    ServeRead,
    IngestFresh,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "build_optimal" => Self::BuildOptimal,
            "serve_read" => Self::ServeRead,
            "ingest_fresh" => Self::IngestFresh,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::BuildOptimal => "build_optimal",
            Self::ServeRead => "serve_read",
            Self::IngestFresh => "ingest_fresh",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <build_optimal|serve_read|ingest_fresh> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// The seed a run uses when none is given; claims are re-checked on a
/// held-out seed (see `perfbench/provenance.json`).
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::BuildOptimal,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Work per second over all measured operations at reference host speed:
/// in a closed loop with one client, the rate the system sustains,
/// stalled operations included.
fn push_throughput(out: &mut Outcome, work_per_op: usize, ops: &Times) {
    let rate = |ns: &[f64]| (work_per_op * ns.len()) as f64 / (ns.iter().sum::<f64>() / 1e9);
    println!("throughput as measured: {:.6} 1/s", rate(&ops.raw));
    out.push("throughput_ops_s", rate(&ops.scaled), "1/s");
}

/// Pushes the median and the supported tail (≤ p90) in ms at reference
/// host speed, and prints them as measured.
fn push_latency(out: &mut Outcome, prefix: &str, t: &Times) {
    let (p90, used) = tail(&t.scaled, 0.9);
    println!(
        "{prefix}: {} samples, tail taken at p{:.1}; as measured: p50 {:.6} ms, tail {:.6} ms",
        t.len(),
        used * 100.0,
        median(&t.raw) / 1e6,
        tail(&t.raw, 0.9).0 / 1e6
    );
    out.push(format!("{prefix}_p50_ms"), median(&t.scaled) / 1e6, "ms");
    out.push(format!("{prefix}_p90_ms"), p90 / 1e6, "ms");
}

/// Sets up `count` times, discarding all but the last set-up; returns it
/// with the time each set-up took. The host's speed is sampled with
/// `sample` just before and just after each.
fn timed_setups<R>(
    count: usize,
    mut sample: impl FnMut() -> f64,
    mut setup: impl FnMut() -> Result<R, String>,
    mut discard: impl FnMut(R) -> Result<(), String>,
) -> Result<(R, Times), String> {
    let mut times = Times::default();
    let mut rig = None;
    for _ in 0..count.max(1) {
        if let Some(old) = rig.take() {
            discard(old)?;
        }
        let before = sample();
        let t0 = Instant::now();
        rig = Some(setup()?);
        let ns = t0.elapsed().as_nanos() as f64;
        times.push(ns, host::factor(&[before, sample()]));
    }
    Ok((rig.expect("at least one set-up ran"), times))
}

/// One `--trace 0` run's operations.
struct Measured {
    setup: Times,
    work_per_op: usize,
    ops: Times,
    latency: Times,
    freshness: Times,
}

/// The `--trace 0` run: set up several times, measure for `seconds`, check.
/// Times are reported at reference host speed (`host.rs`).
fn end_to_end(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let mut out = Outcome::default();
    let seed = args.seed;
    let m = match args.workload {
        Workload::BuildOptimal => {
            let ((inp, reference), setup) = timed_setups(
                sizes.setups,
                host::sample,
                || {
                    let inp = build_optimal::inputs(seed, sizes);
                    let reference = build_optimal::round(&inp, &mut Tracer::new(false), 0, true)?;
                    Ok((inp, reference))
                },
                |_| Ok(()),
            )?;
            for b in &reference.builds {
                println!("fingerprint {} {:016x}", b.method, b.fingerprint);
            }
            let (mut rounds, mut sap0) = (Times::default(), Times::default());
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < args.seconds || rounds.is_empty() {
                out.attempted += 1;
                let r = build_optimal::round(&inp, &mut off, out.attempted, false)?;
                build_optimal::matches(&reference, &r)?;
                rounds.push(r.ns, r.scaled_ns / r.ns);
                let b = &r.builds[0];
                sap0.push(b.ns, b.scaled_ns / b.ns);
            }
            Measured {
                setup,
                work_per_op: build_optimal::METHODS.len(),
                latency: rounds.clone(),
                ops: rounds,
                freshness: sap0,
            }
        }
        Workload::ServeRead => {
            let traffic = serve_read::traffic(seed, sizes);
            // The column's initial build, the bulk of the set-up, runs on
            // the client's CPU.
            let (rig, setup) = timed_setups(
                sizes.setups,
                host::sample,
                || serve_read::setup(seed, sizes),
                serve_read::Rig::teardown,
            )?;
            warm_serve(&rig, &traffic, sizes)?;
            let rtt = serve_read::measure(&rig, &traffic, args.seconds, 0, &mut off)?;
            rig.teardown()?;
            out.attempted = rtt.len() as u64;
            // Nothing is ever stale on a read-only column: an answer is
            // fresh the moment it arrives.
            Measured {
                setup,
                work_per_op: sizes.batch,
                ops: rtt.clone(),
                latency: rtt.clone(),
                freshness: rtt,
            }
        }
        Workload::IngestFresh => {
            // The column is registered, and built, on the worker's CPU.
            let (mut rig, setup) = timed_setups(
                sizes.setups,
                || cpu::on_worker_cpu(host::sample),
                || ingest_fresh::setup(seed, sizes),
                |r| r.finish(),
            )?;
            for i in 0..sizes.warmup_ops {
                rig.op(&mut off, i as u64)?;
            }
            let (mut ops, mut ack, mut fresh) =
                (Times::default(), Times::default(), Times::default());
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < args.seconds || ops.is_empty() {
                out.attempted += 1;
                let op = rig.op(&mut off, out.attempted)?;
                ops.push(op.total_ns(), op.scaled_total_ns() / op.total_ns());
                ack.push(op.ack_ns, op.client_factor);
                fresh.push(op.fresh_ns, op.worker_factor);
            }
            rig.finish()?;
            Measured {
                setup,
                work_per_op: sizes.deltas_per_op,
                ops,
                latency: ack,
                freshness: fresh,
            }
        }
    };
    push_throughput(&mut out, m.work_per_op, &m.ops);
    push_latency(&mut out, "latency", &m.latency);
    push_latency(&mut out, "freshness", &m.freshness);
    println!("setup as measured: {:.6} s", median(&m.setup.raw) / 1e9);
    out.push("setup_s", median(&m.setup.scaled) / 1e9, "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(out)
}

fn warm_serve(
    rig: &serve_read::Rig,
    traffic: &serve_read::Traffic,
    sizes: &Sizes,
) -> Result<(), String> {
    let client = &rig.front().client;
    client.ping().map_err(|e| e.to_string())?;
    for ranges in traffic.batches.iter().cycle().take(sizes.warmup_batches) {
        client
            .estimate_batch(serve_read::COLUMN, ranges.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Where traces and the on-disk journal probe go, inside the checkout.
const SCRATCH: &str = ".perfbench";

/// The `--trace 1` run. The workload's own loop runs half its time with
/// tracing off and half with it on (their difference is the tracing
/// overhead). Then every workload runs a short traced phase and its
/// fixed-size counted phase twice (the counters must repeat exactly),
/// and the layer probes run.
fn traced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let seed = args.seed;
    let half = args.seconds / 2.0;
    let scratch = Path::new(SCRATCH);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let mut tracer = Tracer::new(false);
    let mut out = Outcome::default();
    let w = args.workload;

    // Build lineup: the reference round is traced whichever the workload.
    let inp = build_optimal::inputs(seed, sizes);
    tracer.set_on(true);
    let reference = build_optimal::round(&inp, &mut tracer, 0, true)?;
    if w == Workload::BuildOptimal {
        let mut phases = [Vec::new(), Vec::new()];
        for (on, phase) in [false, true].into_iter().zip(&mut phases) {
            tracer.set_on(on);
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < half || phase.is_empty() {
                out.attempted += 1;
                let r = build_optimal::round(&inp, &mut tracer, out.attempted, false)?;
                build_optimal::matches(&reference, &r)?;
                phase.push(r.scaled_ns);
            }
        }
        push_overhead(&mut out, &phases);
    }
    tracer.set_on(true);
    let mut passes = [Counters::default(), Counters::default()];
    for c in &mut passes {
        build_optimal::counted(&inp, &reference, &mut tracer, c)?;
    }
    build_optimal::probes_layer(&inp, &reference, &mut tracer, sizes.probe_calls, seed);

    // Serving: the measured loop with its codec/server decomposition.
    let traffic = serve_read::traffic(seed, sizes);
    let rig = serve_read::setup(seed, sizes)?;
    warm_serve(&rig, &traffic, sizes)?;
    if w == Workload::ServeRead {
        let mut phases = [Vec::new(), Vec::new()];
        for (on, phase) in [false, true].into_iter().zip(&mut phases) {
            tracer.set_on(on);
            let first = out.attempted;
            let s = serve_read::measure(&rig, &traffic, half, first, &mut tracer)?;
            out.attempted += s.len() as u64;
            *phase = s.scaled;
        }
        push_overhead(&mut out, &phases);
    } else {
        serve_read::measure(&rig, &traffic, sizes.side_seconds, 0, &mut tracer)?;
    }
    for c in &mut passes {
        serve_read::counted(&rig, &traffic, sizes, c)?;
    }
    rig.teardown()?;
    serve_read::cache_probes(&mut tracer, sizes.batch);

    // Ingest: update acknowledgements, freshness, persists.
    let mut rig = ingest_fresh::setup(seed, sizes)?;
    tracer.set_on(false);
    for i in 0..sizes.warmup_ops {
        rig.op(&mut tracer, i as u64)?;
    }
    if w == Workload::IngestFresh {
        let mut phases = [Vec::new(), Vec::new()];
        for (on, phase) in [false, true].into_iter().zip(&mut phases) {
            tracer.set_on(on);
            let started = Instant::now();
            while started.elapsed().as_secs_f64() < half || phase.is_empty() {
                out.attempted += 1;
                let op = rig.op(&mut tracer, out.attempted)?;
                phase.push(op.scaled_total_ns());
            }
        }
        push_overhead(&mut out, &phases);
    } else {
        tracer.set_on(true);
        for i in 0..sizes.side_ops {
            rig.op(&mut tracer, i as u64)?;
        }
    }
    tracer.set_on(true);
    for c in &mut passes {
        ingest_fresh::counted(&mut rig, sizes.counted_ingest_ops, &mut tracer, c)?;
    }
    rig.drain_persists(&mut tracer);
    rig.finish()?;
    ingest_fresh::probes(seed, sizes, scratch, &mut tracer)?;

    if passes[0] != passes[1] {
        return Err(format!(
            "counters differ between two passes with the same seed: {:?} vs {:?}",
            passes[0], passes[1]
        ));
    }
    layer_metrics(&tracer, &passes[0], &mut out);
    println!("{} spans recorded", tracer.spans().len());
    let path = scratch.join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(out)
}

/// Tracing overhead: the traced half's median operation against the
/// untraced half's, both at reference host speed.
fn push_overhead(out: &mut Outcome, phases: &[Vec<f64>; 2]) {
    let (off, on) = (median(&phases[0]), median(&phases[1]));
    out.push("trace.overhead_pct", (on - off) / off * 100.0, "%");
}

/// Per-layer metrics that are the median per-item time of one span:
/// (metric, span, unit). Times convert from the spans' nanoseconds.
const SPAN_MEDIANS: [(&str, &str, &str); 29] = [
    ("core.window.ns_per_call", "core.window.sap0_cost", "ns"),
    ("hist.dp.loop_ns_per_cell", "hist.dp.table_loop", "ns"),
    ("hist.build_ms.sap0", "hist.build.sap0", "ms"),
    ("hist.build_ms.sap1", "hist.build.sap1", "ms"),
    ("hist.build_ms.a0", "hist.build.a0", "ms"),
    ("hist.build_ms.point_opt", "hist.build.point_opt", "ms"),
    ("hist.build_ms.opt_a", "hist.build.opt_a", "ms"),
    (
        "hist.build_ms.opt_a_rounded",
        "hist.build.opt_a_rounded",
        "ms",
    ),
    (
        "wavelet.build_ms.range_optimal",
        "wavelet.build.range_optimal",
        "ms",
    ),
    (
        "core.estimate.ns_per_query.sap0",
        "core.estimate.sap0",
        "ns",
    ),
    (
        "core.estimate.ns_per_query.sap1",
        "core.estimate.sap1",
        "ns",
    ),
    (
        "core.estimate.ns_per_query.opt_a",
        "core.estimate.opt_a",
        "ns",
    ),
    (
        "api.wire.encode_request_us",
        "api.wire.encode_request",
        "us",
    ),
    (
        "api.wire.decode_request_us",
        "api.wire.decode_request",
        "us",
    ),
    (
        "api.wire.encode_response_us",
        "api.wire.encode_response",
        "us",
    ),
    (
        "api.wire.decode_response_us",
        "api.wire.decode_response",
        "us",
    ),
    ("serve.cache.lookup_hit_ns", "serve.cache.lookup_hit", "ns"),
    (
        "serve.cache.lookup_miss_ns",
        "serve.cache.lookup_miss",
        "ns",
    ),
    ("serve.cache.store_ns", "serve.cache.store", "ns"),
    ("serve.server.batch_us", "serve.server.batch", "us"),
    ("repl.tcp.ping_rtt_us", "repl.tcp.ping", "us"),
    ("catalog.wal.append_us", "catalog.wal.append", "us"),
    (
        "catalog.wal.append_disk_us",
        "catalog.wal.append_disk",
        "us",
    ),
    ("catalog.wal.checkpoint_ms", "catalog.wal.checkpoint", "ms"),
    ("catalog.persist_ms", "catalog.persist", "ms"),
    ("stream.update_us", "stream.update", "us"),
    ("stream.rebuild_ms", "stream.rebuild", "ms"),
    ("core.swap.publish_ns", "core.swap.publish", "ns"),
    ("core.swap.pinned_ns", "core.swap.pinned", "ns"),
];

/// Per-layer metrics that are one exact counter as counted.
const COUNTS: [&str; 12] = [
    "hist.dp.cost_calls",
    "hist.build_cells.sap0",
    "hist.build_cells.sap1",
    "hist.build_cells.a0",
    "hist.build_cells.point_opt",
    "hist.build_cells.opt_a",
    "hist.build_cells.opt_a_rounded",
    "hist.opt_a.states_generated",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.invalidations",
    "stream.rebuilds",
];

fn layer_metrics(t: &Tracer, c: &Counters, out: &mut Outcome) {
    let med = |span: &str| {
        let v = t.ns_per_item(span);
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let from_ns = |unit: &str| match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    };
    for (name, span, unit) in SPAN_MEDIANS {
        out.push(name, med(span) / from_ns(unit), unit);
    }
    for name in COUNTS {
        out.push(name, c.get(name), "count");
    }
    out.push(
        "hist.dp.cost_calls_per_window",
        c.get("hist.dp.cost_calls") / c.get("hist.dp.windows"),
        "ratio",
    );
    out.push(
        "hist.dp.ns_per_cell",
        med("hist.build.sap0") / c.get("hist.build_cells.sap0"),
        "ns",
    );
    out.push(
        "hist.opt_a.states_kept_ratio",
        c.get("hist.opt_a.states_kept") / c.get("hist.opt_a.states_generated"),
        "ratio",
    );
    let ranges = c.get("api.wire.ranges");
    out.push(
        "api.wire.request_bytes_per_range",
        c.get("api.wire.request_bytes") / ranges,
        "bytes",
    );
    out.push(
        "api.wire.response_bytes_per_range",
        c.get("api.wire.response_bytes") / ranges,
        "bytes",
    );
    let (hits, misses) = (c.get("serve.cache.hits"), c.get("serve.cache.misses"));
    out.push("serve.cache.hit_ratio", hits / (hits + misses), "ratio");
    out.push("repl.tcp.residual_us", tcp_residual_ns(t) / 1e3, "us");
}

/// Median over traced batches of the TCP round trip minus the parts the
/// in-memory replay of the same batch timed: client encode, the server,
/// client decode. What is left is TCP and scheduling.
fn tcp_residual_ns(t: &Tracer) -> f64 {
    let by_request = |name: &str| -> HashMap<u64, f64> {
        t.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.request, (s.end_ns - s.start_ns) as f64))
            .collect()
    };
    let rtt = by_request("serve.batch_rtt");
    let parts = [
        "api.wire.encode_request",
        "serve.server.batch",
        "api.wire.decode_response",
    ]
    .map(by_request);
    let residuals: Vec<f64> = rtt
        .iter()
        .filter_map(|(r, whole)| {
            let mut left = *whole;
            for p in &parts {
                left -= p.get(r)?;
            }
            Some(left)
        })
        .collect();
    if residuals.is_empty() {
        f64::NAN
    } else {
        median(&residuals)
    }
}

fn json(correct: bool, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} cpus {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        traced(&args, &sizes)
    } else {
        end_to_end(&args, &sizes)
    };
    let (correct, out) = match result {
        Ok(out) => match out.metrics.iter().find(|m| !m.value.is_finite()) {
            None => (true, out),
            Some(m) => {
                eprintln!("perfbench: metric {} was not measured", m.name);
                (false, out)
            }
        },
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            let out = Outcome {
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            };
            (false, out)
        }
    };
    for m in &out.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let mut shown = out;
    if !correct {
        shown.metrics.retain(|m| m.value.is_finite());
    }
    println!("{}", json(correct, &shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
