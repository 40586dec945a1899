//! `serve_read`: read-only traffic over loopback TCP from one client.
//! Each operation is one batch of ranges against one SAP0 column; range
//! popularity is Zipf(1.0) over a fixed universe of random ranges, so the
//! server's answer cache takes most lookups and every batch still runs
//! the miss path.

use std::hint::black_box;
use std::time::Instant;

use synoptic_api::wire::{
    decode_request, decode_response, encode_request, encode_response, QueryBatch, Request, Response,
};
use synoptic_core::rng::Rng;
use synoptic_core::RangeQuery;
use synoptic_data::workload::random_ranges;
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_hist::HistogramMethod;
use synoptic_serve::AnswerCache;
use synoptic_stream::{ColumnBuild, ColumnHandle, MaintainedPool, RebuildConfig, RebuildPolicy};

use crate::cpu;
use crate::front::{Front, MemLink};
use crate::host::{self, Times};
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Sizes};

pub const COLUMN: &str = "price";

/// A batch group is scaled by the samples this many groups either side
/// of it, and its own two: nine samples over about 180 ms. One sample
/// varies by about 20 % on its own, and the host's speed states last
/// longer than that window.
const SAMPLE_REACH: usize = 4;

/// The generated load: a fixed pool of batches the client cycles through.
pub struct Traffic {
    pub batches: Vec<Vec<RangeQuery>>,
}

/// Draws `batch_pool` batches of `batch` ranges. Popularity is Zipf(1.0)
/// over a universe of `universe` uniformly random ranges.
pub fn traffic(seed: u64, sizes: &Sizes) -> Traffic {
    let universe = random_ranges(sizes.serve_n, sizes.universe, seed.wrapping_add(2));
    let mut cdf: Vec<f64> = Vec::with_capacity(universe.len());
    let mut acc = 0.0;
    for k in 1..=universe.len() {
        acc += 1.0 / k as f64;
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed.wrapping_add(3));
    let batches = (0..sizes.batch_pool)
        .map(|_| {
            (0..sizes.batch)
                .map(|_| {
                    let u = rng.f64() * acc;
                    let k = cdf.partition_point(|&c| c < u).min(universe.len() - 1);
                    universe[k]
                })
                .collect()
        })
        .collect();
    Traffic { batches }
}

/// The served column and its front end.
pub struct Rig {
    pub handle: ColumnHandle,
    pub front: Option<Front>,
    _pool: MaintainedPool,
}

/// Data generation, the column's initial SAP0 build, bind and connect.
pub fn setup(seed: u64, sizes: &Sizes) -> Result<Rig, String> {
    let values = paper_dataset(&ZipfConfig {
        n: sizes.serve_n,
        total_mass: 1e6,
        permute: true,
        seed: seed.wrapping_add(4),
        ..ZipfConfig::default()
    })
    .into_values();
    let pool = cpu::worker_apart(|| MaintainedPool::new(1));
    let handle = pool
        .add_column(
            COLUMN,
            &values,
            ColumnBuild::Anytime {
                method: HistogramMethod::Sap0,
                budget_words: sizes.serve_words,
            },
            RebuildConfig::new(RebuildPolicy::Manual),
        )
        .map_err(|e| e.to_string())?;
    let front = Front::start(&handle)?;
    Ok(Rig {
        handle,
        front: Some(front),
        _pool: pool,
    })
}

impl Rig {
    pub fn front(&self) -> &Front {
        self.front
            .as_ref()
            .expect("the front end lives as long as the rig")
    }

    pub fn teardown(mut self) -> Result<(), String> {
        match self.front.take() {
            Some(f) => f.stop(),
            None => Ok(()),
        }
    }
}

/// Sends batches until `seconds` have passed and returns their round
/// trips. Every 16th batch is compared bit for bit with the column's own
/// estimator in-process, and the host's speed is sampled; the batches
/// between two samples are scaled by the samples nearest them (see
/// [`host::scale_groups`]). With tracing on, each batch is also replayed
/// through the codec and `Server::handle_transport` over an in-memory
/// link, so the round trip splits into encode, server, decode and a TCP
/// residual.
pub fn measure(
    rig: &Rig,
    traffic: &Traffic,
    seconds: f64,
    first_request: u64,
    tracer: &mut Tracer,
) -> Result<Times, String> {
    let reference = rig.handle.estimator();
    let client = &rig.front().client;
    let mut link = tracer.is_on().then(|| MemLink::open(&rig.front().server));
    let mut samples = vec![host::sample()];
    let mut groups: Vec<Vec<f64>> = vec![Vec::new()];
    let started = Instant::now();
    let mut request = first_request;
    // Ends on a sample, so every group has one on either side.
    while started.elapsed().as_secs_f64() < seconds || groups.last().is_some_and(|g| !g.is_empty())
    {
        let ranges = &traffic.batches[request as usize % traffic.batches.len()];
        let owned = ranges.clone();
        let t0 = Instant::now();
        let answer = client
            .estimate_batch(COLUMN, owned)
            .map_err(|e| format!("batch {request}: {e}"))?;
        let t1 = Instant::now();
        tracer.record("serve.batch_rtt", ROOT, request, (t0, t1), 1);
        if let Some(group) = groups.last_mut() {
            group.push((t1 - t0).as_nanos() as f64);
        }
        if answer.values.len() != ranges.len() || answer.generation != 0 {
            return Err(format!("batch {request}: malformed answer"));
        }
        if request % 16 == 0 {
            for (q, v) in ranges.iter().zip(&answer.values) {
                if v.to_bits() != reference.estimate(*q).to_bits() {
                    return Err(format!(
                        "batch {request}: served {q:?} = {v} differs in-process"
                    ));
                }
            }
            samples.push(host::sample());
            groups.push(Vec::new());
        }
        if let Some(link) = link.as_mut() {
            decompose(link, ranges, &answer.values, request, tracer)?;
            tracer
                .timed("repl.tcp.ping", ROOT, request, 1, || client.ping())
                .map_err(|e| e.to_string())?;
        }
        request += 1;
    }
    groups.pop();
    Ok(host::scale_groups(&samples, &groups, SAMPLE_REACH))
}

/// Replays one batch: client encode, the server over an in-memory link,
/// client decode, and (for the layer metrics) the server-side decode and
/// encode on the same frames.
fn decompose(
    link: &mut MemLink,
    ranges: &[RangeQuery],
    tcp_values: &[f64],
    request: u64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let parent = tracer.begin("serve.replay", ROOT, request);
    let req = Request::EstimateBatch(QueryBatch::new(COLUMN, ranges.to_vec()));
    let frame = tracer.timed("api.wire.encode_request", parent, request, 1, || {
        encode_request(&req)
    });
    let decoded = tracer.timed("api.wire.decode_request", parent, request, 1, || {
        decode_request(&frame)
    });
    if decoded.map_err(|e| e.to_string())? != req {
        return Err("request frame does not round-trip".into());
    }
    let (resp_frame, stamp) = link.call(&frame)?;
    tracer.record("serve.server.batch", parent, request, stamp, 1);
    let resp = tracer.timed("api.wire.decode_response", parent, request, 1, || {
        decode_response(&resp_frame)
    });
    let resp = resp.map_err(|e| e.to_string())?;
    let again = tracer.timed("api.wire.encode_response", parent, request, 1, || {
        encode_response(&resp)
    });
    tracer.end(parent, 1);
    let Response::Estimates(answer) = resp else {
        return Err(format!("in-memory replay answered {resp:?}"));
    };
    if again != resp_frame
        || answer
            .values
            .iter()
            .map(|v| v.to_bits())
            .ne(tcp_values.iter().map(|v| v.to_bits()))
    {
        return Err(format!(
            "batch {request}: in-memory replay differs from TCP"
        ));
    }
    Ok(())
}

/// A fixed prefix of the traffic on a fresh front end (so a fresh cache):
/// exact cache and admission counts, and wire bytes per range.
pub fn counted(
    rig: &Rig,
    traffic: &Traffic,
    sizes: &Sizes,
    counters: &mut Counters,
) -> Result<(), String> {
    let front = Front::start(&rig.handle)?;
    for ranges in traffic.batches.iter().cycle().take(sizes.counted_batches) {
        front
            .client
            .estimate_batch(COLUMN, ranges.clone())
            .map_err(|e| e.to_string())?;
    }
    let stats = front.client.stats(COLUMN).map_err(|e| e.to_string())?;
    front.stop()?;
    counters.set("serve.cache.hits", stats.cache_hits);
    counters.set("serve.cache.misses", stats.cache_misses);
    if stats.refused + stats.degraded + stats.deadline_sheds != 0 {
        return Err(format!(
            "the server refused {}, degraded {} and shed {} requests",
            stats.refused, stats.degraded, stats.deadline_sheds
        ));
    }

    let first = &traffic.batches[0];
    let req = encode_request(&Request::EstimateBatch(QueryBatch::new(
        COLUMN,
        first.clone(),
    )));
    let answer = rig
        .front()
        .client
        .estimate_batch(COLUMN, first.clone())
        .map_err(|e| e.to_string())?;
    let resp = encode_response(&Response::Estimates(answer));
    counters.set("api.wire.request_bytes", req.len() as u64);
    counters.set("api.wire.response_bytes", resp.len() as u64);
    counters.set("api.wire.ranges", first.len() as u64);
    Ok(())
}

/// Per-operation probes of the answer cache on its own.
pub fn cache_probes(tracer: &mut Tracer, capacity: usize) {
    let keys: Vec<(usize, usize)> = (0..capacity).map(|i| (i, i + 7)).collect();
    for rep in 0..5 {
        let cache = AnswerCache::new(capacity);
        tracer.timed("serve.cache.store", ROOT, rep, keys.len() as u64, || {
            for &(lo, hi) in &keys {
                cache.store(1, lo, hi, lo as f64);
            }
        });
        tracer.timed(
            "serve.cache.lookup_hit",
            ROOT,
            rep,
            keys.len() as u64,
            || {
                for &(lo, hi) in &keys {
                    black_box(cache.lookup(1, black_box(lo), hi));
                }
            },
        );
        tracer.timed(
            "serve.cache.lookup_miss",
            ROOT,
            rep,
            keys.len() as u64,
            || {
                for &(lo, hi) in &keys {
                    black_box(cache.lookup(1, black_box(hi), lo));
                }
            },
        );
    }
}
