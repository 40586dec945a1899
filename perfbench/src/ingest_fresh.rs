//! `ingest_fresh`: writes beside reads on one TCP connection. The column
//! is a journaled SAP0 column wired like `synoptic maintain --wal-dir
//! --catalog`: `add_column_durable`, a durable-catalog persist hook, fsync
//! on every journal record, and a rebuild every `deltas_per_op` updates.
//! Each operation sends one update batch, which schedules exactly one
//! rebuild, probes at a fixed cadence until the served generation moves
//! past it, then waits for the rebuild's persist and checkpoint to end.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use synoptic_catalog::wal::{ColumnWal, WalConfig};
use synoptic_catalog::{Catalog, ColumnEntry, DurableCatalog, FsStorage, PersistentSynopsis};
use synoptic_core::rng::Rng;
use synoptic_core::{HotSwap, PrefixSums, RangeEstimator, RangeQuery};
use synoptic_data::zipf::{paper_dataset, ZipfConfig};
use synoptic_hist::{build, HistogramMethod};
use synoptic_stream::{
    recover, ColumnBuild, ColumnHandle, DurabilityConfig, DurablePersistFn, MaintainedPool,
    RebuildConfig, RebuildPolicy, SharedStorage,
};

use crate::cpu;
use crate::front::Front;
use crate::host;
use crate::memstore::MemStorage;
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Sizes};

pub const COLUMN: &str = "orders";
const CATALOG_DIR: &str = "catalog";
const WAL_DIR: &str = "wal";

/// Start and end of every persist-hook call, filled on the worker thread.
type PersistLog = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// A registered journaled column: its handle, its pool, its catalog and
/// its persist log.
type DurableColumn = (
    ColumnHandle,
    MaintainedPool,
    DurableCatalog<Arc<MemStorage>>,
    PersistLog,
);

pub struct Rig {
    handle: ColumnHandle,
    front: Option<Front>,
    pool: Option<MaintainedPool>,
    store: DurableCatalog<Arc<MemStorage>>,
    persists: PersistLog,
    /// Exact frequencies as acknowledged by the server.
    mirror: Vec<i64>,
    initial_total: i128,
    acked_total: i128,
    rng: Rng,
    probe: Vec<RangeQuery>,
    words: usize,
    deltas_per_op: usize,
    probe_every: Duration,
}

fn frequencies(seed: u64, n: usize) -> Vec<i64> {
    paper_dataset(&ZipfConfig {
        n,
        total_mass: 1e6,
        permute: true,
        seed,
        ..ZipfConfig::default()
    })
    .into_values()
}

fn entry(values: &[i64]) -> ColumnEntry {
    ColumnEntry {
        n: values.len(),
        total_rows: values.iter().sum(),
        synopsis: PersistentSynopsis::from_frequencies(values),
    }
}

/// Moves the persist-hook timings logged so far into spans.
fn drain_persists(log: &PersistLog, tracer: &mut Tracer) {
    let stamps = std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));
    for (i, stamp) in stamps.into_iter().enumerate() {
        tracer.record("catalog.persist", ROOT, i as u64, stamp, 1);
    }
}

/// A journaled SAP0 column in a fresh in-memory catalog and journal,
/// registered on a one-worker pool.
fn durable_column(
    values: &[i64],
    words: usize,
    policy: RebuildPolicy,
) -> Result<DurableColumn, String> {
    let e = |e: synoptic_core::SynopticError| e.to_string();
    let storage = Arc::new(MemStorage::default());
    let store = DurableCatalog::open(CATALOG_DIR, Arc::clone(&storage)).map_err(e)?;
    let mut catalog = Catalog::new();
    catalog.insert(COLUMN, entry(values));
    catalog.set_wal_mark(COLUMN, 0);
    let generation = store.save(&catalog).map_err(e)?;
    let persist_store = DurableCatalog::open(CATALOG_DIR, Arc::clone(&storage)).map_err(e)?;
    let persists: PersistLog = Arc::default();
    let log = Arc::clone(&persists);
    let hook: DurablePersistFn = Box::new(move |snap| {
        let t0 = Instant::now();
        let mut cat = persist_store.load()?;
        cat.insert(COLUMN, entry(snap.values));
        cat.set_wal_mark(COLUMN, snap.wal_mark);
        let committed = persist_store.save(&cat);
        let t1 = Instant::now();
        log.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((t0, t1));
        committed
    });
    let pool = MaintainedPool::new(1);
    let shared: SharedStorage = storage;
    let handle = pool
        .add_column_durable(
            COLUMN,
            values,
            ColumnBuild::Anytime {
                method: HistogramMethod::Sap0,
                budget_words: words,
            },
            RebuildConfig::new(policy),
            shared,
            &DurabilityConfig::journaled(WAL_DIR),
            generation,
            Some(hook),
        )
        .map_err(e)?;
    Ok((handle, pool, store, persists))
}

/// Data generation, catalog and journal creation, the initial build,
/// bind and connect.
pub fn setup(seed: u64, sizes: &Sizes) -> Result<Rig, String> {
    let n = sizes.ingest_n;
    let values = frequencies(seed.wrapping_add(5), n);
    let policy = RebuildPolicy::EveryKUpdates(sizes.deltas_per_op as u64);
    let (handle, pool, store, persists) =
        cpu::worker_apart(|| durable_column(&values, sizes.ingest_words, policy))?;
    let front = Front::start(&handle)?;
    handle.quiesce();
    let mut rng = Rng::new(seed.wrapping_add(6));
    let mut probe = vec![RangeQuery { lo: 0, hi: n - 1 }];
    probe.extend((1..sizes.probe_ranges).map(|_| {
        let (a, b) = (rng.usize_in(0, n), rng.usize_in(0, n));
        RangeQuery {
            lo: a.min(b),
            hi: a.max(b),
        }
    }));
    let initial_total = values.iter().map(|&v| v as i128).sum();
    Ok(Rig {
        handle,
        front: Some(front),
        pool: Some(pool),
        store,
        persists,
        mirror: values,
        initial_total,
        acked_total: 0,
        rng,
        probe,
        words: sizes.ingest_words,
        deltas_per_op: sizes.deltas_per_op,
        probe_every: sizes.probe_every,
    })
}

/// One operation's timings (ns), and the factors that take them to
/// reference host speed: the acknowledgement runs on the client's CPU,
/// the rebuild and its persist on the worker's.
pub struct Op {
    pub ack_ns: f64,
    pub fresh_ns: f64,
    pub settle_ns: f64,
    pub client_factor: f64,
    pub worker_factor: f64,
}

impl Op {
    /// From sending the update to the end of its rebuild's job.
    pub fn total_ns(&self) -> f64 {
        self.ack_ns + self.fresh_ns + self.settle_ns
    }

    /// [`Op::total_ns`] at reference host speed.
    pub fn scaled_total_ns(&self) -> f64 {
        self.ack_ns * self.client_factor + (self.fresh_ns + self.settle_ns) * self.worker_factor
    }
}

impl Rig {
    fn client(&self) -> &synoptic_serve::Client {
        &self
            .front
            .as_ref()
            .expect("front end is up while measuring")
            .client
    }

    /// A probe batch; returns the generation it was answered at and its
    /// values.
    fn probe(&self) -> Result<(u64, Vec<f64>), String> {
        let a = self
            .client()
            .estimate_batch(COLUMN, self.probe.clone())
            .map_err(|e| format!("probe: {e}"))?;
        Ok((a.generation, a.values))
    }

    /// Probe, update, probe at a fixed cadence until the served generation
    /// includes the update, then wait until the rebuild's job has ended.
    /// The host's speed is sampled on the client's CPU around the
    /// acknowledgement and on the worker's around the whole operation.
    pub fn op(&mut self, tracer: &mut Tracer, request: u64) -> Result<Op, String> {
        let worker_before = cpu::on_worker_cpu(host::sample);
        let op_span = tracer.begin("ingest.op", ROOT, request);
        let (before, _) = tracer.timed("ingest.pre_probe", op_span, request, 1, || self.probe())?;
        let n = self.mirror.len();
        let deltas: Vec<(u64, i64)> = (0..self.deltas_per_op)
            .map(|_| (self.rng.usize_in(0, n) as u64, self.rng.i64_in(1, 8)))
            .collect();
        let client_before = host::sample();
        let t0 = Instant::now();
        let acked = self.client().update(COLUMN, deltas.clone());
        let t1 = Instant::now();
        let client_after = host::sample();
        tracer.record(
            "ingest.update_ack",
            op_span,
            request,
            (t0, t1),
            deltas.len() as u64,
        );
        let (applied, scheduled) = acked.map_err(|e| format!("update {request}: {e}"))?;
        if applied != deltas.len() as u64 || scheduled != 1 {
            return Err(format!(
                "update {request}: applied {applied}, scheduled {scheduled} rebuilds"
            ));
        }
        for &(i, d) in &deltas {
            self.mirror[i as usize] += d;
            self.acked_total += d as i128;
        }
        let fresh_span = tracer.begin("ingest.freshness", op_span, request);
        let mut slot = 0u32;
        let (generation, values, fresh_at) = loop {
            let due = t1 + self.probe_every * slot;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (g, v) = tracer.timed("ingest.probe", fresh_span, request, 1, || self.probe())?;
            let at = Instant::now();
            if g > before {
                break (g, v, at);
            }
            if at - t1 > Duration::from_secs(30) {
                return Err(format!("update {request}: no fresh answer after 30 s"));
            }
            slot += 1;
        };
        tracer.end(fresh_span, 1);
        // The rebuild is served from the hot swap on, but its job goes on
        // to persist the catalog and checkpoint the journal. Waiting for
        // it puts that work in the operation, and the next update then
        // finds no job in flight and schedules its own rebuild.
        self.handle.quiesce();
        let settled = Instant::now();
        tracer.record("ingest.settle", op_span, request, (fresh_at, settled), 1);
        tracer.end(op_span, 1);
        let worker_after = cpu::on_worker_cpu(host::sample);
        // The fresh answer must come from the synopsis now serving, and
        // that synopsis must have been built over the acknowledged data.
        let serving = self.handle.estimator();
        if self.handle.serving_generation() != generation
            || values
                .iter()
                .zip(&self.probe)
                .any(|(v, q)| v.to_bits() != serving.estimate(*q).to_bits())
        {
            return Err(format!("update {request}: fresh answer differs in-process"));
        }
        // Every eighth operation, rebuild in-process from the acknowledged
        // data: the served answer must match it bit for bit.
        if request % 8 == 0 {
            let ps = PrefixSums::from_values(&self.mirror);
            let own = build(HistogramMethod::Sap0, &self.mirror, &ps, self.words)
                .map_err(|e| e.to_string())?;
            if values
                .iter()
                .zip(&self.probe)
                .any(|(v, q)| v.to_bits() != own.estimate(*q).to_bits())
            {
                return Err(format!(
                    "update {request}: fresh answer is not the synopsis of the acknowledged data"
                ));
            }
        }
        Ok(Op {
            ack_ns: (t1 - t0).as_nanos() as f64,
            fresh_ns: (fresh_at - t1).as_nanos() as f64,
            settle_ns: (settled - fresh_at).as_nanos() as f64,
            client_factor: host::factor(&[client_before, client_after]),
            worker_factor: host::factor(&[worker_before, worker_after]),
        })
    }

    /// Moves the persist-hook timings into spans.
    pub fn drain_persists(&self, tracer: &mut Tracer) {
        drain_persists(&self.persists, tracer);
    }

    /// Final checks: the exact total matches every acknowledged delta, and
    /// after quiesce and shutdown, recovery from the run's catalog and
    /// journal reproduces the acknowledged frequencies exactly.
    pub fn finish(mut self) -> Result<(), String> {
        self.handle.quiesce();
        let full = RangeQuery {
            lo: 0,
            hi: self.mirror.len() - 1,
        };
        let exact = self.handle.exact(full);
        if exact != self.initial_total + self.acked_total {
            return Err(format!(
                "exact total {exact} != initial {} + acknowledged {}",
                self.initial_total, self.acked_total
            ));
        }
        if let Some(front) = self.front.take() {
            front.stop()?;
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        let Rig {
            handle,
            store,
            mirror,
            ..
        } = self;
        drop(handle);
        let report = recover(&store, WAL_DIR).map_err(|e| format!("recover: {e}"))?;
        match report.column(COLUMN) {
            Some(c) if c.values == mirror => Ok(()),
            Some(_) => Err("recovered frequencies differ from the acknowledged ones".into()),
            None => Err("recovery did not reconstruct the column".into()),
        }
    }
}

/// A fixed number of operations on a fresh front end (so a fresh cache):
/// exact rebuild, coalesce and invalidation counts.
pub fn counted(
    rig: &mut Rig,
    ops: usize,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let measured = rig.front.take();
    let result = (|| {
        rig.front = Some(Front::start(&rig.handle)?);
        let before = rig.handle.stats();
        for i in 0..ops {
            rig.op(tracer, i as u64)?;
        }
        let after = rig.handle.stats();
        let served = rig.client().stats(COLUMN).map_err(|e| e.to_string())?;
        counters.set("stream.rebuilds", after.rebuilds - before.rebuilds);
        let (coalesced, failed, retries) = (
            after.coalesced - before.coalesced,
            after.failed_rebuilds - before.failed_rebuilds,
            after.persist_retries - before.persist_retries,
        );
        if coalesced + failed + retries != 0 {
            return Err(format!(
                "{coalesced} updates coalesced, {failed} rebuilds failed, \
                 {retries} persists retried"
            ));
        }
        counters.set("serve.cache.invalidations", served.cache_invalidations);
        Ok(())
    })();
    if let Some(front) = std::mem::replace(&mut rig.front, measured) {
        front.stop()?;
    }
    result
}

/// Probes of the journal, the ingest path, a rebuild and the hot-swap
/// cell, each through its public functions.
pub fn probes(seed: u64, sizes: &Sizes, scratch: &Path, tracer: &mut Tracer) -> Result<(), String> {
    let e = |e: synoptic_core::SynopticError| e.to_string();
    let k = sizes.deltas_per_op as u64;
    let mut rng = Rng::new(seed.wrapping_add(7));
    let n = sizes.ingest_n;

    // Journal appends (fsync on every record) and checkpoints, in memory.
    let wal = ColumnWal::open(
        Arc::new(MemStorage::default()),
        WAL_DIR,
        COLUMN,
        1,
        WalConfig::default(),
    )
    .map_err(e)?;
    for batch in 0..64u64 {
        tracer.timed(
            "catalog.wal.append",
            ROOT,
            batch,
            k,
            || -> Result<(), String> {
                for _ in 0..k {
                    wal.append(rng.usize_in(0, n) as u64, 1).map_err(e)?;
                }
                Ok(())
            },
        )?;
        let mark = wal.pending_mark();
        tracer
            .timed("catalog.wal.checkpoint", ROOT, batch, 1, || {
                wal.checkpoint(mark, batch + 2)
            })
            .map_err(e)?;
    }

    // The same appends on the real filesystem inside the checkout.
    let dir: PathBuf = scratch.join(format!("wal-disk-{}", std::process::id()));
    let disk =
        ColumnWal::open(FsStorage::new(), &dir, COLUMN, 1, WalConfig::default()).map_err(e)?;
    let disk_result = (0..sizes.disk_appends as u64).try_for_each(|i| {
        tracer.timed("catalog.wal.append_disk", ROOT, i, 1, || {
            disk.append(i % n as u64, 1).map(drop)
        })
    });
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
    disk_result.map_err(e)?;

    // Ingest and rebuild through a pool handle with a manual policy.
    let values = frequencies(seed.wrapping_add(8), n);
    let (handle, pool, _store, persists) =
        durable_column(&values, sizes.ingest_words, RebuildPolicy::Manual)?;
    for batch in 0..16u64 {
        tracer.timed("stream.update", ROOT, batch, k, || -> Result<(), String> {
            for _ in 0..k {
                handle.update(rng.usize_in(0, n), 1).map_err(e)?;
            }
            Ok(())
        })?;
        if batch % 4 == 3 {
            tracer.timed(
                "stream.rebuild",
                ROOT,
                batch,
                1,
                || -> Result<(), String> {
                    if !handle.request_rebuild().map_err(e)? {
                        return Err("rebuild was not scheduled".into());
                    }
                    handle.quiesce();
                    Ok(())
                },
            )?;
        }
    }
    if handle.stats().rebuilds != 4 || handle.last_error().is_some() {
        return Err(format!("probe column rebuilds: {:?}", handle.stats()));
    }
    drain_persists(&persists, tracer);

    // Hot-swap publish and the pinned read a serving batch takes.
    let est = handle.estimator();
    let cell: Arc<HotSwap<dyn RangeEstimator>> = Arc::new(HotSwap::new(Arc::clone(&est)));
    let mut reader = cell.reader();
    let swaps = 4096u64;
    for rep in 0..5 {
        tracer.timed("core.swap.publish", ROOT, rep, swaps, || {
            for _ in 0..swaps {
                black_box(cell.swap(Arc::clone(&est)));
            }
        });
        tracer.timed("core.swap.pinned", ROOT, rep, swaps, || {
            for _ in 0..swaps {
                black_box(reader.pinned().0);
            }
        });
    }
    drop(pool);
    Ok(())
}
