//! Seeded equivalence of the maintenance loop against a frozen trace.
//!
//! Each scenario drives one column through a one-worker
//! [`MaintainedPool`], quiescing after every scheduled job so that each
//! rebuild, persist and checkpoint lands before the next update — the
//! synchronous order of an embedded, single-threaded rebuild loop. After
//! every step the trace records every [`RebuildStats`] field, the
//! `last_error` variant, the exact full-range sum and the bit pattern of
//! the serving estimate over a fixed query set; the trace is folded into
//! a 64-bit digest and compared against [`GOLDEN`]. The golden digests
//! were recorded from the embedded single-threaded rebuild loop that the
//! pool replaced, driven in lockstep with this pool: the two agreed at
//! every step of every scenario.
//!
//! The scenarios cover the three rebuild policies (with manual rebuild
//! requests mixed into the stream), builders that fail on a seeded
//! schedule with budget errors and with panics (enough consecutive
//! failures to double the failure cooldown and reset it on success),
//! persist hooks with transient and permanent failures, and journaled
//! columns with a durable hook (whose recovered state is checked against
//! the acknowledged shadow and whose replay count enters the digest).

use std::sync::Arc;
use std::time::Duration;

use synoptic_catalog::{Catalog, ColumnEntry, DurableCatalog, FsStorage, PersistentSynopsis};
use synoptic_core::rng::Rng;
use synoptic_core::{Budget, PrefixSums, RangeEstimator, RangeQuery, Result, SynopticError};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::{
    recover, ColumnBuild, ColumnHandle, DurabilityConfig, DurablePersistFn, MaintainedPool,
    PersistFn, RebuildConfig, RebuildPolicy, RebuildStats,
};

const N: usize = 24;
const COLUMN: &str = "c";

struct Scenario {
    name: &'static str,
    policy: RebuildPolicy,
    /// Seed of the builder's failure schedule; `None` = never fails.
    failing_builds: Option<u64>,
    /// Seed of the persist hook's failure schedule; `None` = no hook
    /// (journaled columns: a durable hook that never fails).
    failing_persists: Option<u64>,
    journaled: bool,
    /// One op in `manual_every` (seeded) is a manual rebuild request
    /// instead of an update; 0 = updates only.
    manual_every: u64,
    seed: u64,
}

#[rustfmt::skip]
fn scenarios() -> Vec<Scenario> {
    let s = |name, policy, failing_builds, failing_persists, journaled, manual_every, seed| {
        Scenario { name, policy, failing_builds, failing_persists, journaled, manual_every, seed }
    };
    use RebuildPolicy::{DriftFraction, EveryKUpdates, Manual};
    vec![
        s("every_k", EveryKUpdates(5), None, None, false, 0, 1),
        s("drift", DriftFraction(0.05), None, None, false, 0, 2),
        s("manual", Manual, None, None, false, 6, 3),
        s("every_k_mixed_manual", EveryKUpdates(7), None, None, false, 11, 4),
        s("every_k_flaky_build", EveryKUpdates(3), Some(5), None, false, 0, 5),
        s("drift_flaky_build", DriftFraction(0.02), Some(6), None, false, 0, 6),
        s("manual_flaky_build", Manual, Some(7), None, false, 4, 7),
        s("every_k_flaky_persist", EveryKUpdates(4), None, Some(8), false, 0, 8),
        s("drift_flaky_both", DriftFraction(0.03), Some(9), Some(10), false, 9, 9),
        s("journaled_every_k", EveryKUpdates(5), None, None, true, 0, 11),
        s("journaled_flaky", EveryKUpdates(4), Some(12), Some(13), true, 13, 12),
        s("journaled_manual", Manual, None, Some(14), true, 5, 14),
    ]
}

/// (scenario, trace digest, final rebuilds, failed rebuilds, persist
/// failures, persist retries).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("every_k", 0xb5b43bcae9fa6d67, 32, 0, 0, 0),
    ("drift", 0xa2c5643e8f6b33ac, 13, 0, 0, 0),
    ("manual", 0x1c1540de83e1501f, 21, 0, 0, 0),
    ("every_k_mixed_manual", 0xba03039f7ef10369, 27, 0, 0, 0),
    ("every_k_flaky_build", 0x2a70f9861fa6dc5a, 26, 20, 0, 0),
    ("drift_flaky_build", 0xb05c1bebf697c826, 10, 16, 0, 0),
    ("manual_flaky_build", 0x95357af210afb2b3, 26, 17, 0, 0),
    ("every_k_flaky_persist", 0x6a4035b948227e1b, 40, 0, 12, 24),
    ("drift_flaky_both", 0x3927b93c90b46e99, 15, 21, 7, 2),
    ("journaled_every_k", 0x00982044e1ec6031, 32, 0, 0, 0),
    ("journaled_flaky", 0xd7bacb744762b7c7, 20, 21, 4, 6),
    ("journaled_manual", 0xf9383dd1366c6d5c, 34, 0, 9, 7),
];

fn initial_values(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    (0..N).map(|_| rng.i64_in(5, 60)).collect()
}

fn queries() -> Vec<RangeQuery> {
    let mut qs = Vec::new();
    for lo in (0..N).step_by(3) {
        for hi in (lo..N).step_by(4) {
            qs.push(RangeQuery::new(lo, hi).unwrap());
        }
    }
    qs
}

/// A SAP0 builder whose rebuilds (never the initial build) fail on the
/// seeded schedule: ~55% of rebuilds fail, as a cell-budget error, a
/// deadline error, or a panic.
fn builder(failing: Option<u64>) -> ColumnBuild {
    let mut schedule = failing.map(Rng::new);
    let mut initial = true;
    ColumnBuild::Custom(Box::new(
        move |_v: &[i64], ps: &PrefixSums, budget: &Budget| {
            if let (false, Some(rng)) = (initial, schedule.as_mut()) {
                match rng.bounded_u64(20) {
                    0..=4 => {
                        return Err(SynopticError::CellBudgetExceeded {
                            used: 99,
                            limit: 10,
                        })
                    }
                    5..=7 => return Err(SynopticError::DeadlineExceeded { elapsed_ms: 1 }),
                    8..=10 => panic!("injected builder panic"),
                    _ => {}
                }
            }
            initial = false;
            Ok(Box::new(build_sap0_with_budget(ps, 4, budget)?) as Box<dyn RangeEstimator>)
        },
    ))
}

/// The next outcome of a persist schedule: `Ok`, a transient `Io` error
/// (retried), or a permanent error (not retried). No schedule never fails.
fn persist_outcome(schedule: &mut Option<Rng>) -> Result<()> {
    match schedule.as_mut().map(|rng| rng.bounded_u64(10)) {
        None | Some(0..=4) => Ok(()),
        Some(5..=7) => Err(SynopticError::Io {
            path: "/dev/flaky".into(),
            detail: "transient".into(),
        }),
        Some(_) => Err(SynopticError::InvalidParameter("read-only store".into())),
    }
}

fn config(sc: &Scenario) -> RebuildConfig {
    let mut config =
        RebuildConfig::new(sc.policy).with_persist_retries(2, Duration::from_micros(1));
    // Short cooldown so a failing builder cycles through doubling and
    // reset many times within one run.
    config.failure_cooldown_updates = 2;
    config
}

/// A journaled column's on-disk home: a catalog committed with the
/// initial frequencies, and a journal directory.
struct Durable {
    root: std::path::PathBuf,
    generation: u64,
}

impl Durable {
    fn new(sc: &Scenario, values: &[i64]) -> Self {
        let root =
            std::env::temp_dir().join(format!("synoptic-equiv-{}-{}", sc.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = DurableCatalog::open(root.join("cat"), FsStorage::new()).unwrap();
        let mut cat = Catalog::new();
        cat.insert(
            COLUMN,
            ColumnEntry {
                n: values.len(),
                total_rows: values.iter().sum(),
                synopsis: PersistentSynopsis::from_frequencies(values),
            },
        );
        let generation = store.save(&cat).unwrap();
        Self { root, generation }
    }

    fn durability(&self) -> DurabilityConfig {
        DurabilityConfig::journaled(self.root.join("wal"))
            .with_segment_bytes(128)
            .with_fsync(synoptic_catalog::wal::FsyncCadence::OnRotate)
    }

    /// The durable hook: fails on the persist schedule, otherwise commits
    /// the snapshot and its WAL mark.
    fn hook(&self, failing: Option<u64>) -> DurablePersistFn {
        let store = DurableCatalog::open(self.root.join("cat"), FsStorage::new()).unwrap();
        let mut schedule = failing.map(Rng::new);
        Box::new(move |snap| {
            persist_outcome(&mut schedule)?;
            let mut cat = store.load()?;
            cat.insert(
                COLUMN,
                ColumnEntry {
                    n: snap.values.len(),
                    total_rows: snap.values.iter().sum(),
                    synopsis: PersistentSynopsis::from_frequencies(snap.values),
                },
            );
            cat.set_wal_mark(COLUMN, snap.wal_mark);
            store.save(&cat)
        })
    }

    /// Recovers the column from disk, checks it against the acknowledged
    /// shadow, and returns the number of journal records replayed.
    fn recover(&self, shadow: &[i64]) -> u64 {
        let store = DurableCatalog::open(self.root.join("cat"), FsStorage::new()).unwrap();
        let report = recover(&store, self.root.join("wal")).unwrap();
        assert_eq!(report.column(COLUMN).unwrap().values, shadow);
        let replayed = report.total_replayed();
        let _ = std::fs::remove_dir_all(&self.root);
        replayed
    }
}

/// A one-worker pool column for the scenario, registered with its
/// persist or durable hook.
fn register(
    sc: &Scenario,
    values: &[i64],
    durable: Option<&Durable>,
) -> (MaintainedPool, ColumnHandle) {
    let pool = MaintainedPool::new(1);
    let build = builder(sc.failing_builds);
    let col = match durable {
        Some(d) => pool
            .add_column_durable(
                COLUMN,
                values,
                build,
                config(sc),
                Arc::new(FsStorage::new()),
                &d.durability(),
                d.generation,
                Some(d.hook(sc.failing_persists)),
            )
            .unwrap(),
        None => {
            let persist: Option<PersistFn> = sc.failing_persists.map(|seed| {
                let mut schedule = Some(Rng::new(seed));
                Box::new(move |_: &dyn RangeEstimator| persist_outcome(&mut schedule)) as PersistFn
            });
            pool.add_column_with_persist(COLUMN, values, build, config(sc), persist)
                .unwrap()
        }
    };
    (pool, col)
}

/// The variant name of an error (`Io`, `BuildPanicked`, …): the trace
/// records variants, not payloads (a panic's text is not part of the
/// contract).
fn variant(err: &SynopticError) -> String {
    format!("{err:?}")
        .chars()
        .take_while(|c| c.is_alphanumeric())
        .collect()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in everything observable about the column after one step.
    fn observe(&mut self, col: &ColumnHandle, qs: &[RangeQuery]) {
        let st = col.stats();
        for w in [
            st.updates,
            st.updates_since_rebuild,
            st.rebuilds,
            st.failed_rebuilds,
            st.persist_failures,
            st.persist_retries,
            st.upgrades,
            st.failed_upgrades,
            st.coalesced,
            st.segments_rebuilt,
            st.segments_reused,
        ] {
            self.word(w);
        }
        match col.last_error().as_ref().map(variant) {
            None => self.word(0),
            Some(v) => {
                self.word(v.len() as u64);
                for b in v.bytes() {
                    self.word(u64::from(b));
                }
            }
        }
        self.word(col.exact(RangeQuery::new(0, N - 1).unwrap()) as u64);
        for &q in qs {
            self.word(col.estimate(q).to_bits());
        }
    }
}

/// Drives the scenario, quiescing after every scheduled job; returns the
/// trace digest and the final stats.
fn run(sc: &Scenario) -> (u64, RebuildStats) {
    let values = initial_values(sc.seed);
    let qs = queries();
    let durable = sc.journaled.then(|| Durable::new(sc, &values));
    let (pool, col) = register(sc, &values, durable.as_ref());
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut shadow = values.clone();
    let mut ops = Rng::new(sc.seed);
    digest.observe(&col, &qs);
    for _ in 0..160 {
        let scheduled = if sc.manual_every > 0 && ops.bounded_u64(sc.manual_every) == 0 {
            col.request_rebuild().unwrap()
        } else {
            let i = ops.usize_in(0, N);
            let delta = ops.i64_in(-6, 9);
            shadow[i] += delta;
            col.update(i, delta).unwrap()
        };
        if scheduled {
            col.quiesce();
        }
        digest.observe(&col, &qs);
    }
    let stats = col.stats();
    drop(col);
    pool.shutdown();
    if let Some(d) = durable {
        digest.word(d.recover(&shadow));
    }
    (digest.0, stats)
}

#[test]
fn pool_matches_the_frozen_single_threaded_trace() {
    for (sc, &(name, digest, rebuilds, failed, pfail, pretry)) in scenarios().iter().zip(GOLDEN) {
        assert_eq!(sc.name, name);
        let (got, st) = run(sc);
        assert_eq!(
            (
                got,
                st.rebuilds,
                st.failed_rebuilds,
                st.persist_failures,
                st.persist_retries
            ),
            (digest, rebuilds, failed, pfail, pretry),
            "{name}: got digest 0x{got:016x}, stats {st:?}"
        );
    }
    assert_eq!(scenarios().len(), GOLDEN.len());
}
