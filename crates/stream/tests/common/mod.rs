//! The column, update stream, and builder shared by the crash, promotion,
//! and failover sweeps. Each sweep pins the write-op index at which it
//! runs out of faults, so all three must see exactly this workload.

use std::path::Path;

use synoptic_catalog::{Catalog, ColumnEntry, DurableCatalog, FsStorage, PersistentSynopsis};
use synoptic_core::{Budget, PrefixSums, RangeEstimator};
use synoptic_hist::sap0::build_sap0_with_budget;
use synoptic_stream::ColumnBuild;

pub const COLUMN: &str = "c";
pub const N: usize = 16;

pub fn initial_values() -> Vec<i64> {
    (0..N as i64).map(|i| 10 + (i * 7) % 23).collect()
}

/// A deterministic update stream (position, delta).
pub fn stream(len: usize) -> Vec<(usize, i64)> {
    let mut s = 0x2001_u64;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let i = (s % N as u64) as usize;
        let d = ((s >> 32) % 9) as i64 - 4;
        out.push((i, if d == 0 { 5 } else { d }));
    }
    out
}

/// A 3-bucket SAP0 build under the column's budget.
pub fn builder() -> ColumnBuild {
    ColumnBuild::Custom(Box::new(
        |_vals: &[i64], ps: &PrefixSums, budget: &Budget| {
            Ok(Box::new(build_sap0_with_budget(ps, 3, budget)?) as Box<dyn RangeEstimator>)
        },
    ))
}

/// Commits the initial frequencies through a clean (non-faulty) handle so
/// a fault schedule indexes only the maintenance phase's operations.
pub fn commit_initial(cat_dir: &Path, values: &[i64]) -> u64 {
    let store = DurableCatalog::open(cat_dir, FsStorage::new()).unwrap();
    let mut cat = Catalog::new();
    cat.insert(
        COLUMN,
        ColumnEntry {
            n: values.len(),
            total_rows: values.iter().sum(),
            synopsis: PersistentSynopsis::from_frequencies(values),
        },
    );
    store.save(&cat).unwrap()
}
