//! An in-memory `Storage` backend for the durable catalog and the journal.
//!
//! The benchmark may write only inside its own checkout, where a journal
//! that syncs every record would time the shared disk rather than the
//! program. This backend keeps files in a map instead: the catalog and
//! journal code runs in full (framing, checksums, manifests, rotation,
//! checkpoints, recovery) and no device I/O enters a timed region. A
//! synced append is a plain append here, as on a RAM-backed filesystem.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use synoptic_catalog::Storage;
use synoptic_core::{Result, SynopticError};

#[derive(Default)]
struct Tree {
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
}

#[derive(Default)]
pub struct MemStorage {
    tree: Mutex<Tree>,
}

fn missing(path: &Path) -> SynopticError {
    SynopticError::Io {
        path: path.display().to_string(),
        detail: "no such file or directory".to_string(),
    }
}

impl MemStorage {
    fn lock(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Storage for MemStorage {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.lock()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| missing(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.lock().files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8], _sync: bool) -> Result<()> {
        self.lock()
            .files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<()> {
        self.lock()
            .files
            .remove(path)
            .map(drop)
            .ok_or_else(|| missing(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut tree = self.lock();
        let bytes = tree.files.remove(from).ok_or_else(|| missing(from))?;
        tree.files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn list(&self, dir: &Path) -> Result<Vec<String>> {
        let tree = self.lock();
        if !tree.dirs.contains(dir) {
            return Err(missing(dir));
        }
        // BTreeMap order is path order, which within one directory is
        // file-name order.
        Ok(tree
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name()?.to_str().map(str::to_string))
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        let mut tree = self.lock();
        for ancestor in dir.ancestors() {
            if !ancestor.as_os_str().is_empty() {
                tree.dirs.insert(ancestor.to_path_buf());
            }
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let tree = self.lock();
        tree.files.contains_key(path) || tree.dirs.contains(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_directory_tree() {
        let s = MemStorage::default();
        let dir = Path::new("wal");
        assert!(s.list(dir).is_err());
        s.create_dir_all(dir).unwrap();
        s.append(&dir.join("b"), b"12", true).unwrap();
        s.append(&dir.join("b"), b"3", true).unwrap();
        s.write_atomic(&dir.join("a"), b"x").unwrap();
        assert_eq!(s.list(dir).unwrap(), vec!["a", "b"]);
        assert_eq!(s.read(&dir.join("b")).unwrap(), b"123");
        s.rename(&dir.join("a"), &dir.join("c")).unwrap();
        assert!(!s.exists(&dir.join("a")));
        s.remove(&dir.join("c")).unwrap();
        assert!(s.remove(&dir.join("c")).is_err());
        assert_eq!(s.list(dir).unwrap(), vec!["b"]);
    }
}
