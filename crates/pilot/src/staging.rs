//! The staging area: named byte blobs shared between tasks.
//!
//! The paper's RAM tasks communicate through files staged to a shared area
//! on the parallel filesystem ("Amber's .mdinfo files to 'staging area'
//! which is accessible by subsequent tasks"). Our staging area is an
//! in-memory, thread-safe key-value store of rendered file contents — tasks
//! genuinely serialize inputs/outputs through it using the mdsim text
//! formats, and the virtual cluster charges `T_data` for the movement.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Files = BTreeMap<String, Arc<Vec<u8>>>;

/// A thread-safe staging area. Cheap to clone (shared).
#[derive(Debug, Clone, Default)]
pub struct StagingArea {
    inner: Arc<RwLock<Files>>,
}

impl StagingArea {
    pub fn new() -> Self {
        Self::default()
    }

    // Every update is one map operation, so the map is valid even if a
    // holder panicked: a poisoned lock is recovered.
    fn read(&self) -> RwLockReadGuard<'_, Files> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Files> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Store a file, replacing any existing content.
    pub fn put(&self, name: impl Into<String>, data: impl Into<Vec<u8>>) {
        self.write().insert(name.into(), Arc::new(data.into()));
    }

    /// Store UTF-8 text.
    pub fn put_text(&self, name: impl Into<String>, text: impl Into<String>) {
        self.put(name, text.into().into_bytes());
    }

    /// Fetch a file's bytes.
    pub fn get(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.read().get(name).cloned()
    }

    /// Parse a staged text file in place: `parse` borrows the stored bytes
    /// (validated as UTF-8 here, once) instead of receiving a copy. Errors
    /// name the file, for task payloads to return as they are.
    pub fn read_text<T>(&self, name: &str, parse: impl FnOnce(&str) -> T) -> Result<T, String> {
        let bytes = self.get(name).ok_or_else(|| format!("staging area missing file {name:?}"))?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| format!("staged file {name:?} is not UTF-8: {e}"))?;
        Ok(parse(text))
    }

    /// An owned copy of a staged text file (inspection and tests; payloads
    /// parse through [`StagingArea::read_text`]).
    pub fn get_text(&self, name: &str) -> Option<String> {
        self.read_text(name, str::to_owned).ok()
    }

    pub fn delete(&self, name: &str) -> bool {
        self.write().remove(name).is_some()
    }

    /// Delete every file whose name starts with `prefix`; returns how many.
    ///
    /// The driver retires a replica's previous segment with this (prefix =
    /// file base + '.', so every engine's extensions are covered). The
    /// invariant callers keep: *a file is removed only after every unit that
    /// names it as input has settled.*
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let mut files = self.write();
        let doomed: Vec<String> = files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| name.clone())
            .collect();
        doomed.iter().for_each(|name| drop(files.remove(name)));
        doomed.len()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Names matching a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.read().keys().filter(|k| k.starts_with(prefix)).cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Total stored bytes (used to charge filesystem transfer time).
    pub fn total_bytes(&self) -> u64 {
        self.read().values().map(|v| v.len() as u64).sum()
    }

    /// Size of one file in bytes.
    pub fn size_of(&self, name: &str) -> Option<u64> {
        self.read().get(name).map(|v| v.len() as u64)
    }

    /// Drop everything (between cycles in tests).
    pub fn clear(&self) {
        self.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn put_get_roundtrip() {
        let s = StagingArea::new();
        s.put_text("replica_0.mdinfo", "NSTEP = 100");
        assert_eq!(s.get_text("replica_0.mdinfo").unwrap(), "NSTEP = 100");
        assert!(s.get("missing").is_none());
        assert!(s.read_text("missing", str::len).is_err());
        assert_eq!(s.read_text("replica_0.mdinfo", str::len), Ok(11));
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_replacement() {
        let s = StagingArea::new();
        s.put("bad.mdinfo", vec![b'N', 0xff, b'S']);
        let err = s.read_text("bad.mdinfo", str::len).unwrap_err();
        assert!(err.contains("bad.mdinfo") && err.contains("UTF-8"), "{err}");
        assert!(s.get_text("bad.mdinfo").is_none());
    }

    #[test]
    fn delete_prefix_removes_exactly_the_matching_range() {
        let s = StagingArea::new();
        for name in ["r00003_c0001.mdin", "r00003_c0001.rst7", "r00003_c0001.mdinfo"] {
            s.put_text(name, "");
        }
        // Neighbours in key order on both sides, and a longer cycle number
        // sharing the digits.
        for name in ["r00003_c0000.mdin", "r00003_c0002.mdin", "r00003_c00010.mdin", "r00004"] {
            s.put_text(name, "");
        }
        assert_eq!(s.delete_prefix("r00003_c0001."), 3);
        assert_eq!(
            s.list(""),
            vec!["r00003_c0000.mdin", "r00003_c00010.mdin", "r00003_c0002.mdin", "r00004"]
        );
        assert_eq!(s.delete_prefix("r00003_c0001."), 0);
        assert_eq!(s.delete_prefix("zzz"), 0);
    }

    #[test]
    fn clones_share_state() {
        let a = StagingArea::new();
        let b = a.clone();
        a.put_text("x", "1");
        assert_eq!(b.get_text("x").unwrap(), "1");
        b.delete("x");
        assert!(!a.contains("x"));
    }

    #[test]
    fn list_by_prefix_is_sorted() {
        let s = StagingArea::new();
        s.put_text("md/r2.out", "");
        s.put_text("md/r1.out", "");
        s.put_text("ex/r1.out", "");
        assert_eq!(s.list("md/"), vec!["md/r1.out", "md/r2.out"]);
        assert_eq!(s.list(""), vec!["ex/r1.out", "md/r1.out", "md/r2.out"]);
    }

    #[test]
    fn byte_accounting() {
        let s = StagingArea::new();
        s.put("a", vec![0u8; 100]);
        s.put("b", vec![0u8; 50]);
        assert_eq!(s.total_bytes(), 150);
        assert_eq!(s.size_of("a"), Some(100));
        s.put("a", vec![0u8; 10]); // replace
        assert_eq!(s.total_bytes(), 60);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let s = StagingArea::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = s.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        s.put_text(format!("t{t}/f{i}"), format!("{t}:{i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 800);
        assert_eq!(s.get_text("t3/f42").unwrap(), "3:42");
    }
}
