//! The staging area: named byte blobs shared between tasks.
//!
//! The paper's RAM tasks communicate through files staged to a shared area
//! on the parallel filesystem ("Amber's .mdinfo files to 'staging area'
//! which is accessible by subsequent tasks"). Our staging area is an
//! in-memory, thread-safe key-value store of rendered file contents — tasks
//! genuinely serialize inputs/outputs through it using the mdsim text
//! formats. A file another unit reads is text from the moment it is staged;
//! one that only a person or a test opens ([`StagingArea::put_text_with`])
//! is rendered when first read.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, LazyLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Writer = Box<dyn FnOnce() -> Arc<[u8]> + Send>;

/// A staged file: its bytes, or the writer that owns what they will say.
/// An enum so that an eager file carries nothing for the deferred kind. The
/// bytes are one block of their exact size, the count beside them.
#[derive(Debug, Clone)]
enum Blob {
    Bytes(Arc<[u8]>),
    Deferred(Arc<LazyLock<Arc<[u8]>, Writer>>),
}

type Files = BTreeMap<String, Blob>;

/// A thread-safe staging area. Cheap to clone (shared).
#[derive(Debug, Clone, Default)]
pub struct StagingArea {
    inner: Arc<RwLock<Files>>,
}

/// Files taken out of a [`StagingArea`] ([`StagingArea::take_prefix`]):
/// no reader can find them any more, and they are freed where this drops.
#[derive(Debug, Default)]
pub struct Retired(Vec<(String, Blob)>);

impl Retired {
    /// How many files were taken.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
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
        let blob = Blob::Bytes(Arc::from(data.into()));
        self.write().insert(name.into(), blob);
    }

    /// Store UTF-8 text.
    pub fn put_text(&self, name: impl Into<String>, text: impl Into<String>) {
        self.put(name, text.into().into_bytes());
    }

    /// Store UTF-8 text that `render` produces when the file is first read:
    /// the file exists from this call, `render` runs at most once (never for
    /// a file nobody reads) and what it returns is cached. The content is
    /// fixed now, because `render` owns everything it reads.
    pub fn put_text_with(
        &self,
        name: impl Into<String>,
        render: impl FnOnce() -> String + Send + 'static,
    ) {
        let writer: Writer = Box::new(move || Arc::from(render().into_bytes()));
        self.write().insert(name.into(), Blob::Deferred(Arc::new(LazyLock::new(writer))));
    }

    /// Fetch a file's bytes.
    pub fn get(&self, name: &str) -> Option<Arc<[u8]>> {
        // The guard is gone before a deferred file renders: concurrent first
        // readers wait on the file, not on the map.
        let blob = self.read().get(name).cloned()?;
        Some(match blob {
            Blob::Bytes(bytes) => bytes,
            Blob::Deferred(file) => Arc::clone(LazyLock::force(&file)),
        })
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

    /// Take every file whose name starts with `prefix` out of the map and
    /// hand them back, to be dropped wherever freeing them costs least.
    ///
    /// The driver retires a replica's previous segment with this (prefix =
    /// file base + '.', so every engine's extensions are covered) and gives
    /// the files to the replica's next unit, whose payload drops them on the
    /// slot that runs it. The invariant callers keep: *a file is removed
    /// only after every unit that names it as input has settled.*
    pub fn take_prefix(&self, prefix: String) -> Retired {
        // The matching names are one contiguous key range, ending before the
        // prefix with its last character bumped; where that character has no
        // successor (or there is none) the range runs on and the filter
        // decides.
        let mut end = prefix.clone();
        let end = match end.pop().and_then(|last| char::from_u32(last as u32 + 1)) {
            Some(next) => Bound::Excluded(end + next.encode_utf8(&mut [0; 4])),
            None => Bound::Unbounded,
        };
        let range = (Bound::Included(&prefix), end.as_ref());
        let mut files = self.write();
        Retired(files.extract_if(range, |name, _| name.starts_with(prefix.as_str())).collect())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
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
        assert_eq!(s.take_prefix("r00003_c0001.".into()).len(), 3);
        assert_eq!(
            s.list(""),
            vec!["r00003_c0000.mdin", "r00003_c00010.mdin", "r00003_c0002.mdin", "r00004"]
        );
        assert_eq!(s.take_prefix("r00003_c0001.".into()).len(), 0);
        assert_eq!(s.take_prefix("zzz".into()).len(), 0);
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

    /// `delete_prefix` against the filter it replaced, on the prefixes whose
    /// range end is not "last byte plus one".
    #[test]
    fn delete_prefix_is_starts_with_for_every_prefix() {
        let names = [
            "",
            "a",
            "a\u{7f}",
            "a\u{7f}b",
            "a\u{80}",
            "a\u{d7ff}",
            "a\u{d7ff}z",
            "a\u{e000}",
            "aé",
            "aéz",
            "aê",
            "a\u{10ffff}",
            "a\u{10ffff}\u{10ffff}",
            "a\u{10ffff}b",
            "b",
            "\u{10ffff}",
            "\u{10ffff}x",
        ];
        for prefix in ["", "a", "a\u{7f}", "aé", "a\u{d7ff}", "a\u{10ffff}", "\u{10ffff}", "zz"] {
            let s = StagingArea::new();
            names.iter().for_each(|name| s.put_text(*name, ""));
            let doomed = names.iter().filter(|name| name.starts_with(prefix)).count();
            assert_eq!(s.take_prefix(prefix.into()).len(), doomed, "{prefix:?}");
            let mut kept: Vec<&str> =
                names.iter().copied().filter(|name| !name.starts_with(prefix)).collect();
            kept.sort_unstable();
            assert_eq!(s.list(""), kept, "{prefix:?}");
        }
    }

    /// A counting writer: how many times it ran.
    fn deferred(s: &StagingArea, name: &str, text: &'static str) -> Arc<AtomicUsize> {
        let runs = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&runs);
        s.put_text_with(name, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            text.to_owned()
        });
        runs
    }

    #[test]
    fn a_deferred_file_exists_at_once_and_renders_only_for_a_reader() {
        let s = StagingArea::new();
        let unread = deferred(&s, "r0.rst7", "never");
        let replaced = deferred(&s, "r1.rst7", "never");
        let deleted = deferred(&s, "r2.rst7", "never");
        let read = deferred(&s, "r3.rst7", "coordinates");
        s.put_text("r3.mdinfo", "NSTEP");
        assert!(s.contains("r0.rst7") && !s.is_empty());
        assert_eq!(s.len(), 5);
        assert_eq!(s.list("r3"), vec!["r3.mdinfo", "r3.rst7"]);
        s.put_text("r1.rst7", "eager now");
        assert!(s.delete("r2.rst7"));

        // Rendered by the first read, of any kind, and cached.
        assert_eq!(read.load(Ordering::SeqCst), 0);
        assert_eq!(s.read_text("r3.rst7", str::len), Ok(11));
        assert_eq!(s.get_text("r3.rst7").unwrap(), "coordinates");
        assert_eq!(&*s.get("r3.rst7").unwrap(), b"coordinates");
        assert_eq!(read.load(Ordering::SeqCst), 1);
        assert_eq!(s.get_text("r1.rst7").unwrap(), "eager now");

        assert_eq!(s.take_prefix("r".into()).len(), 4);
        drop(s);
        for never in [unread, replaced, deleted] {
            assert_eq!(never.load(Ordering::SeqCst), 0);
            assert_eq!(Arc::strong_count(&never), 1, "the writer was dropped, not leaked");
        }
    }

    #[test]
    fn racing_first_readers_render_once_and_outside_the_map_lock() {
        let s = StagingArea::new();
        let runs = Arc::new(AtomicUsize::new(0));
        let (counter, inside) = (Arc::clone(&runs), s.clone());
        s.put_text_with("r0.rst7", move || {
            counter.fetch_add(1, Ordering::SeqCst);
            // Writing to the map from inside the writer would deadlock if a
            // reader rendered under the map's lock.
            inside.put_text("seen-by-writer", "");
            "coordinates".to_owned()
        });
        let barrier = Barrier::new(8);
        thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(s.get_text("r0.rst7").unwrap(), "coordinates");
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(s.contains("seen-by-writer"));
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
