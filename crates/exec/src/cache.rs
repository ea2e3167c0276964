//! Content-addressed on-disk result cache.
//!
//! One JSON file per cached result under the cache directory, named by the
//! job's [`CacheKey`] (`<schema>-<content>.json`). Writes go to a
//! temporary file first and are published with an atomic rename, so a
//! crashed or concurrent writer can never leave a half-written entry
//! behind. Reads treat *any* malformed entry — unparseable JSON, missing
//! fields, a schema stamp that does not match the key — as a miss and
//! remove the offending file.

use crate::key::CacheKey;
use serde::{Deserialize, Map, Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How an [`Executor`](crate::Executor) uses its cache. Both policies
/// write fresh results; an executor without a cache neither reads nor
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Read hits, write misses (the default).
    #[default]
    ReadWrite,
    /// Ignore existing entries but write fresh results (`--refresh`).
    Refresh,
}

impl CachePolicy {
    /// True when lookups may serve cached results.
    pub fn reads(self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }
}

/// A directory of content-addressed JSON results.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Looks up a cached result. Returns `None` on a miss; a corrupted or
    /// schema-mismatched entry counts as a miss and is deleted.
    pub fn load<T: Deserialize>(&self, key: &CacheKey) -> Option<T> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => {
                // Readable-in-name-only entry (non-UTF-8 bytes, I/O error
                // mid-read): evict it like any other corrupted entry so it
                // cannot shadow the slot forever.
                let _ = std::fs::remove_file(&path);
                return None;
            }
        };
        match parse_entry(&text, key) {
            Some(payload) => Some(payload),
            None => {
                // Corrupted / stale entry: evict so the re-executed result
                // can replace it cleanly.
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists a result under `key` with an atomic rename.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the entry.
    pub fn store<T: Serialize + ?Sized>(
        &self,
        key: &CacheKey,
        label: &str,
        payload: &T,
    ) -> io::Result<()> {
        let mut entry = Map::new();
        entry.insert(
            "schema".into(),
            Value::String(format!("{:016x}", key.schema)),
        );
        entry.insert(
            "content".into(),
            Value::String(format!("{:016x}", key.content)),
        );
        entry.insert("label".into(), Value::String(label.to_string()));
        entry.insert("payload".into(), serde::to_value(payload));
        let text = Value::Object(entry).to_string();

        // Unique tmp name per (process, call): concurrent writers of the
        // same key each publish a complete file; last rename wins.
        let nonce = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}.tmp.{}.{}",
            key.file_name(),
            std::process::id(),
            nonce
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Removes every entry whose file name does not carry `schema` — the
    /// sweep that reclaims space after a schema bump orphans old entries.
    /// Returns the number of files removed.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the directory.
    pub fn evict_stale(&self, schema: u64) -> io::Result<usize> {
        let prefix = format!("{schema:016x}-");
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json")
                && !name.starts_with(&prefix)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Number of entries currently on disk.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the directory.
    pub fn len(&self) -> io::Result<usize> {
        Ok(std::fs::read_dir(&self.dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
            .count())
    }

    /// True when the cache holds no entries.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from listing the directory.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

fn parse_entry<T: Deserialize>(text: &str, key: &CacheKey) -> Option<T> {
    let value: Value = serde_json::from_str(text).ok()?;
    let schema = value.get("schema")?.as_str()?;
    let content = value.get("content")?.as_str()?;
    if schema != format!("{:016x}", key.schema) || content != format!("{:016x}", key.content) {
        return None;
    }
    T::from_value(value.get("payload")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::CacheKey;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cestim-exec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_values() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let key = CacheKey {
            schema: 7,
            content: 9,
        };
        cache.store(&key, "demo", &vec![1u64, 2, 3]).unwrap();
        assert_eq!(cache.load::<Vec<u64>>(&key), Some(vec![1, 2, 3]));
        assert_eq!(cache.len().unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_entries_are_misses_and_get_evicted() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let key = CacheKey {
            schema: 1,
            content: 2,
        };
        std::fs::write(dir.join(key.file_name()), "{ not json").unwrap();
        assert_eq!(cache.load::<u64>(&key), None);
        assert!(!dir.join(key.file_name()).exists(), "evicted on miss");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `bytes` at `key`'s slot and asserts the load is a miss that
    /// also evicts the file.
    fn assert_miss_and_evict(tag: &str, bytes: &[u8]) {
        let dir = tmp_dir(tag);
        let cache = DiskCache::open(&dir).unwrap();
        let key = CacheKey {
            schema: 5,
            content: 6,
        };
        let path = dir.join(key.file_name());
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(cache.load::<u64>(&key), None, "{tag}: expected a miss");
        assert!(!path.exists(), "{tag}: expected eviction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_entry_is_a_miss_and_gets_evicted() {
        assert_miss_and_evict("empty", b"");
    }

    #[test]
    fn truncated_entry_is_a_miss_and_gets_evicted() {
        // A valid prefix of a real entry, cut mid-payload.
        assert_miss_and_evict(
            "truncated",
            b"{\"schema\":\"0000000000000005\",\"content\":\"0000000000000006\",\"payload\":[1,",
        );
    }

    #[test]
    fn non_utf8_entry_is_a_miss_and_gets_evicted() {
        assert_miss_and_evict("nonutf8", &[0xff, 0xfe, 0x80, 0x00, 0xc3]);
    }

    #[test]
    fn missing_payload_field_is_a_miss_and_gets_evicted() {
        assert_miss_and_evict(
            "nopayload",
            b"{\"schema\":\"0000000000000005\",\"content\":\"0000000000000006\",\"label\":\"x\"}",
        );
    }

    #[test]
    fn payload_type_mismatch_is_a_miss_and_gets_evicted() {
        // Entry is well-formed JSON but the payload is a string where the
        // caller expects a u64.
        assert_miss_and_evict(
            "badtype",
            b"{\"schema\":\"0000000000000005\",\"content\":\"0000000000000006\",\"payload\":\"zz\"}",
        );
    }

    #[test]
    fn missing_entry_is_a_plain_miss() {
        let dir = tmp_dir("plainmiss");
        let cache = DiskCache::open(&dir).unwrap();
        let key = CacheKey {
            schema: 5,
            content: 6,
        };
        assert_eq!(cache.load::<u64>(&key), None);
        assert!(cache.is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_mismatch_is_a_miss() {
        let dir = tmp_dir("schema");
        let cache = DiskCache::open(&dir).unwrap();
        let old = CacheKey {
            schema: 1,
            content: 2,
        };
        cache.store(&old, "x", &42u64).unwrap();
        // Same content hash under a bumped schema: different file name, so
        // a clean miss; the stale sweep then removes the orphan.
        let new = CacheKey {
            schema: 2,
            content: 2,
        };
        assert_eq!(cache.load::<u64>(&new), None);
        assert_eq!(cache.evict_stale(2).unwrap(), 1);
        assert!(cache.is_empty().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_schema_field_inside_entry_is_a_miss() {
        let dir = tmp_dir("tamper");
        let cache = DiskCache::open(&dir).unwrap();
        let key = CacheKey {
            schema: 3,
            content: 4,
        };
        cache.store(&key, "x", &1u64).unwrap();
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("0000000000000003", "00000000000000ff");
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.load::<u64>(&key), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
