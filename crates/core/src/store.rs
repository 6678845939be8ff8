//! Content-addressed on-disk result store.
//!
//! It caches the predictor's harvest, the one piece of work every
//! `repro predict` and `rank-placements` query repeats: each harvested
//! pair is persisted as one self-verifying entry, and a later or restarted
//! query (`--store DIR --resume`) skips the pairs it finds instead of
//! measuring them again. Byte-identical determinism (the golden-trace
//! guarantee) is what makes this safe: a restored value is bit-for-bit the
//! value a fresh run would have produced.
//!
//! **Entry format** (version [`ENTRY_VERSION`]):
//!
//! ```text
//! magic "IFRS" | version u32 LE | key_len u32 LE | key bytes
//! | payload_len u64 LE | payload bytes | fnv1a64 checksum (LE, over all
//!   preceding bytes)
//! ```
//!
//! The file name is a 128-bit content address of the key (two independent
//! FNV-1a streams), so lookups are one `open`; the full key is stored and
//! re-verified inside the entry, so even an address collision can never
//! serve the wrong value.
//!
//! **Crash consistency.** Writes go through [`atomic_write`]: the entry is
//! written to a unique temp file in the same directory, flushed, then
//! renamed over the final name. A SIGKILL mid-write leaves at worst a temp
//! file (ignored and reaped on the next open) — never a half-written
//! entry under a live name.
//!
//! **Corruption policy.** A torn, truncated, bit-flipped or
//! version-skewed entry is *never* silently served: [`ResultStore::get`]
//! verifies magic, version, length framing, key and checksum, and on any
//! mismatch moves the file to a `*.quarantined` sibling (kept for
//! post-mortem) and reports a miss, so the caller recomputes and rewrites
//! it. The [`chaos`] module provides the fault injector used by the
//! corruption test-suite.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry format version. Bump on any layout change: old entries are then
/// quarantined and recomputed instead of being misparsed.
pub const ENTRY_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"IFRS";
/// Extension of live entries.
const ENTRY_EXT: &str = "res";
/// Extension quarantined (corrupt) entries are renamed to.
const QUARANTINE_EXT: &str = "quarantined";

/// FNV-1a over `bytes`, seeded with the standard offset basis XOR `salt`
/// (salt 0 is plain FNV-1a; a second salt yields an independent stream for
/// the 128-bit content address).
fn fnv1a64(bytes: &[u8], salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ salt;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write `bytes` to `path` atomically: unique temp file in the target's
/// directory, flush + sync, rename over the final name. Readers (and a
/// SIGKILL at any instant) see either the old content or the new — never a
/// truncated hybrid.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp-{}-{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let res = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if res.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    res
}

/// Outcome of a [`ResultStore::get`].
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A verified entry for the key; the payload is exactly what was put.
    Hit(Vec<u8>),
    /// No entry under the key's address.
    Miss,
    /// An entry existed but failed verification (torn write, bit flip,
    /// truncation, version skew). It has been moved aside to the returned
    /// quarantine path; the caller must recompute.
    Quarantined(PathBuf),
}

impl Lookup {
    /// The payload when the lookup hit.
    pub fn hit(self) -> Option<Vec<u8>> {
        match self {
            Lookup::Hit(p) => Some(p),
            _ => None,
        }
    }
}

/// Counters accumulated over the store's lifetime (this process only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that returned a verified payload.
    pub hits: u64,
    /// Lookups with no entry present.
    pub misses: u64,
    /// Lookups that found a corrupt entry and quarantined it.
    pub quarantined: u64,
    /// Entries persisted by [`ResultStore::put`].
    pub persisted: u64,
}

/// A content-addressed store of verified byte payloads in one directory.
/// All methods take `&self`; the store is shared freely across worker
/// threads (writes are independent files, stats are atomics).
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    persisted: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) the store directory, reaping any orphaned
    /// temp files a killed writer left behind.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with('.') {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(ResultStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key` (128-bit content address of the key).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        let a = fnv1a64(key.as_bytes(), 0);
        let b = fnv1a64(key.as_bytes(), 0x9E37_79B9_7F4A_7C15);
        self.dir.join(format!("{:016x}{:016x}.{}", a, b, ENTRY_EXT))
    }

    /// Persist `payload` under `key` (atomic; replaces any previous entry).
    pub fn put(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(4 + 4 + 4 + key.len() + 8 + payload.len() + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&ENTRY_VERSION.to_le_bytes());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let sum = fnv1a64(&buf, 0);
        buf.extend_from_slice(&sum.to_le_bytes());
        atomic_write(&self.entry_path(key), &buf)?;
        self.persisted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Look `key` up, verifying the entry end to end. Corrupt entries are
    /// quarantined (renamed to `*.quarantined`) and reported as such — the
    /// store never serves bytes that fail verification.
    pub fn get(&self, key: &str) -> Lookup {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
            // Unreadable for another reason (permissions, I/O error):
            // treat like corruption — quarantine if possible, recompute.
            Err(_) => return self.quarantine(&path),
        };
        match parse_entry(&bytes, key) {
            Ok(Some(payload)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(payload)
            }
            // A checksum-valid entry for a *different* key: a genuine
            // 128-bit address collision. Not corruption — leave the other
            // key's entry alone and report a miss.
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
            Err(_) => self.quarantine(&path),
        }
    }

    fn quarantine(&self, path: &Path) -> Lookup {
        let q = path.with_extension(QUARANTINE_EXT);
        let _ = fs::rename(path, &q);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        Lookup::Quarantined(q)
    }

    /// Number of live entries currently on disk.
    pub fn entries(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            if p.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Lifetime counters (this process).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
        }
    }
}

/// Parse and verify one entry. `Ok(Some(payload))` on a verified entry for
/// `key`, `Ok(None)` on a verified entry for a different key (address
/// collision), `Err` on anything malformed.
fn parse_entry(bytes: &[u8], key: &str) -> Result<Option<Vec<u8>>, &'static str> {
    // Lengths come from disk: an absurd one is malformed, not an overflow.
    let take = |off: usize, len: usize| {
        off.checked_add(len)
            .and_then(|end| bytes.get(off..end))
            .ok_or("truncated")
    };
    if take(0, 4)? != MAGIC {
        return Err("bad magic");
    }
    let version = u32::from_le_bytes(take(4, 4)?.try_into().expect("4 bytes"));
    if version != ENTRY_VERSION {
        return Err("version skew");
    }
    let key_len = u32::from_le_bytes(take(8, 4)?.try_into().expect("4 bytes")) as usize;
    let stored_key = take(12, key_len)?;
    let pl_off = 12 + key_len;
    let payload_len = u64::from_le_bytes(take(pl_off, 8)?.try_into().expect("8 bytes")) as usize;
    let payload = take(pl_off + 8, payload_len)?;
    let sum_off = pl_off + 8 + payload.len();
    let sum = u64::from_le_bytes(take(sum_off, 8)?.try_into().expect("8 bytes"));
    if sum_off + 8 != bytes.len() {
        return Err("trailing bytes");
    }
    if fnv1a64(&bytes[..sum_off], 0) != sum {
        return Err("checksum mismatch");
    }
    if stored_key != key.as_bytes() {
        return Ok(None);
    }
    Ok(Some(payload.to_vec()))
}

/// Store fault injector for the chaos test-suite: deterministic torn
/// writes, bit flips and truncations applied to live entry files. Test
/// harness only — nothing in the production paths calls this.
pub mod chaos {
    use super::*;

    /// Ways an entry file can be damaged.
    #[derive(Clone, Copy, Debug)]
    pub enum Fault {
        /// Keep only the first `keep` bytes (a torn write that lost its
        /// tail, or a crashed non-atomic writer).
        Truncate(usize),
        /// Flip one bit: byte `offset % len`, bit `bit % 8`.
        BitFlip {
            /// Byte position (taken modulo the file length).
            offset: usize,
            /// Bit within the byte (taken modulo 8).
            bit: u8,
        },
        /// Keep a prefix and replace the tail with garbage of the original
        /// length (a torn write across a sector boundary).
        TornTail {
            /// Bytes of authentic prefix to keep.
            keep: usize,
        },
        /// Replace the whole file with `len` zero bytes.
        Zeroed {
            /// Length of the zeroed replacement.
            len: usize,
        },
    }

    /// Apply `fault` to the entry for `key`, returning the entry path.
    /// Panics if the entry does not exist — chaos tests corrupt entries
    /// they just created.
    pub fn corrupt_entry(store: &ResultStore, key: &str, fault: Fault) -> PathBuf {
        let path = store.entry_path(key);
        corrupt_file(&path, fault);
        path
    }

    /// Apply `fault` to an arbitrary file (non-atomically, on purpose).
    pub fn corrupt_file(path: &Path, fault: Fault) {
        let mut bytes = fs::read(path).expect("chaos target must exist");
        match fault {
            Fault::Truncate(keep) => bytes.truncate(keep),
            Fault::BitFlip { offset, bit } => {
                assert!(!bytes.is_empty(), "cannot flip a bit in an empty file");
                let i = offset % bytes.len();
                bytes[i] ^= 1 << (bit % 8);
            }
            Fault::TornTail { keep } => {
                let keep = keep.min(bytes.len());
                let tail = bytes.len() - keep;
                bytes.truncate(keep);
                // Deterministic garbage, clearly not the original tail.
                bytes.extend((0..tail).map(|i| (i as u8).wrapping_mul(37) ^ 0xA5));
            }
            Fault::Zeroed { len } => {
                bytes.clear();
                bytes.resize(len, 0);
            }
        }
        fs::write(path, &bytes).expect("chaos write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ifstore-test-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_hit_and_miss() {
        let store = ResultStore::open(tmpdir("roundtrip")).unwrap();
        assert_eq!(store.get("absent"), Lookup::Miss);
        store.put("k1", b"payload-one").unwrap();
        store.put("k2", &[]).unwrap();
        assert_eq!(store.get("k1"), Lookup::Hit(b"payload-one".to_vec()));
        assert_eq!(store.get("k2"), Lookup::Hit(Vec::new()));
        assert_eq!(store.entries().unwrap(), 2);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.quarantined, s.persisted), (2, 1, 0, 2));
    }

    #[test]
    fn put_replaces_previous_entry() {
        let store = ResultStore::open(tmpdir("replace")).unwrap();
        store.put("k", b"old").unwrap();
        store.put("k", b"new").unwrap();
        assert_eq!(store.get("k"), Lookup::Hit(b"new".to_vec()));
    }

    #[test]
    fn distinct_keys_have_distinct_addresses() {
        let store = ResultStore::open(tmpdir("addr")).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..512 {
            assert!(seen.insert(store.entry_path(&format!("point/{}", i))));
        }
    }

    #[test]
    fn corrupt_entries_quarantined_never_served() {
        use chaos::Fault;
        let store = ResultStore::open(tmpdir("corrupt")).unwrap();
        let faults = [
            Fault::Truncate(0),
            Fault::Truncate(5),
            Fault::Truncate(20),
            Fault::BitFlip { offset: 0, bit: 0 },  // magic
            Fault::BitFlip { offset: 5, bit: 3 },  // version
            Fault::BitFlip { offset: 9, bit: 1 },  // key_len
            Fault::BitFlip { offset: 14, bit: 7 }, // key bytes
            Fault::BitFlip {
                offset: 1usize << 20,
                bit: 2,
            }, // wraps into payload/sum
            Fault::TornTail { keep: 16 },
            Fault::Zeroed { len: 64 },
            Fault::Zeroed { len: 0 },
        ];
        for (i, &fault) in faults.iter().enumerate() {
            let key = format!("victim-{}", i);
            store
                .put(&key, b"precious bytes that must never be half-served")
                .unwrap();
            chaos::corrupt_entry(&store, &key, fault);
            match store.get(&key) {
                Lookup::Quarantined(q) => {
                    assert!(q.exists(), "quarantined file kept for post-mortem");
                }
                other => panic!("fault {:?} was served as {:?}", fault, other),
            }
            // The live name is gone; a recompute re-populates it.
            assert_eq!(store.get(&key), Lookup::Miss);
            store.put(&key, b"recomputed").unwrap();
            assert_eq!(store.get(&key), Lookup::Hit(b"recomputed".to_vec()));
        }
        assert_eq!(store.stats().quarantined, faults.len() as u64);
    }

    #[test]
    fn version_skew_is_quarantined() {
        let store = ResultStore::open(tmpdir("version")).unwrap();
        store.put("k", b"v").unwrap();
        // Rewrite the entry with a bumped version and a *valid* checksum:
        // the version gate alone must reject it.
        let path = store.entry_path("k");
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 8);
        bytes[4..8].copy_from_slice(&(ENTRY_VERSION + 1).to_le_bytes());
        let sum = fnv1a64(&bytes, 0);
        bytes.extend_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get("k"), Lookup::Quarantined(_)));
    }

    #[test]
    fn overflowing_payload_length_is_quarantined() {
        let store = ResultStore::open(tmpdir("pl-overflow")).unwrap();
        store.put("k", b"v").unwrap();
        // The payload length sits after magic, version, key length and key.
        let path = store.entry_path("k");
        let mut bytes = fs::read(&path).unwrap();
        let pl_off = 12 + "k".len();
        bytes[pl_off..pl_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get("k"), Lookup::Quarantined(_)));
    }

    #[test]
    fn orphaned_temp_files_are_reaped_on_open() {
        let dir = tmpdir("reap");
        fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(".deadbeef.res.tmp-1234-0");
        fs::write(&orphan, b"half a write").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(!orphan.exists(), "orphan reaped");
        assert_eq!(store.entries().unwrap(), 0);
    }

    #[test]
    fn atomic_write_leaves_no_temp_on_success() {
        let dir = tmpdir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.json");
        atomic_write(&target, b"{}").unwrap();
        atomic_write(&target, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":2}");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with('.'))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {:?}", leftovers);
    }

    #[test]
    fn concurrent_puts_and_gets_are_safe() {
        let store = std::sync::Arc::new(ResultStore::open(tmpdir("concurrent")).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..32 {
                        let key = format!("t{}-{}", t, i);
                        store.put(&key, key.as_bytes()).unwrap();
                        assert_eq!(store.get(&key), Lookup::Hit(key.clone().into_bytes()));
                    }
                });
            }
        });
        assert_eq!(store.entries().unwrap(), 128);
    }
}
