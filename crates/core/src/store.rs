//! Crash-safe, content-addressed persistent artifact store.
//!
//! The bench harness's in-memory `Memo` cache makes every artifact a
//! pure function of a 64-bit content key. This module gives those
//! artifacts a durable tier: a directory of checksummed, versioned
//! records — one file per key — written with the workspace's
//! [`write_atomic`] discipline so a crash at any point leaves either no
//! record or a complete one.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   LOCK              # exclusive-owner lock file ("pid <n>")
//!   quarantine/       # corrupt records moved aside by recovery
//!   3f/               # shard directory: top byte of the key, hex
//!     3f82...c441.rec # one record, named by its 16-hex-digit key
//! ```
//!
//! Sharding by the key's top byte keeps directory sizes flat at sweep
//! scale (10⁵–10⁶ records spread over ≤ 256 directories) and gives a
//! natural partition for future multi-process sweep ownership.
//!
//! # Record format
//!
//! A record is a 32-byte header followed by the payload, all
//! little-endian:
//!
//! | offset | bytes | field                          |
//! |-------:|------:|--------------------------------|
//! |      0 |     4 | magic `"BMPS"`                 |
//! |      4 |     4 | format version ([`STORE_VERSION`]) |
//! |      8 |     8 | content key                    |
//! |     16 |     8 | payload length                 |
//! |     24 |     8 | FNV-1a checksum of the payload |
//! |     32 |     … | payload                        |
//!
//! # Integrity contract
//!
//! The store **never serves bad bytes**: every [`get`](DiskStore::get)
//! re-verifies magic, version, key, length and checksum, and a record
//! failing any check is moved to `quarantine/` and reported as a miss —
//! the caller recomputes, and the recompute re-persists a good record.
//! [`DiskStore::open`] runs the same verification over the whole tree
//! (the *recovery scan*) so a restart after a torn write, a bit flip or
//! a crash starts from a provably clean store.
//!
//! # Ownership
//!
//! One process owns a store at a time: `open` takes the `LOCK` file
//! (breaking it automatically when its recorded owner pid is no longer
//! alive) and holds it until the store is dropped. Records themselves
//! are immutable once renamed into place, so sharing between
//! *sequential* runs is always safe; the lock protects the mutating
//! operations (recovery, quarantine) from racing a concurrent owner.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bmp_uarch::fp::fnv1a;

use crate::io::write_atomic;

/// Record format version written by this crate; readers reject others.
pub const STORE_VERSION: u32 = 1;

/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"BMPS";

/// Header bytes preceding the payload.
pub const RECORD_HEADER_LEN: usize = 32;

/// File extension of a record.
pub const RECORD_EXT: &str = "rec";

/// Name of the exclusive-owner lock file at the store root.
pub const LOCK_FILE: &str = "LOCK";

/// Name of the quarantine directory at the store root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Why a record failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordDefect {
    /// Shorter than the header, or shorter than the header claims.
    Truncated,
    /// The magic bytes are not `"BMPS"`.
    BadMagic,
    /// The version field is not [`STORE_VERSION`].
    BadVersion(u32),
    /// The file is longer than header + declared payload length.
    TrailingBytes,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The key in the header does not match the expected key (the
    /// filename, for on-disk records).
    KeyMismatch {
        /// Key the caller expected (from the filename).
        expected: u64,
        /// Key the header carries.
        found: u64,
    },
}

impl fmt::Display for RecordDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordDefect::Truncated => f.write_str("truncated record"),
            RecordDefect::BadMagic => f.write_str("bad magic"),
            RecordDefect::BadVersion(v) => {
                write!(f, "unsupported version {v} (expected {STORE_VERSION})")
            }
            RecordDefect::TrailingBytes => f.write_str("trailing bytes after payload"),
            RecordDefect::ChecksumMismatch => f.write_str("payload checksum mismatch"),
            RecordDefect::KeyMismatch { expected, found } => {
                write!(
                    f,
                    "key mismatch: header {found:016x}, expected {expected:016x}"
                )
            }
        }
    }
}

/// Encodes `payload` as a store record for `key`.
pub fn encode_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies a record against `expected_key` and returns its payload.
///
/// # Errors
///
/// The first [`RecordDefect`] found, checked in header order.
pub fn decode_record(expected_key: u64, bytes: &[u8]) -> Result<&[u8], RecordDefect> {
    if bytes.len() < RECORD_HEADER_LEN {
        return Err(RecordDefect::Truncated);
    }
    if bytes[0..4] != RECORD_MAGIC {
        return Err(RecordDefect::BadMagic);
    }
    let word = |at: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(b)
    };
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != STORE_VERSION {
        return Err(RecordDefect::BadVersion(version));
    }
    let key = word(8);
    if key != expected_key {
        return Err(RecordDefect::KeyMismatch {
            expected: expected_key,
            found: key,
        });
    }
    let len = word(16) as usize;
    let payload = &bytes[RECORD_HEADER_LEN..];
    if payload.len() < len {
        return Err(RecordDefect::Truncated);
    }
    if payload.len() > len {
        return Err(RecordDefect::TrailingBytes);
    }
    if fnv1a(payload) != word(24) {
        return Err(RecordDefect::ChecksumMismatch);
    }
    Ok(payload)
}

/// Relative path of `key`'s record inside a store root: shard directory
/// (top byte, hex) plus the 16-hex-digit filename.
pub fn record_rel_path(key: u64) -> PathBuf {
    PathBuf::from(format!("{:02x}", (key >> 56) as u8)).join(format!("{key:016x}.{RECORD_EXT}"))
}

/// Parses a record filename (`<16 hex digits>.rec`) back into its key.
pub fn key_from_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{RECORD_EXT}"))?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// Why a store could not be opened or written.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(io::Error),
    /// Another live process owns the store's lock file.
    Locked {
        /// The owner line read from the lock file.
        owner: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Locked { owner } => {
                write!(f, "store is locked by a live owner ({owner})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Counters for one store's lifetime (monotonic, relaxed).
#[derive(Debug, Default)]
pub struct StoreStats {
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
    quarantined: AtomicU64,
}

impl StoreStats {
    /// Lookups attempted.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Lookups that returned a verified payload.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Records written.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Records moved to quarantine (at open-time recovery or on a
    /// failed read).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

/// What the open-time recovery scan found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Record files examined.
    pub scanned: usize,
    /// Records that verified clean.
    pub valid: usize,
    /// Corrupt records moved to `quarantine/`.
    pub quarantined: usize,
    /// Leftover temporary files removed.
    pub temps_removed: usize,
    /// Total bytes of valid records after the scan.
    pub live_bytes: u64,
}

/// The crash-safe persistent artifact store. See the module docs for
/// layout, record format and the integrity contract.
pub struct DiskStore {
    root: PathBuf,
    stats: StoreStats,
    live_bytes: AtomicU64,
    /// Whether this instance owns `LOCK` (and must remove it on drop).
    owns_lock: bool,
}

impl fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.root)
            .field("live_bytes", &self.live_bytes)
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if needed) the store at `root`: takes the owner
    /// lock, runs the recovery scan — quarantining every record that
    /// fails verification and sweeping crash-leftover temp files — and
    /// returns the store plus what recovery found.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another *live* process holds the
    /// lock (a lock whose recorded pid is dead is broken and taken
    /// over); [`StoreError::Io`] for filesystem failures.
    pub fn open(root: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        std::fs::create_dir_all(root.join(QUARANTINE_DIR))?;
        acquire_lock(&root)?;
        let store = Self {
            root,
            stats: StoreStats::default(),
            live_bytes: AtomicU64::new(0),
            owns_lock: true,
        };
        let report = store.recover()?;
        Ok((store, report))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The lifetime counters.
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Total bytes of live records (maintained incrementally; seeded by
    /// the open-time scan).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Absolute path of `key`'s record.
    pub fn record_path(&self, key: u64) -> PathBuf {
        self.root.join(record_rel_path(key))
    }

    /// Returns the verified payload for `key`, or `None` on a miss.
    /// A record failing verification is quarantined (never served) and
    /// reported as a miss.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let path = self.record_path(key);
        let bytes = std::fs::read(&path).ok()?;
        match decode_record(key, &bytes) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(defect) => {
                self.quarantine(key, &path, defect);
                None
            }
        }
    }

    /// Persists `payload` under `key`, atomically. Writing an existing
    /// key replaces its record.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the store is usable afterwards (a
    /// failed put simply leaves the key absent or with its old record).
    pub fn put(&self, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        let path = self.record_path(key);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let old_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let record = encode_record(key, payload);
        write_atomic(&path, &record)?;
        self.live_bytes.fetch_add(
            (record.len() as u64).saturating_sub(old_bytes),
            Ordering::Relaxed,
        );
        Ok(())
    }

    /// Whether a (possibly unverified) record file exists for `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.record_path(key).is_file()
    }

    /// Number of files in `quarantine/`.
    pub fn quarantine_len(&self) -> usize {
        std::fs::read_dir(self.root.join(QUARANTINE_DIR))
            .map(|rd| rd.filter_map(|e| e.ok()).count())
            .unwrap_or(0)
    }

    /// Moves `key`'s record (if any) to quarantine — for callers whose
    /// *decoding* of a checksum-valid payload failed (e.g. a codec
    /// version skew): the bytes are intact but unusable, and must not
    /// be served again.
    pub fn quarantine_key(&self, key: u64) {
        let path = self.record_path(key);
        if path.is_file() {
            self.quarantine(key, &path, RecordDefect::BadVersion(0));
        }
    }

    /// Re-runs the verification scan over the live tree: corrupt
    /// records are quarantined, leftover temp files removed, and the
    /// live-byte counter re-seeded. Called by [`open`](Self::open);
    /// callable any time for an explicit integrity audit.
    ///
    /// # Errors
    ///
    /// Filesystem errors walking the tree; per-record read failures are
    /// treated as corruption, not errors.
    pub fn recover(&self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        for shard in self.shard_dirs()? {
            for entry in std::fs::read_dir(&shard)?.filter_map(|e| e.ok()) {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.ends_with(".tmp") {
                    let _ = std::fs::remove_file(&path);
                    report.temps_removed += 1;
                    continue;
                }
                let Some(key) = key_from_file_name(&name) else {
                    continue; // foreign file: never served, left alone
                };
                report.scanned += 1;
                let verdict = std::fs::read(&path)
                    .map_err(|_| RecordDefect::Truncated)
                    .and_then(|bytes| {
                        decode_record(key, &bytes)?;
                        Ok(bytes.len() as u64)
                    });
                // A record in the wrong shard directory is an orphan:
                // unreachable by get(), so recovery quarantines it too.
                let misplaced = shard
                    .file_name()
                    .is_some_and(|s| s.to_string_lossy() != format!("{:02x}", (key >> 56) as u8));
                match verdict {
                    Ok(bytes) if !misplaced => {
                        report.valid += 1;
                        report.live_bytes += bytes;
                    }
                    Ok(_) => {
                        self.quarantine(
                            key,
                            &path,
                            RecordDefect::KeyMismatch {
                                expected: key,
                                found: key,
                            },
                        );
                        report.quarantined += 1;
                    }
                    Err(defect) => {
                        self.quarantine(key, &path, defect);
                        report.quarantined += 1;
                    }
                }
            }
        }
        self.live_bytes.store(report.live_bytes, Ordering::Relaxed);
        Ok(report)
    }

    /// Existing shard directories (two-hex-digit names) under the root.
    fn shard_dirs(&self) -> io::Result<Vec<PathBuf>> {
        let mut dirs = Vec::new();
        for entry in std::fs::read_dir(&self.root)?.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.len() == 2
                && name.chars().all(|c| c.is_ascii_hexdigit())
                && entry.path().is_dir()
            {
                dirs.push(entry.path());
            }
        }
        dirs.sort();
        Ok(dirs)
    }

    /// Moves a corrupt record into `quarantine/`, tagging the filename
    /// with the defect class; falls back to deletion when the rename
    /// fails. Either way the record is no longer servable.
    fn quarantine(&self, key: u64, path: &Path, defect: RecordDefect) {
        let tag = match defect {
            RecordDefect::Truncated => "truncated",
            RecordDefect::BadMagic => "magic",
            RecordDefect::BadVersion(_) => "version",
            RecordDefect::TrailingBytes => "trailing",
            RecordDefect::ChecksumMismatch => "checksum",
            RecordDefect::KeyMismatch { .. } => "key",
        };
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let dest = self
            .root
            .join(QUARANTINE_DIR)
            .join(format!("{key:016x}.{tag}.{RECORD_EXT}"));
        let _ = std::fs::create_dir_all(self.root.join(QUARANTINE_DIR));
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
        self.live_bytes
            .fetch_sub(bytes.min(self.live_bytes()), Ordering::Relaxed);
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if self.owns_lock {
            let _ = std::fs::remove_file(self.root.join(LOCK_FILE));
        }
    }
}

/// Information about a store's lock file.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LockInfo {
    /// The owner line as written (`pid <n>`).
    owner: String,
    /// Whether the recorded pid is demonstrably alive (only
    /// determinable where `/proc` exists; `false` means *dead,
    /// unparsable or unknowable*).
    alive: bool,
}

/// Takes the `LOCK` file at `root`, breaking a stale (dead-owner) lock.
fn acquire_lock(root: &Path) -> Result<(), StoreError> {
    let lock = root.join(LOCK_FILE);
    let body = format!("pid {}\n", std::process::id());
    for _ in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                f.write_all(body.as_bytes())?;
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let info = read_lock(&lock);
                match info {
                    Some(info) if info.alive => {
                        return Err(StoreError::Locked { owner: info.owner })
                    }
                    // Dead or unreadable owner: break the lock, retry.
                    _ => {
                        let _ = std::fs::remove_file(&lock);
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(StoreError::Locked {
        owner: "unknown (lock contention)".to_string(),
    })
}

/// Reads and interprets a lock file; `None` when it vanished.
fn read_lock(lock: &Path) -> Option<LockInfo> {
    let owner = std::fs::read_to_string(lock).ok()?.trim().to_string();
    let pid: Option<u32> = owner.strip_prefix("pid ").and_then(|s| s.parse().ok());
    let alive = pid.is_some_and(pid_alive);
    Some(LockInfo { owner, alive })
}

/// Whether `pid` is a live process. Uses `/proc` where it exists; on
/// other platforms the answer is conservatively `true` for our own pid
/// and `false` otherwise is *not* assumed — we return `true` so locks
/// are never broken on systems we cannot check.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        proc_root.join(pid.to_string()).is_dir()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bmp_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_roundtrip_and_defects() {
        let rec = encode_record(0xabcd, b"hello");
        assert_eq!(decode_record(0xabcd, &rec).unwrap(), b"hello");
        assert_eq!(
            decode_record(0xabce, &rec),
            Err(RecordDefect::KeyMismatch {
                expected: 0xabce,
                found: 0xabcd
            })
        );
        assert_eq!(
            decode_record(0xabcd, &rec[..10]),
            Err(RecordDefect::Truncated)
        );
        let mut torn = rec.clone();
        torn.truncate(rec.len() - 1);
        assert_eq!(decode_record(0xabcd, &torn), Err(RecordDefect::Truncated));
        let mut flipped = rec.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            decode_record(0xabcd, &flipped),
            Err(RecordDefect::ChecksumMismatch)
        );
        let mut long = rec.clone();
        long.push(0);
        assert_eq!(
            decode_record(0xabcd, &long),
            Err(RecordDefect::TrailingBytes)
        );
        let mut bad_magic = rec.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_record(0xabcd, &bad_magic),
            Err(RecordDefect::BadMagic)
        );
        let mut bad_version = rec;
        bad_version[4] = 99;
        assert!(matches!(
            decode_record(0xabcd, &bad_version),
            Err(RecordDefect::BadVersion(_))
        ));
    }

    #[test]
    fn paths_and_filenames_roundtrip() {
        let key = 0x3f82_0000_0000_c441_u64;
        let rel = record_rel_path(key);
        assert_eq!(rel, PathBuf::from("3f").join("3f8200000000c441.rec"));
        assert_eq!(key_from_file_name("3f8200000000c441.rec"), Some(key));
        assert_eq!(key_from_file_name("3f82.rec"), None);
        assert_eq!(key_from_file_name("3f8200000000c441.csv"), None);
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = fresh("roundtrip");
        {
            let (store, report) = DiskStore::open(&dir).unwrap();
            assert_eq!(report, RecoveryReport::default());
            store.put(7, b"payload-7").unwrap();
            store.put(u64::MAX, b"payload-max").unwrap();
            assert_eq!(store.get(7).as_deref(), Some(&b"payload-7"[..]));
            assert_eq!(store.stats().hits(), 1);
            assert_eq!(store.get(8), None);
        }
        // Reopen: the lock was released, recovery finds 2 valid records.
        let (store, report) = DiskStore::open(&dir).unwrap();
        assert_eq!(report.scanned, 2);
        assert_eq!(report.valid, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(store.get(u64::MAX).as_deref(), Some(&b"payload-max"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_records_are_quarantined_never_served() {
        let dir = fresh("corrupt");
        let (store, _) = DiskStore::open(&dir).unwrap();
        store.put(42, b"the truth").unwrap();
        // Flip a payload bit on disk behind the store's back.
        let path = store.record_path(42);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(42), None, "bad bytes are never served");
        assert_eq!(store.quarantine_len(), 1);
        assert!(!store.contains(42), "the corrupt record left the live tree");
        // A recompute re-persists, and the store serves the good copy.
        store.put(42, b"the truth").unwrap();
        assert_eq!(store.get(42).as_deref(), Some(&b"the truth"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record truncated mid-payload (what a crash mid-write leaves
    /// at the final path) and one with a payload bit flipped after
    /// checksumming are both quarantined by the next open.
    #[test]
    fn recovery_quarantines_torn_and_flipped_writes() {
        let dir = fresh("recovery");
        {
            let (store, _) = DiskStore::open(&dir).unwrap();
            store.put(1, b"torn away").unwrap();
            store.put(2, b"flipped bit").unwrap();
            store.put(3, b"clean").unwrap();
            let torn = store.record_path(1);
            let bytes = std::fs::read(&torn).unwrap();
            std::fs::write(&torn, &bytes[..RECORD_HEADER_LEN + 4]).unwrap();
            let flipped = store.record_path(2);
            let mut bytes = std::fs::read(&flipped).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            std::fs::write(&flipped, &bytes).unwrap();
        }
        let (store, report) = DiskStore::open(&dir).unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.valid, 1);
        assert_eq!(report.quarantined, 2);
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2), None);
        assert_eq!(store.get(3).as_deref(), Some(&b"clean"[..]));
        assert_eq!(store.quarantine_len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_owner_locks_dead_owner_is_broken() {
        let dir = fresh("lock");
        let (_store, _) = DiskStore::open(&dir).unwrap();
        // Same-process second open: the recorded pid is alive → Locked.
        match DiskStore::open(&dir) {
            Err(StoreError::Locked { owner }) => {
                assert!(owner.contains(&std::process::id().to_string()));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(_store);
        // Dropping released the lock; a stale lock with a dead pid is
        // broken automatically.
        std::fs::write(dir.join(LOCK_FILE), "pid 999999999\n").unwrap();
        let (store, _) = DiskStore::open(&dir).unwrap();
        drop(store);
        assert!(!dir.join(LOCK_FILE).exists(), "drop removes the lock");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_key_retires_undecodable_payloads() {
        let dir = fresh("retire");
        let (store, _) = DiskStore::open(&dir).unwrap();
        store.put(9, b"checksum fine, meaning wrong").unwrap();
        store.quarantine_key(9);
        assert!(!store.contains(9));
        assert_eq!(store.quarantine_len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
