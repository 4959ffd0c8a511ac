//! `BMP8xx` — persistent-store consistency.
//!
//! `run_all` optionally persists simulation results in
//! the content-addressed on-disk store (`BMP_STORE`, see
//! [`bmp_core::store`] and `docs/STORE.md`). The store verifies every
//! record it serves, so corruption can never reach a consumer — but a
//! store that *holds* corruption silently recomputes on every run.
//! These rules audit a store tree offline (read-only, without taking
//! the owner lock) so operators see the damage instead of paying for it
//! repeatedly:
//!
//! * `BMP800` (error) — a record file is unreadable or fails
//!   verification (truncated, bad magic, version skew, checksum
//!   mismatch, trailing bytes).
//! * `BMP801` (error) — placement defects: the header's key does not
//!   match the filename, the file sits in the wrong shard directory,
//!   or a `.rec` filename is not 16 hex digits.
//! * `BMP802` (warn) — `quarantine/` holds records awaiting recompute;
//!   each is a past integrity save worth investigating.
//! * `BMP803` (warn) — the `LOCK` file is stale (its recorded owner
//!   pid is dead) or malformed; the next open breaks it automatically.
//! * `BMP804` (warn) — foreign files in the store tree: crash-leftover
//!   `.tmp` files (swept on the next open) or anything the store never
//!   writes.

use std::path::Path;

use bmp_core::store::{decode_record, key_from_file_name, read_lock, record_rel_path};

use crate::diag::Diagnostic;

/// Runs the `BMP80x` rules over the store tree at `root`, read-only.
/// The owner lock is *not* taken: auditing a store a live process owns
/// is legal (records are immutable once renamed into place).
pub fn lint_store(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) => {
            diags.push(Diagnostic::error(
                "BMP800",
                root.display().to_string(),
                format!("cannot read store root: {e}"),
            ));
            return diags;
        }
    };

    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
        match name.as_str() {
            "LOCK" if !is_dir => lint_lock(&path, &mut diags),
            "quarantine" if is_dir => lint_quarantine(&path, &mut diags),
            shard if is_dir && is_shard_name(shard) => lint_shard(&path, shard, &mut diags),
            _ => diags.push(
                Diagnostic::warn(
                    "BMP804",
                    path.display().to_string(),
                    "foreign entry in the store root — the store only writes \
                     LOCK, quarantine/ and two-hex-digit shard directories",
                )
                .with_suggestion("remove it, or move it out of the store tree"),
            ),
        }
    }
    diags
}

/// A shard directory name: exactly the two lowercase hex digits of the
/// key's top byte.
fn is_shard_name(name: &str) -> bool {
    name.len() == 2
        && name
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase())
}

fn lint_lock(path: &Path, diags: &mut Vec<Diagnostic>) {
    match read_lock(path) {
        Some(info) if info.alive => {} // live owner: normal during a run
        Some(info) => match info.pid {
            Some(pid) => diags.push(
                Diagnostic::warn(
                    "BMP803",
                    path.display().to_string(),
                    format!("stale lock: owner pid {pid} is dead; the next open breaks it"),
                )
                .with_suggestion("no action needed unless opens keep failing"),
            ),
            None => diags.push(Diagnostic::warn(
                "BMP803",
                path.display().to_string(),
                format!(
                    "malformed lock file (expected 'pid <n>', got {:?}); \
                     the next open breaks it",
                    info.owner
                ),
            )),
        },
        None => diags.push(Diagnostic::warn(
            "BMP803",
            path.display().to_string(),
            "unreadable lock file; the next open breaks it",
        )),
    }
}

fn lint_quarantine(dir: &Path, diags: &mut Vec<Diagnostic>) {
    let count = std::fs::read_dir(dir)
        .map(|it| it.flatten().count())
        .unwrap_or(0);
    if count > 0 {
        diags.push(
            Diagnostic::warn(
                "BMP802",
                dir.display().to_string(),
                format!(
                    "{count} quarantined record(s) awaiting recompute — each marks \
                     a past integrity failure the store refused to serve"
                ),
            )
            .with_suggestion(
                "re-run with BMP_STORE set to repopulate; delete the quarantine \
                 once investigated",
            ),
        );
    }
}

fn lint_shard(dir: &Path, shard: &str, diags: &mut Vec<Diagnostic>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        diags.push(Diagnostic::error(
            "BMP800",
            dir.display().to_string(),
            "cannot read shard directory",
        ));
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let locus = path.display().to_string();
        let name = entry.file_name().to_string_lossy().into_owned();

        if name.ends_with(".tmp") {
            diags.push(
                Diagnostic::warn(
                    "BMP804",
                    &locus,
                    "crash-leftover temporary file; the next open sweeps it",
                )
                .with_suggestion("no action needed"),
            );
            continue;
        }
        let Some(key) = key_from_file_name(&name) else {
            diags.push(Diagnostic::error(
                "BMP801",
                &locus,
                "filename is not <16-hex-digits>.rec — the store never wrote this",
            ));
            continue;
        };
        let want = record_rel_path(key);
        let want_shard = want
            .parent()
            .map(|p| p.display().to_string())
            .unwrap_or_default();
        if want_shard != shard {
            diags.push(Diagnostic::error(
                "BMP801",
                &locus,
                format!(
                    "record for key {key:016x} sits in shard {shard}/ but belongs \
                     in {want_shard}/ — lookups will never find it"
                ),
            ));
            // Still verify the bytes below: a misplaced record can also
            // be corrupt, and both findings matter.
        }
        match std::fs::read(&path) {
            Ok(bytes) => {
                if let Err(defect) = decode_record(key, &bytes) {
                    diags.push(
                        Diagnostic::error("BMP800", &locus, format!("corrupt record: {defect}"))
                            .with_suggestion(
                                "the store quarantines and recomputes this on its next \
                                 open; nothing will be served from it",
                            ),
                    );
                }
            }
            Err(e) => diags.push(Diagnostic::error(
                "BMP800",
                &locus,
                format!("unreadable record: {e}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::store::encode_record;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bmp_storelint_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_record(root: &Path, key: u64, payload: &[u8]) -> std::path::PathBuf {
        let rel = record_rel_path(key);
        let path = root.join(&rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode_record(key, payload)).unwrap();
        path
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_store_lints_clean() {
        let root = tmpdir("clean");
        std::fs::create_dir_all(root.join("quarantine")).unwrap();
        std::fs::write(root.join("LOCK"), format!("pid {}", std::process::id())).unwrap();
        write_record(&root, 0xdead_beef_0000_0001, b"payload");
        let diags = lint_store(&root);
        std::fs::remove_dir_all(&root).ok();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupt_and_misplaced_records_fire_800_and_801() {
        let root = tmpdir("corrupt");
        // Bit-flipped payload: checksum mismatch.
        let p = write_record(&root, 0x1100_0000_0000_0002, b"payload");
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&p, bytes).unwrap();
        // A record moved to the wrong shard.
        let good = write_record(&root, 0x2200_0000_0000_0003, b"ok");
        let wrong = root.join("ff");
        std::fs::create_dir_all(&wrong).unwrap();
        std::fs::rename(&good, wrong.join(good.file_name().unwrap())).unwrap();
        let diags = lint_store(&root);
        std::fs::remove_dir_all(&root).ok();
        let codes = codes(&diags);
        assert!(codes.contains(&"BMP800"), "{diags:?}");
        assert!(codes.contains(&"BMP801"), "{diags:?}");
    }

    #[test]
    fn quarantine_stale_lock_and_foreign_files_warn() {
        let root = tmpdir("warns");
        std::fs::create_dir_all(root.join("quarantine")).unwrap();
        std::fs::write(root.join("quarantine/x.rec.checksum"), b"junk").unwrap();
        // A pid that cannot be running (beyond pid_max on Linux).
        std::fs::write(root.join("LOCK"), "pid 4194304999").unwrap();
        std::fs::write(root.join("README"), b"what is this").unwrap();
        std::fs::create_dir_all(root.join("aa")).unwrap();
        std::fs::write(root.join("aa/leftover.tmp"), b"partial").unwrap();
        let diags = lint_store(&root);
        std::fs::remove_dir_all(&root).ok();
        let codes = codes(&diags);
        assert!(codes.contains(&"BMP802"), "{diags:?}");
        assert!(codes.contains(&"BMP803"), "{diags:?}");
        assert!(codes.contains(&"BMP804"), "{diags:?}");
        assert!(
            diags.iter().all(|d| d.severity != crate::Severity::Error),
            "these are all warnings: {diags:?}"
        );
    }
}
