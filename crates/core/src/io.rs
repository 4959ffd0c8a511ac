//! Crash-safe file IO shared by every writer in the workspace.
//!
//! The single primitive is [`write_atomic`]: same-directory temp file,
//! fsync, atomic rename. It started life in the bench crate (PR 4) and
//! moved here so the persistent artifact store ([`crate::store`]), the
//! run journal and the experiment harness all share one write
//! discipline; `bmp_bench::write_atomic` re-exports it unchanged.

use std::io::Write as _;
use std::path::Path;

/// Writes `bytes` to `path` crash-safely: the data goes to a temporary
/// file in the same directory, is fsynced, and is atomically renamed
/// over `path`. A crash at any point leaves either the old complete file
/// or the new complete file — never a torn one.
///
/// # Errors
///
/// Returns the underlying I/O error from any step; the temporary file is
/// cleaned up on failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic needs a file path"))?;
    // Same-directory temp name, unique per process so concurrent writers
    // of *different* files never collide.
    let tmp = path.with_file_name(format!(
        ".{}.{}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Flush file contents to stable storage before the rename makes
        // them visible under the real name.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Best-effort directory fsync so the rename itself is durable; not
    // all platforms/filesystems allow opening a directory for sync.
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_and_leaves_no_temp_droppings() {
        let tmp = std::env::temp_dir().join("bmp_core_atomic_test");
        std::fs::create_dir_all(&tmp).unwrap();
        let path = tmp.join("out.bin");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let leftovers: Vec<_> = std::fs::read_dir(&tmp)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        std::fs::remove_dir_all(&tmp).ok();
        assert!(leftovers.is_empty(), "no temp files survive a write");
    }

    #[test]
    fn failure_keeps_the_old_file() {
        let tmp = std::env::temp_dir().join("bmp_core_atomic_fail_test");
        std::fs::create_dir_all(&tmp).unwrap();
        let path = tmp.join("out.bin");
        write_atomic(&path, b"precious").unwrap();
        // Renaming over a path whose parent component is a *file* must
        // fail without touching the original.
        let bad = tmp.join("out.bin").join("nested.bin");
        assert!(write_atomic(&bad, b"x").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn bare_filename_in_cwd_shape_is_rejected_or_ok() {
        // A path with no file name is an error, not a panic.
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
