//! Crash-safe artifact I/O: the one way this workspace writes a file.
//!
//! A bare `std::fs::write` can tear: a crash (or `kill -9`) between the
//! open and the final flush leaves a half-written `sweep.json` that a
//! later reader trusts. [`write_atomic`] closes that window with the
//! classic protocol:
//!
//! 1. write the full contents to a **temporary sibling** (same
//!    directory, so the final rename cannot cross filesystems),
//! 2. `fsync` the temporary file (contents durable before visible),
//! 3. `rename` over the destination (atomic on POSIX — readers see the
//!    old bytes or the new bytes, never a mix),
//! 4. best-effort `fsync` of the containing directory (the rename
//!    itself durable across power loss).
//!
//! The temporary name embeds the writing PID, so concurrent campaign
//! processes sharing a directory never collide, and a crashed writer's
//! leftover is recognizable (see [`is_atomic_tmp`]) and safe to sweep
//! up on resume. Each step carries a [`failpoint`](crate::failpoint)
//! hook (`atomic.write`, `atomic.fsync`, `atomic.rename`) so the
//! crash-resume tests can fault any stage of the protocol.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::failpoint::failpoint;

/// Marker embedded in temporary sibling names: `<name>.tmp.<pid>`.
const TMP_MARKER: &str = ".tmp.";

/// Whether a file name looks like a [`write_atomic`] temporary — a
/// leftover from a writer that died before its rename. Such files carry
/// no committed data and are safe to delete **once their writer is
/// dead**; use [`atomic_tmp_pid`] + [`pid_alive`] before sweeping a
/// directory that concurrent worker processes may be writing into.
pub fn is_atomic_tmp(path: &Path) -> bool {
    path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.contains(TMP_MARKER))
}

/// The PID embedded in a [`write_atomic`] temporary's name
/// (`<name>.tmp.<pid>`), or `None` if the name is not a recognizable
/// temporary. Multi-process campaigns use this to sweep only the
/// leftovers of *dead* writers: a live worker's in-flight temporary must
/// never be deleted out from under its rename.
pub fn atomic_tmp_pid(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?;
    let at = name.rfind(TMP_MARKER)?;
    name[at + TMP_MARKER.len()..].parse().ok()
}

/// Whether a process with this PID is currently alive on this host.
/// Reads `/proc/<pid>` where procfs exists; on hosts without procfs
/// every PID reads as dead — the single-process behavior, where any
/// leftover temporary belongs to a previous (finished) run.
pub fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").is_dir() && Path::new(&format!("/proc/{pid}")).exists()
}

fn tmp_sibling(path: &Path) -> io::Result<PathBuf> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other(format!("write_atomic: bad path {}", path.display())))?;
    Ok(path.with_file_name(format!("{name}{TMP_MARKER}{}", std::process::id())))
}

/// Atomically replaces `path` with `contents`: tmp sibling → fsync →
/// rename → directory fsync. On any failure the temporary is removed
/// and `path` is untouched (old bytes, or absent if it never existed).
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path)?;
    let result = (|| {
        failpoint("atomic.write")?;
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_ref())?;
        failpoint("atomic.fsync")?;
        file.sync_all()?;
        drop(file);
        failpoint("atomic.rename")?;
        fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Best-effort directory fsync: makes the rename durable. Some
/// filesystems refuse to fsync a directory handle; that only weakens
/// power-loss durability, never atomicity, so errors are ignored.
fn sync_parent_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{arm_failpoints, disarm_failpoints, test_gate};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prefender-fsio-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn leftovers(dir: &Path) -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| is_atomic_tmp(p))
            .collect()
    }

    #[test]
    fn writes_and_overwrites_leaving_no_tmp() {
        let _g = test_gate();
        disarm_failpoints();
        let dir = scratch_dir("roundtrip");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        assert!(leftovers(&dir).is_empty(), "no tmp siblings survive success");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_failure_preserves_old_bytes_and_cleans_tmp() {
        let _g = test_gate();
        let dir = scratch_dir("inject");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"committed").unwrap();
        for stage in ["atomic.write", "atomic.fsync", "atomic.rename"] {
            arm_failpoints(&format!("{stage}=err")).unwrap();
            let err = write_atomic(&path, b"torn?").unwrap_err();
            assert!(err.to_string().contains(stage), "{err}");
            assert_eq!(fs::read(&path).unwrap(), b"committed", "{stage} kept old bytes");
            assert!(leftovers(&dir).is_empty(), "{stage} left a tmp behind");
        }
        disarm_failpoints();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_names_are_recognizable() {
        assert!(is_atomic_tmp(Path::new("/x/sweep.json.tmp.1234")));
        assert!(!is_atomic_tmp(Path::new("/x/sweep.json")));
        assert!(!is_atomic_tmp(Path::new("/x/tmp")));
    }

    #[test]
    fn tmp_pids_parse_from_any_writer() {
        assert_eq!(atomic_tmp_pid(Path::new("/x/shard-00001.psd.tmp.999")), Some(999));
        assert_eq!(atomic_tmp_pid(Path::new("/x/a.tmp.1.tmp.42")), Some(42), "rightmost marker");
        assert_eq!(atomic_tmp_pid(Path::new("/x/sweep.json")), None);
        assert_eq!(atomic_tmp_pid(Path::new("/x/sweep.json.tmp.notapid")), None);
    }

    #[test]
    fn own_pid_is_alive_and_impossible_pids_are_dead() {
        if Path::new("/proc").is_dir() {
            assert!(pid_alive(std::process::id()), "the test process itself is alive");
        }
        // Linux pid_max tops out at 2^22; this PID can never exist.
        assert!(!pid_alive(4_000_000_000));
    }

    #[test]
    fn rejects_pathless_targets() {
        let _g = test_gate();
        disarm_failpoints();
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
