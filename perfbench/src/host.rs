//! Host facts the results are read against: memory high-water marks,
//! worker CPU time and the filesystem the campaign directory lives on.

use std::path::Path;
use std::time::Duration;

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn self_peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Resource use of every child process this process has waited for:
/// the largest child's peak RSS (KiB) and their summed CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildUsage {
    pub max_rss_kib: u64,
    pub cpu: Duration,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn child_usage() -> ChildUsage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
    /// microseconds) followed by fourteen `long`s, `ru_maxrss` first.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage::default();
    // SAFETY: `getrusage` writes exactly one `struct rusage` through the
    // pointer, and `RUsage` has that struct's size and layout on 64-bit
    // Linux (the cfg above); the pointer is to a live, writable local.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return ChildUsage::default();
    }
    let micros = |tv: [i64; 2]| (tv[0].max(0) as u64) * 1_000_000 + tv[1].max(0) as u64;
    ChildUsage {
        max_rss_kib: usage.maxrss.max(0) as u64,
        cpu: Duration::from_micros(micros(usage.utime) + micros(usage.stime)),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn child_usage() -> ChildUsage {
    ChildUsage::default()
}

/// Pins the calling thread, and the threads it starts from now on, to
/// the CPU it is running on; returns that CPU. Each vCPU of a shared host
/// drifts in speed on its own, so a calibration only speaks for the
/// samples around it when both run on the same one.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the pointer is to a live array of `size` bytes, a valid
    // `cpu_set_t` of 1024 CPUs; pid 0 is the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (pinned == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// The filesystem type (`ext4`, `tmpfs`, ...) of the mount holding
/// `dir`, from the longest matching mount point in `/proc/mounts`.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
