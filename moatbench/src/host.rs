//! Host facts for the sidecar (CPU model, scheduler accounting, peak
//! RSS) and the RAM-backed file that keeps trace recording off disk.

use std::fs::File;
use std::io;
use std::path::PathBuf;

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("MOATBENCH_RUSTC")
}

/// The checked-out commit, read from `.git` under the current directory
/// (the benchmark runs from the repository root), or `"unknown"` when
/// the checkout carries no git metadata.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// This thread's scheduler accounting: (ns on CPU, ns runnable but
/// waiting for a CPU), from `/proc/thread-self/schedstat`.
pub fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = s.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

fn status_field(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_field("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Threads in this process.
pub fn threads() -> Option<u64> {
    status_field("Threads:")
}

/// An anonymous RAM-backed file (`memfd_create`): recorded traces live
/// in memory, so setup writes nothing to disk and nothing outside the
/// process. The moat-trace API takes paths; [`path`](Self::path) names
/// the file through `/proc/self/fd`. Linux only, like the rest of
/// this module.
#[derive(Debug)]
pub struct RamFile {
    file: File,
}

impl RamFile {
    /// Creates an empty RAM-backed file.
    ///
    /// # Errors
    ///
    /// Propagates the `memfd_create` error.
    pub fn new(name: &str) -> io::Result<RamFile> {
        use std::ffi::{c_char, c_int, c_uint, CString};
        use std::os::fd::FromRawFd;
        extern "C" {
            fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
        }
        const MFD_CLOEXEC: c_uint = 1;
        let name =
            CString::new(name).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        // SAFETY: `name` is a valid NUL-terminated string that outlives
        // the call, and `memfd_create` has no other preconditions.
        let fd = unsafe { memfd_create(name.as_ptr(), MFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `memfd_create`, is open, and
        // is owned by nothing else.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(RamFile { file })
    }

    /// A path that opens this file (valid while `self` lives).
    pub fn path(&self) -> PathBuf {
        use std::os::fd::AsRawFd;
        PathBuf::from(format!("/proc/self/fd/{}", self.file.as_raw_fd()))
    }
}
