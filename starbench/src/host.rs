//! What produced a result: commit, toolchain and machine, plus the
//! process's CPU pinning and peak resident memory.

use crate::json::Json;
use std::process::Command;

/// The kernel's `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Where the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpus {
    /// CPUs the process was allowed before pinning.
    pub allowed: usize,
    /// The one CPU it was pinned to, if pinning succeeded.
    pub pinned: Option<usize>,
}

/// Pins the calling thread, and every thread it spawns later, to the
/// highest-numbered CPU it may use. `std::thread::available_parallelism`
/// then reports 1, so the rayon shim runs its work inline instead of
/// spawning a thread per core on every parallel call.
///
/// On a failure the thread stays unpinned and `pinned` is `None`.
#[must_use]
pub fn pin_to_one_cpu() -> Cpus {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Cpus {
            allowed: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            pinned: None,
        };
    }
    let allowed = mask.iter().map(|w| w.count_ones() as usize).sum();
    let pinned = (0..1024).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
    let pinned = pinned.filter(|&cpu| {
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
    });
    Cpus { allowed, pinned }
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

/// Commit (`git rev-parse HEAD` of the working directory only, else
/// `"unknown"`), `rustc -V`, the CPUs the process was allowed, the one
/// it runs on, and the rayon shim's thread count (one per core of the
/// current affinity mask).
#[must_use]
pub fn provenance(cpus: Cpus) -> Json {
    let cwd = std::env::current_dir().ok();
    // Stop git at the working directory: a checkout that is not a
    // repository must not pick up the commit of an enclosing one.
    let ceiling = cwd
        .as_deref()
        .and_then(std::path::Path::parent)
        .map(|p| p.as_os_str().to_owned())
        .unwrap_or_default();
    let commit = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let shim = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("nproc", Json::Num(cpus.allowed as f64)),
        (
            "pinned_cpu",
            cpus.pinned.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("shim_threads", Json::Num(shim as f64)),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
