//! The host record printed with every result, and the process memory
//! readings behind `peak_rss_mb`.

use std::fs;

/// The host facts every speed figure is recorded with.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to this process (`nproc`).
    pub host_threads: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// Compiler that built this binary.
    pub rustc: String,
}

impl Host {
    /// Reads the host facts; unknown fields read `unknown`.
    pub fn detect() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        Self {
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
        }
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading is
/// the peak of what runs in between. Where the kernel does not allow it,
/// the mark keeps rising and a phase peak reads as the process peak.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has run, all threads, as the kernel
/// accounts them (time the hypervisor steals is not included).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}
