//! Time and resource sources: a calibrated cycle counter for per-call
//! timings and spans, process CPU time and peak resident set from procfs.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Reads the time-stamp counter (ordered after earlier loads by `lfence`),
/// or nanoseconds since the process epoch off x86-64.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `lfence` (SSE2) and `rdtsc` are part of the x86-64 baseline
    // and have no memory-safety preconditions.
    unsafe {
        core::arch::x86_64::_mm_lfence();
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Measures the tick rate against the monotonic clock over `window`. Call
/// once at start-up, before any conversion.
pub fn calibrate(window: Duration) {
    EPOCH.get_or_init(Instant::now);
    let (t0, c0) = (Instant::now(), ticks());
    while t0.elapsed() < window {
        core::hint::spin_loop();
    }
    let (t1, c1) = (Instant::now(), ticks());
    let ns = (t1 - t0).as_nanos() as f64;
    let _ = NS_PER_TICK.set(ns / (c1 - c0).max(1) as f64);
}

/// Nanoseconds per tick (1.0 before calibration).
pub fn ns_per_tick() -> f64 {
    NS_PER_TICK.get().copied().unwrap_or(1.0)
}

/// Converts a tick count to nanoseconds.
pub fn to_ns(ticks: u64) -> f64 {
    ticks as f64 * ns_per_tick()
}

/// Busy-waits `ns` nanoseconds on the tick counter (no clock syscalls, so
/// intervals well below the `Instant` read cost are honoured).
#[inline]
pub fn spin_ns(ns: f64) {
    let deadline = ticks() + (ns / ns_per_tick()) as u64;
    while ticks() < deadline {
        core::hint::spin_loop();
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// The `model name` line of `/proc/cpuinfo`, for the host record.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
