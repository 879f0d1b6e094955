//! What the benchmark asks of the host: CPU pinning, resource usage, I/O
//! counters and a counting allocator. The only unsafe code in the package:
//! three libc calls declared by hand (no new dependency) and the
//! `GlobalAlloc` forwarding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations and requested bytes of every thread, then
/// forwards to the system allocator. Installed as the global allocator of
/// the benchmark binary only; on in every run, so both sides of a
/// comparison pay the same two relaxed adds per call.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are a side effect and
// never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocation calls, bytes requested)` since process start, all threads.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Resource usage of the whole process (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: u64,
    /// Peak resident set, KiB.
    pub max_rss_kib: u64,
    /// Voluntary context switches.
    pub voluntary_switches: u64,
}

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
        /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
        pub rest: [i64; 14],
    }

    /// CPU sets of up to 1024 CPUs, as the kernel reads them.
    pub const MASK_WORDS: usize = 16;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Pins the calling thread (and every thread it spawns afterwards) to the
/// highest-numbered CPU it is allowed to run on. Returns that CPU, or
/// `None` when the host refuses — the run then proceeds unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut mask = [0u64; ffi::MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes.
    if unsafe { ffi::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
    let mut one = [0u64; ffi::MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes; pid 0 names
    // the calling thread.
    (unsafe { ffi::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_highest_cpu() -> Option<usize> {
    None
}

#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    let mut ru = ffi::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage`; 0 is RUSAGE_SELF.
    if unsafe { ffi::getrusage(0, &mut ru) } != 0 {
        return Usage::default();
    }
    let micros = |tv: [i64; 2]| (tv[0].max(0) as u64) * 1_000_000 + tv[1].max(0) as u64;
    Usage {
        cpu_us: micros(ru.utime) + micros(ru.stime),
        max_rss_kib: ru.rest[0].max(0) as u64,
        voluntary_switches: ru.rest[12].max(0) as u64,
    }
}

#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    Usage::default()
}

/// Peak resident set of this program image in KiB: `VmHWM` of
/// `/proc/self/status`, falling back to `ru_maxrss`. The two differ under
/// `cargo run`: `ru_maxrss` survives `exec`, so it starts at the resident
/// set of the `cargo` process that forked the benchmark (about 25 MiB),
/// which would hide every workload smaller than that.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or_else(|| usage().max_rss_kib)
}

/// `(packets, bytes)` received on the loopback interface since boot, from
/// `/proc/net/dev`, or `None` where the file or the interface is missing.
/// Socket traffic is invisible to `/proc/self/io` (std sends and receives
/// with `send`/`recv`, which task I/O accounting does not count), so this
/// is the nearest counter readable from outside the program. It covers
/// the whole network namespace, not this process alone.
pub fn loopback() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/net/dev").ok()?;
    let line = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))?;
    let mut fields = line.split_whitespace().map(|f| f.parse::<u64>().ok());
    let bytes = fields.next()??;
    let packets = fields.next()??;
    Some((packets, bytes))
}

/// Online CPUs, the kernel release and the compiler, for report headers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Standard output of a helper command, or `unknown` when it cannot run.
pub fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}
