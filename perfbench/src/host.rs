//! Host facts every result carries, and the peak-memory probe.

/// The SIMD path the smoothing kernels dispatch to on this host — the
/// same runtime feature test `lms_smooth::soa` and the sweep kernels use.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            "avx"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(target_os = "linux")]
mod rusage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` of Linux on 64-bit targets: two timevals, then 14
    /// longs of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;

    fn max_rss_kib(who: i32) -> Option<u64> {
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable value whose layout matches
        // the kernel's `struct rusage` on 64-bit Linux; getrusage writes
        // only within it and `who` is one of the two documented selectors.
        let rc = unsafe { getrusage(who, &mut usage) };
        (rc == 0).then(|| u64::try_from(usage.maxrss).unwrap_or(0))
    }

    /// Peak RSS of this process plus that of its largest reaped child.
    pub fn peak_rss_kib() -> Option<u64> {
        Some(max_rss_kib(RUSAGE_SELF)? + max_rss_kib(RUSAGE_CHILDREN)?)
    }
}

/// Peak resident memory in MiB: this process's high-water mark plus the
/// largest reaped child's (the forked rank processes of `tet-dist`).
/// `None` where the probe is unsupported.
pub fn peak_rss_mb() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        rusage::peak_rss_kib().map(|kib| kib as f64 / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}
