//! Host-side measurements: process CPU time and peak resident memory
//! (`getrusage(2)`), and the host fingerprint recorded with every result.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// Resource usage of this process or of its waited-for children.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set in MB (the largest child's, for children).
    pub peak_rss_mb: f64,
}

fn usage(who: c_int) -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` (the #[repr(C)]
    // layout above matches Linux's), and `who` is RUSAGE_SELF or
    // RUSAGE_CHILDREN, both of which getrusage accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage rejected a valid request");
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(ru.ru_utime) + secs(ru.ru_stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
    }
}

/// This process's usage so far.
pub fn self_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Usage summed over every child process waited for so far.
pub fn children_usage() -> Usage {
    usage(RUSAGE_CHILDREN)
}

/// What a later reader needs to tell a host change from a code change.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub revision: &'static str,
}

impl Fingerprint {
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            revision: env!("PERFBENCH_GIT_REVISION"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = self_usage();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = self_usage();
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.peak_rss_mb > 0.0);
    }
}
