//! Process and host readings: CPU time, peak RSS, host steal time.
//!
//! Linux only — the readings come from `clock_gettime` and `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `CLOCK_PROCESS_CPUTIME_ID` is a clock every Linux kernel provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The process's peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-wide CPU jiffies from the first line of `/proc/stat`: the steal
/// column and the total of all columns up to and including it.
#[derive(Clone, Copy, Debug)]
pub struct CpuJiffies {
    steal: u64,
    total: u64,
}

impl CpuJiffies {
    /// Reads the current counters.
    pub fn now() -> CpuJiffies {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .expect("/proc/stat has a cpu line")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().expect("numeric /proc/stat field"))
            .collect();
        CpuJiffies {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Steal time as a percentage of all CPU time since `earlier`.
    pub fn steal_pct_since(self, earlier: CpuJiffies) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
