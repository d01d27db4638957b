//! Timing statistics and process-memory probes.

use std::time::Duration;

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nearest-rank percentile (`p` in `0..=100`) of `samples`; `0.0` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (mean of the middle two for even counts); `0.0`
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`).
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set size since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Current resident set size, in MiB.
pub fn rss_mib() -> f64 {
    status_kb("VmRSS").unwrap_or(0) as f64 / 1024.0
}

/// Resets the `VmHWM` high-water mark to the current RSS (writing `5` to
/// `/proc/self/clear_refs`), so each workload measures only its own peak.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Returns free heap pages to the OS, so that an RSS delta taken next
/// counts new allocations instead of reused ones.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
        // memory the allocator holds free; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
