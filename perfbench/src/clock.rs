//! Host clock, sample statistics and the process's peak memory.

use std::time::Instant;

/// Reads the host wall clock.
#[allow(clippy::disallowed_methods)] // host time is what the benchmark measures
pub fn now() -> Instant {
    // astra-lint: allow(wall-clock, the benchmark measures host time, not simulated time)
    Instant::now()
}

/// Seconds from `start` to now.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, since(start))
}

/// Median of `xs`: the middle value, or the mean of the middle pair.
/// Zero for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`. Zero for no
/// samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The nearest-rank 95th percentile of `xs` when at least ten samples
/// lie beyond it; with fewer samples no tail is measured and this is the
/// median.
pub fn tail95(xs: &[f64]) -> f64 {
    let rank = (0.95 * xs.len() as f64).ceil() as usize;
    if xs.len().saturating_sub(rank) >= 10 {
        percentile(xs, 95.0)
    } else {
        median(xs)
    }
}

/// Hands the allocator's free memory back to the OS, so the next
/// allocations fault their pages in as a fresh process's do. Without it,
/// glibc's adaptive thresholds made repeated set-ups switch between a
/// page-faulting and a page-reusing speed, nearly 2x apart, partway
/// through a run. A no-op where the C library is not glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only returns unused heap pages to the OS;
        // it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs a set-up `times` times in a row, each after dropping the previous
/// result and calling [`release_free_memory`]. Returns the last result
/// and the median of the seconds each call reported.
pub fn set_up_burst<T>(times: usize, mut set_up: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        release_free_memory();
        let (value, s) = set_up();
        secs.push(s);
        last = Some(value);
    }
    (last.expect("a burst runs at least once"), median(&secs))
}

/// One printable line: the median of `xs` next to every sample.
pub fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let samples: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "{name}: median {:.4} {unit} of {} samples [{}]",
        median(xs),
        xs.len(),
        samples.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`) in MB, or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}
