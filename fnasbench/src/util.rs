//! Process probes, order statistics, provenance and the result line.

use std::fmt::Write as _;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fnasbench reads `struct rusage` with the 64-bit Linux layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User + system CPU seconds of this process so far, summed over every
/// thread (`getrusage(RUSAGE_SELF)`).
pub fn cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux (checked by the compile_error above),
    // and RUSAGE_SELF is always an accepted `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(ru.utime) + secs(ru.stime)
}

/// Peak resident set of this process image in MiB (`VmHWM`). Unlike
/// `ru_maxrss`, it does not inherit the peak of the process that spawned
/// the benchmark.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set (`clear_refs` value 5, Linux 4.0 and later), so that the
/// next [`peak_rss_mb`] reads the peak since this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The commit the checkout was taken from, read from `.git` without
/// spawning git; `unknown` outside a git work tree.
pub fn git_rev() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&Path::new(".git").join(name)) {
        return rev.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's last output line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
