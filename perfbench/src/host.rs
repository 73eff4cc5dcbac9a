//! Host and process probes read from the kernel's `/proc` interface:
//! steal and busy time, process CPU time, peak RSS, and the provenance
//! recorded with every result.

use std::path::Path;

/// Kernel clock ticks per second for `/proc` CPU times (USER_HZ).
const TICKS_PER_S: f64 = 100.0;

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// All ticks.
    pub total: u64,
    /// Idle plus iowait.
    pub idle: u64,
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
}

impl CpuTicks {
    /// Read the current counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user/nice).
        let f: Vec<u64> = line.split_whitespace().skip(1).map(|x| x.parse().unwrap_or(0)).collect();
        let get = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks { total: (0..8).map(get).sum(), idle: get(3) + get(4), steal: get(7) }
    }

    /// `(steal fraction, busy fraction)` of the host between two readings.
    pub fn fractions(&self, later: &CpuTicks) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total) as f64;
        if total == 0.0 {
            return (0.0, 0.0);
        }
        let steal = later.steal.saturating_sub(self.steal) as f64;
        let idle = later.idle.saturating_sub(self.idle) as f64;
        (steal / total, (total - idle - steal).max(0.0) / total)
    }

    /// Stolen seconds between two readings, summed over CPUs.
    pub fn steal_s(&self, later: &CpuTicks) -> f64 {
        later.steal.saturating_sub(self.steal) as f64 / TICKS_PER_S
    }
}

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The CPU model name.
pub fn cpu_model() -> String {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_string() };
    let text = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let Some(mount) = fields.nth(4) else { continue };
        let Some((_, tail)) = line.split_once(" - ") else { continue };
        let fstype = tail.split_whitespace().next().unwrap_or("unknown");
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t).unwrap_or_else(|| "unknown".to_string())
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
