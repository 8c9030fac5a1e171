//! Process figures read from `/proc` (Linux).

/// Clock ticks per second of `/proc/<pid>/stat` CPU times on Linux.
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU seconds from a `/proc/<pid>/stat` file; `0.0` if
/// it cannot be read.
pub fn cpu_seconds(stat_path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = text.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds used by this process so far.
pub fn self_cpu_seconds() -> f64 {
    cpu_seconds("/proc/self/stat")
}

/// Peak resident memory of this process so far, MB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb("/proc/self/status")
}

/// Steal and total ticks of all CPUs from `/proc/stat`: the share of time
/// the host ran something else while this machine's CPUs wanted to run.
pub fn host_ticks() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// CPU use over a measured loop.
pub struct Usage {
    wall: std::time::Instant,
    cpu: f64,
    steal: f64,
    total: f64,
}

impl Usage {
    /// Starts measuring; `child_cpu` is the CPU time of a child process
    /// that does part of the work, if any.
    pub fn start(child_cpu: f64) -> Usage {
        let (steal, total) = host_ticks();
        Usage {
            wall: std::time::Instant::now(),
            cpu: self_cpu_seconds() + child_cpu,
            steal,
            total,
        }
    }

    /// CPU time ÷ (wall × nproc), and the host's steal share in %.
    pub fn finish(&self, child_cpu: f64) -> (f64, f64) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let cpu = self_cpu_seconds() + child_cpu - self.cpu;
        let (steal, total) = host_ticks();
        (
            cpu / (self.wall.elapsed().as_secs_f64() * nproc),
            100.0 * (steal - self.steal) / (total - self.total).max(1.0),
        )
    }
}
