//! The host label printed with every result, and the process's peak
//! resident memory.

/// `nproc` (CPUs this process may use), CPUs online, CPU model and the
/// CPUs this process may run on. A result is only comparable with another
/// taken under the same label.
pub fn label() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let online = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let allowed = status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into());
    let pinned = if allowed.contains([',', '-']) {
        "no"
    } else {
        "yes"
    };
    format!("host: nproc={nproc} online={online} cpu=\"{model}\" cpus_allowed={allowed} pinned={pinned}")
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn status_field(key: &str) -> Option<String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)?
                .strip_prefix(':')
                .map(|v| v.trim().to_string())
        })
}
