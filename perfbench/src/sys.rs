//! Process-level resource readings from `/proc/self` (Linux).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let ticks: u64 = fields[11..13]
        .iter()
        .map(|f| f.parse::<u64>().expect("numeric cpu field"))
        .sum();
    ticks as f64 / USER_HZ
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present");
    kib / 1024.0
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// size, so the next [`peak_rss_mb`] covers only what runs in between.
/// Without kernel support the peak keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
