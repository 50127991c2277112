//! Process counters from Linux `/proc`. Each reader returns `None` when
//! the file or field is missing, so the benchmark still runs elsewhere
//! (reporting 0 for these counters).

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Voluntary + involuntary context switches of the calling thread.
pub fn thread_ctx_switches() -> Option<u64> {
    let path = "/proc/thread-self/status";
    Some(
        status_field(path, "voluntary_ctxt_switches:")?
            + status_field(path, "nonvoluntary_ctxt_switches:")?,
    )
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    Some(status_field("/proc/self/status", "VmHWM:")? as f64 / 1024.0)
}
