//! Process-memory probes (Linux `/proc`).

/// Current resident set size in bytes, if readable.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_field("VmRSS:")
}

/// Peak resident set size in bytes, if readable. This is the process
/// high-water mark: it covers everything the process ran since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_field("VmHWM:")
}

/// Resets the peak resident set size to the current one, so a process
/// that runs several sketches can read each one's own peak. Writes `5`
/// to `/proc/self/clear_refs`; returns whether the kernel accepted it
/// (Linux 4.0 or later).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn read_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(current_rss_bytes().unwrap_or(0) > 0);
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
