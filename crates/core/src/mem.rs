//! Process-memory probes (Linux `/proc`).

/// Current resident set size in bytes, if readable.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_field("VmRSS:")
}

/// Peak resident set size in bytes, if readable. This is the process
/// high-water mark: it covers everything the process ran since it
/// started, so a sketch's own peak needs a process of its own.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_field("VmHWM:")
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
