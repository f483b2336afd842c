//! Resident-memory readers (`/proc/self/status` on Linux; 0 elsewhere).

use std::path::Path;

const STATUS: &str = "/proc/self/status";

/// The `kB` value of `key` (e.g. `VmHWM`) in a `/proc/<pid>/status`
/// text; 0 when the key is absent or malformed.
pub fn status_kb(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let (k, rest) = line.split_once(':')?;
            if k.trim() != key {
                return None;
            }
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// `key` from the status file at `path`, in MB; 0 when the file cannot be
/// read (any platform without procfs).
pub fn read_mb(path: &Path, key: &str) -> f64 {
    std::fs::read_to_string(path).map_or(0.0, |t| status_kb(&t, key) as f64 / 1024.0)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    read_mb(Path::new(STATUS), "VmHWM")
}

/// Current resident set size of this process (VmRSS), in MB.
pub fn rss_mb() -> f64 {
    read_mb(Path::new(STATUS), "VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str =
        "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t    10240 kB\n";

    #[test]
    fn parses_status_fields() {
        assert_eq!(status_kb(SAMPLE, "VmHWM"), 20480);
        assert_eq!(status_kb(SAMPLE, "VmRSS"), 10240);
        assert_eq!(status_kb(SAMPLE, "VmSwap"), 0);
        assert_eq!(status_kb("VmHWM:\tlots kB\n", "VmHWM"), 0);
    }

    #[test]
    fn missing_status_file_reads_zero() {
        let absent = Path::new("/nonexistent/perfbench/status");
        assert_eq!(read_mb(absent, "VmHWM"), 0.0);
        assert_eq!(read_mb(absent, "VmRSS"), 0.0);
    }

    #[test]
    fn live_readers_are_consistent() {
        // RSS first: the later peak reading must cover it.
        let now = rss_mb();
        let peak = peak_rss_mb();
        if Path::new(STATUS).exists() {
            assert!(peak > 0.0 && now > 0.0 && peak >= now);
        } else {
            assert_eq!((peak, now), (0.0, 0.0));
        }
    }
}
