//! Process CPU time and peak memory, read from `/proc/self`.

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`, 100 on
/// every Linux ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are the 14th and 15th fields of the line, the
/// 12th and 13th after the name.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / TICKS_PER_SEC
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let plain = "4242 (bench) R 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                     731 45 0 0 20 0 3 0 1234567 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(731 + 45));
        // A name with spaces and a closing parenthesis must not shift fields.
        let hostile = plain.replace("(bench)", "(a b) c) d)");
        assert_eq!(parse_stat_cpu_ticks(&hostile), Some(731 + 45));
        assert_eq!(parse_stat_cpu_ticks("4242 (bench) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no name here"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\nVmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
