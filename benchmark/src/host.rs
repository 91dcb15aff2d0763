//! What the benchmark reads off the host: the peak resident set and the
//! steal counter.

/// `VmHWM` (peak resident set) in MB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_jiffies(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

pub fn cpu_jiffies() -> Option<(u64, u64)> {
    parse_cpu_jiffies(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tkge-benchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12\n"), None);
    }

    #[test]
    fn parses_steal() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 3 17 0 0\n";
        assert_eq!(parse_cpu_jiffies(stat), Some((35, 1000)));
        assert_eq!(parse_cpu_jiffies("intr 1 2 3\n"), None);
        assert_eq!(parse_cpu_jiffies("cpu  1 2 3\n"), None);
    }
}
