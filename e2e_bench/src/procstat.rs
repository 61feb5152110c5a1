//! Process-level readings from `/proc/self`: CPU time and peak memory.

use std::time::Instant;

/// Kernel clock ticks per second as `/proc/self/stat` reports them; Linux
/// fixes the user-visible value at 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// The process clock every span and phase is stamped with.
#[derive(Debug, Clone, Copy)]
pub struct ProcClock(Instant);

impl ProcClock {
    pub fn start() -> Self {
        ProcClock(Instant::now())
    }

    pub fn now_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

/// `utime + stime` of the whole process (every thread, including exited
/// ones) in milliseconds.
pub fn cpu_ms() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 * 1e3 / TICKS_PER_SECOND)
        .ok_or_else(|| "unexpected /proc/self/stat format".to_string())
}

/// Fields 14 and 15, counted after the parenthesised command name (which
/// may itself contain spaces and parentheses).
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM`: the peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_hostile_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(12));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_line() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t  20480 kB\nVmRSS:\t1 kB\n"),
            Some(20480)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_ms().unwrap() >= 0.0);
    }
}
