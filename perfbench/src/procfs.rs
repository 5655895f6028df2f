//! Readers for `/proc`: process CPU time, peak resident set, host steal.

use std::io;

/// `USER_HZ`, the unit of the CPU times in `/proc/<pid>/stat` and
/// `/proc/stat`; fixed at 100 by the Linux user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// User plus system CPU time of every thread of `pid`, in seconds.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // the command name may hold spaces and parentheses; fields resume
    // after the last ')', starting at field 3 (state)
    let rest = &stat[stat.rfind(')').ok_or_else(|| bad("stat: no ')'"))? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("stat: short line"))
    };
    // utime and stime are fields 14 and 15 of the full line
    Ok((field(11)? + field(12)?) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| bad("status: no VmHWM"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("status: bad VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Host-wide CPU steal, in ticks since boot (the eighth value of the
/// `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> io::Result<u64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or_else(|| bad("/proc/stat: no cpu line"))?;
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("/proc/stat: no steal column"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        steal_ticks().unwrap();
    }
}
