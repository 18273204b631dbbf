//! Dependency-free readers for the process counters the benchmark reports:
//! `/proc/self/io`, `/proc/self/stat` and `/proc/self/status`, plus the
//! process-wide context-switch count from `getrusage`.
//!
//! Each parser takes the file's text, so the unit tests feed canned
//! contents and the live readers stay thin.

/// Clock ticks per second of the `stat` time fields (`sysconf(_SC_CLK_TCK)`,
/// fixed at 100 on Linux's user ABI).
const TICKS_PER_S: f64 = 100.0;

/// The `/proc/self/io` fields the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    /// Bytes passed to `read`-family syscalls (`rchar`).
    pub rchar: u64,
    /// Bytes passed to `write`-family syscalls (`wchar`).
    pub wchar: u64,
    /// `write`-family syscalls made (`syscw`).
    pub syscw: u64,
}

/// The CPU-time fields of `/proc/self/stat`, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User plus system time of this process's threads, live and exited.
    pub self_s: f64,
    /// System time alone of this process's threads.
    pub sys_s: f64,
    /// User plus system time of reaped children.
    pub children_s: f64,
}

impl Cpu {
    /// Everything: the process and its reaped children.
    pub fn total_s(&self) -> f64 {
        self.self_s + self.children_s
    }
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Parse the text of `/proc/<pid>/io`.
pub fn parse_io(text: &str) -> Option<Io> {
    Some(Io {
        rchar: field(text, "rchar")?,
        wchar: field(text, "wchar")?,
        syscw: field(text, "syscw")?,
    })
}

/// Parse the text of `/proc/<pid>/stat`. The command name sits in
/// parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Cpu> {
    let after = &text[text.rfind(')')? + 1..];
    // Fields after the name start at field 3 (`state`); utime is field 14.
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick =
        |i: usize| -> Option<f64> { Some(f.get(i - 3)?.parse::<u64>().ok()? as f64 / TICKS_PER_S) };
    let (utime, stime, cutime, cstime) = (tick(14)?, tick(15)?, tick(16)?, tick(17)?);
    Some(Cpu { self_s: utime + stime, sys_s: stime, children_s: cutime + cstime })
}

/// Parse the peak resident set size (`VmHWM`, in kB) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    field(text, "VmHWM")
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Current `/proc/self/io` counters (zero where the kernel hides them).
pub fn io() -> Io {
    parse_io(&read("/proc/self/io")).unwrap_or_default()
}

/// Current CPU times of this process and its reaped children.
pub fn cpu() -> Cpu {
    parse_stat(&read("/proc/self/stat")).unwrap_or_default()
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    parse_vm_hwm_kb(&read("/proc/self/status")).unwrap_or(0) as f64 / 1024.0
}

/// Voluntary context switches of every thread this process has run,
/// including exited ones. `/proc/self/status` reports only the main
/// thread's count, which misses the runner's worker threads, so this comes
/// from `getrusage(RUSAGE_SELF)`.
pub fn voluntary_ctxsw() -> u64 {
    // x86-64 / aarch64 Linux `struct rusage`: two `struct timeval`s (two
    // i64 each) followed by fourteen longs; `ru_nvcsw` is the 13th long.
    const NVCSW: usize = 4 + 12;
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of exactly `sizeof(struct
    // rusage)` (144 bytes) on 64-bit Linux, and RUSAGE_SELF (0) is a valid
    // `who`; getrusage writes only inside that buffer.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        u64::try_from(usage[NVCSW]).unwrap_or(0)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IO: &str = "rchar: 123456\nwchar: 7890\nsyscr: 42\nsyscw: 17\n\
                      read_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n";

    #[test]
    fn io_fields_parse() {
        assert_eq!(parse_io(IO), Some(Io { rchar: 123_456, wchar: 7890, syscw: 17 }));
        assert_eq!(parse_io("rchar: 1\n"), None);
    }

    #[test]
    fn stat_times_parse_past_a_name_with_spaces_and_parens() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime cutime cstime ...
        let text = "4242 (we (ird) name) R 1 2 3 4 5 6 7 8 9 10 250 50 30 20 20 0 1 0 99\n";
        let cpu = parse_stat(text).expect("well-formed");
        assert_eq!(cpu, Cpu { self_s: 3.0, sys_s: 0.5, children_s: 0.5 });
        assert_eq!(cpu.total_s(), 3.5);
        assert_eq!(parse_stat("4242 (short) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parses_in_kb() {
        let text = "Name:\tperf\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1000 kB\n\
                    voluntary_ctxt_switches:\t12\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(51_200));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = io();
        std::fs::read_to_string("/proc/self/stat").expect("procfs mounted");
        assert!(io().rchar > before.rchar);
        assert!(voluntary_ctxsw() < u64::MAX);
    }
}
