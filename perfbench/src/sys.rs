//! Process-level measurements: peak resident memory of this process and of
//! a child, and the machine facts recorded with every result.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak-RSS mark to the current resident size, so that input
/// generation before the measured requests does not set the peak. Best
/// effort: kernels without the control leave the mark unchanged.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one child process ended.
pub struct ChildRun {
    pub wall: Duration,
    /// `Some(code)` for a normal exit, `None` when killed by a signal.
    pub exit_code: Option<i32>,
    pub peak_rss_mb: f64,
}

/// Spawn `cmd` with its output discarded, reap it with `wait4`, and report
/// its wall time (spawn to reap), exit code and peak resident memory.
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waits on it, since
    // `child` is dropped without `wait`), and both out-pointers are valid,
    // exclusively borrowed locals of the layouts the kernel writes.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = t0.elapsed();
    drop(child);
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall,
        exit_code,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

/// CPU cache sizes of cpu0 as `L1d=48K L1i=32K L2=2048K ...`.
pub fn cpu_caches() -> String {
    let mut out = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .map(|s| s.trim().to_string())
                .ok()
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let tag = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{tag}={size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
