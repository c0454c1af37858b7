//! What Linux says about this process — CPU time, peak memory, context
//! switches — plus the one thing the ledger asks of it (run on a single
//! CPU) and the machine fingerprint that goes beside a set of numbers.
//!
//! Per-thread figures are read from `/proc`; the process CPU clock and the
//! CPU affinity have no `/proc` interface and no `std` one, so they go
//! through two `extern "C"` declarations of the C library `std` already
//! links (no crate).

use std::fs;
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Bytes in the CPU masks handed to the affinity calls: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
}

/// User + system CPU seconds of the whole process so far, every thread
/// included, exited ones too, at nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) and the clock id is a constant the
    // kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The CPUs this process (pid 0: the calling thread) may run on.
fn allowed_cpus() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is `MASK_WORDS * 8` writable bytes and that length is
    // what is passed; the kernel writes at most that many.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_cpus(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is `MASK_WORDS * 8` readable bytes and that length is
    // what is passed.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// The affinity the process started with, to be restored by
/// [`Pinned::release`].
pub struct Pinned {
    original: Option<[u64; MASK_WORDS]>,
}

/// Confines the calling thread — and every thread it spawns from now on —
/// to the highest-numbered CPU it is allowed on (CPU 0 takes most of a
/// guest's interrupts). Spread over several vCPUs, every message hand-over
/// wakes an idle vCPU through the hypervisor, which costs several times
/// the CPU per operation and is the host's to decide; on one CPU a
/// hand-over is a run-queue insert. Warns and continues if refused.
pub fn pin_to_one_cpu() -> Pinned {
    let original = allowed_cpus();
    let pinned = original.and_then(|mask| {
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set_cpus(&one).then_some(())
    });
    if pinned.is_none() {
        eprintln!(
            "shmem-ledger: could not confine the process to one CPU; timings will be noisier"
        );
    }
    Pinned { original }
}

impl Pinned {
    /// Gives the calling thread its original CPUs back (the one cell that
    /// measures thread scaling needs them).
    pub fn release(&self) {
        if let Some(mask) = &self.original {
            set_cpus(mask);
        }
    }
}

/// Lets `pause` pass without giving up the CPU: other threads of the
/// process still run (they preempt the spinner when they wake), but the
/// CPU never goes idle. On the guest the ledger was defined on, a vCPU
/// that idles for milliseconds is descheduled by the host, and whatever
/// ran next often found itself in a slow state — context switches 40 %
/// dearer, TCP throughput a third lower — for the following tenths of a
/// second; a CPU kept busy from the first round to the last stayed in one
/// state. So every pause inside a run is a spin.
pub fn busy_wait(pause: Duration) {
    let started = Instant::now();
    spin_until(|| started.elapsed() >= pause);
}

/// [`busy_wait`] for a condition instead of a duration.
pub fn spin_until(mut done: impl FnMut() -> bool) {
    while !done() {
        std::hint::spin_loop();
    }
}

/// The calling thread's kernel id.
pub fn thread_id() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread on Linux")
}

/// CPU seconds the live thread `tid` of this process has run, from the
/// scheduler's own nanosecond counter; `None` once it has exited.
pub fn task_cpu_s(tid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status_field(&status, "VmHWM:").expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

/// Voluntary context switches of every live thread of the process, summed.
/// A thread that exits takes its count with it, so difference this only
/// over an interval in which no thread ends.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// Median round trip, in microseconds, of 1 000 `mpsc` ping-pongs between
/// the calling thread and a helper — none of the repo's code, only the
/// scheduler hand-over every message of the net workloads also pays. A
/// run's rounds each take one reading; a round that reads far above the
/// run's best was disturbed by the host.
pub fn pingpong_us() -> f64 {
    const WARM: usize = 100;
    const PINGS: usize = 1000;
    let (to_helper, helper_rx) = mpsc::channel::<u32>();
    let (to_me, my_rx) = mpsc::channel::<u32>();
    let mut rtts: Vec<u64> = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(n) = helper_rx.recv() {
                if to_me.send(n).is_err() {
                    break;
                }
            }
        });
        let rtts = (0..WARM + PINGS)
            .map(|i| {
                let t0 = Instant::now();
                to_helper.send(i as u32).expect("helper alive");
                my_rx.recv().expect("helper answers");
                t0.elapsed().as_nanos() as u64
            })
            .skip(WARM)
            .collect();
        drop(to_helper);
        rtts
    });
    rtts.sort_unstable();
    rtts[PINGS / 2] as f64 / 1e3
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and when a set of numbers was taken, in one line: CPU model and
/// count, `rustc --version`, `/proc/loadavg`, and a [`pingpong_us`]
/// reading.
pub fn fingerprint() -> String {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let loadavg = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "{cpu_model} x{cpus}, {}, load {}, host.pingpong_us {:.1}",
        command_line("rustc", &["--version"]),
        loadavg.trim(),
        pingpong_us()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_answer() {
        let cpu0 = process_cpu_s();
        let tid = thread_id();
        assert!(tid > 0);
        assert!(task_cpu_s(tid).is_some());
        assert!(task_cpu_s(u32::MAX).is_none());
        assert!(peak_rss_mb() > 0.0);
        assert!(pingpong_us() > 0.0);
        assert!(voluntary_switches() > 0);
        assert!(process_cpu_s() >= cpu0);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t    6528 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(6528));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(status_field(status, "Missing:"), None);
    }
}
