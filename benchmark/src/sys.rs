//! The few things the benchmark needs from the operating system that the
//! standard library does not offer: CPU-time clocks, a parent-death
//! signal for children, and a termination flag for the parent.
//!
//! The container has no `libc` crate, so the four C functions are
//! declared here; `std` already links the C library that defines them.
//! Linux only (clock ids, `prctl` option and `/proc` layout are Linux's).

use std::sync::atomic::{AtomicBool, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn clock_secs(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // both clock ids are constants the kernel defines for every process.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU-seconds (user + system) this process has consumed so far, over all
/// of its threads, the ones that already exited included.
pub fn process_cpu_secs() -> f64 {
    clock_secs(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU-seconds the calling thread has consumed so far.
pub fn thread_cpu_secs() -> f64 {
    clock_secs(CLOCK_THREAD_CPUTIME_ID)
}

/// Asks the kernel to kill this process when its parent dies, so a trial
/// child cannot outlive a harness that was killed outright.
pub fn die_with_parent() {
    // SAFETY: `PR_SET_PDEATHSIG` takes a signal number in `arg2` and
    // ignores the other arguments; it changes only this process's own
    // attribute.
    let _ = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0) };
}

static TERMINATED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    // Only an atomic store: the one thing a signal handler may safely do.
    // SeqCst so the parent's polling loop sees it without further pairing.
    TERMINATED.store(true, Ordering::SeqCst);
}

/// Turns SIGTERM and SIGINT into a flag ([`terminated`]) so the parent can
/// kill and reap its child before it exits.
pub fn catch_termination() {
    for signum in [SIGTERM, SIGINT] {
        // SAFETY: `on_terminate` is an `extern "C" fn(i32)` that stays
        // valid for the life of the process and is async-signal-safe (a
        // single atomic store).
        let _ = unsafe { signal(signum, on_terminate) };
    }
}

/// Whether a termination signal has arrived since [`catch_termination`].
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// The calling process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_mib(&status)
}

/// Extracts `VmHWM` (reported in kB) from the text of `/proc/<pid>/status`.
fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_secs(), thread_cpu_secs());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() > p0);
        assert!(thread_cpu_secs() > t0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let text = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  417296 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(text), Some(417296.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
