//! What the host tells the benchmark: process CPU time, peak RSS, steal
//! time, and the fingerprint every record carries so that no number is
//! quoted without the machine that produced it.

use std::process::Command;

use detector_core::json::Json;

#[cfg(target_os = "linux")]
mod cputime {
    /// `struct timespec` of the 64-bit Linux ABIs this benchmark targets.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU time consumed by every thread of this process, seconds.
    pub fn process_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` for the duration of
        // the call, and CLOCK_PROCESS_CPUTIME_ID is a clock id every Linux
        // kernel since 2.6.12 accepts; the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0.0;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(target_os = "linux"))]
mod cputime {
    /// No nanosecond process clock without libc bindings here: CPU
    /// metrics read 0 off Linux and the record says so via the kernel
    /// field of the fingerprint.
    pub fn process_cpu_s() -> f64 {
        0.0
    }
}

pub use cputime::process_cpu_s;

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    fn allowed() -> Option<Vec<usize>> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // the layout glibc's wrapper expects for `cpu_set_t`; pid 0 names
        // the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return None;
        }
        Some(
            (0..1024)
                .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect(),
        )
    }

    /// Restricts the calling thread — and every thread it spawns from
    /// now on — to the lowest-numbered of the CPUs it may run on: two of
    /// them, the load shape the benchmark was sized for (never more than
    /// two busy threads), or one when the host offers no more than two.
    /// Returns the CPUs kept, or `None` if the kernel refused.
    ///
    /// Why one of two: with both vCPUs of the 2-vCPU sandbox in play,
    /// `ft8_udp_pipelined` ran at 17–19 windows/s with 68 ms CPU a window
    /// and single blocks between 0.5 and 2 s; on one, at 36–38 with
    /// 27 ms. Every wake-up crossed CPUs, the harness driving the run
    /// lives on the same two, and thread placement was the largest noise
    /// source. A host with CPUs to spare gives the run two of its own.
    pub fn confine() -> Option<Vec<usize>> {
        let allowed = allowed()?;
        let keep = if allowed.len() <= 2 { 1 } else { 2 };
        let mut set: CpuSet = [0; 16];
        for &cpu in allowed.iter().take(keep) {
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a readable `cpu_set_t` of the size passed,
        // naming only CPUs the thread is already allowed on; the call
        // changes only the scheduler's mask of the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        (rc == 0 && !allowed.is_empty()).then(|| allowed[..keep.min(allowed.len())].to_vec())
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn confine() -> Option<Vec<usize>> {
        None
    }
}

pub use affinity::confine;

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the kernel's peak-RSS watermark at the current resident set
/// (`clear_refs` code 5, Linux ≥ 4.0). Best effort: where it is refused
/// `VmHWM` stays the peak of the whole process, which is still a peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Aggregate `(steal, total)` jiffies from the first line of
/// `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of host CPU time stolen by the hypervisor between
/// construction and [`StealMeter::ratio`].
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        Self(cpu_jiffies())
    }

    pub fn ratio(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// The host fingerprint stamped into every record. `cpus` are the CPUs a
/// run confined itself to (see [`confine`]), if it did.
pub fn fingerprint(seed: u64, cpus: Option<&[usize]>) -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
    Json::obj(vec![
        ("nproc", Json::uint(nproc as u64)),
        (
            "confined_to_cpus",
            cpus.map_or(Json::Null, |cpus| {
                Json::Array(cpus.iter().map(|&c| Json::uint(c as u64)).collect())
            }),
        ),
        ("cpu_model", Json::Str(cpu_model().unwrap_or_else(unknown))),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("kernel", Json::Str(kernel)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        // benchmark/Cargo.toml resolves rand/crossbeam/... to ../shims.
        ("deps", Json::Str("shims".to_string())),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::uint(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confining_keeps_one_or_two_of_the_allowed_cpus() {
        // On a thread of its own: the mask is per thread, and the other
        // tests of this binary should keep theirs.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let kept = std::thread::spawn(confine).join().expect("thread");
        if cfg!(target_os = "linux") {
            let kept = kept.expect("the kernel accepts a subset of the allowed CPUs");
            assert_eq!(kept.len(), if nproc <= 2 { 1 } else { 2 });
        }
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let c0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let c1 = process_cpu_s();
        if cfg!(target_os = "linux") {
            assert!(c1 > c0, "cpu clock did not advance: {c0} -> {c1}");
        }
    }

    #[test]
    fn fingerprint_names_the_host() {
        let fp = fingerprint(7, None);
        assert_eq!(fp.get("seed").and_then(Json::as_u64), Some(7));
        for key in ["nproc", "cpu_model", "kernel", "rustc", "profile", "deps"] {
            assert!(fp.get(key).is_some(), "missing {key}");
        }
    }
}
