//! Host measurements: process CPU time, peak resident memory, and the
//! provenance line every result carries.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, at nanosecond resolution.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for),
    // and `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("non-negative CPU time");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec below 1e9");
    Duration::new(secs, nanos)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What produced a result: commit, build, host and worker count.
pub struct Provenance {
    rev: String,
    dirty: &'static str,
    workers: usize,
    nproc: usize,
}

impl Provenance {
    /// Reads the git revision from `.git` under `root` (when there is
    /// one) and the host's CPU count; `workers` is the runner's
    /// configured worker-thread count.
    pub fn collect(root: &Path, workers: usize) -> Provenance {
        let git = root.join(".git");
        let rev = read_git_rev(&git).unwrap_or_else(|| "unknown".into());
        let dirty = if git.is_dir() {
            match Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["status", "--porcelain", "--untracked-files=no"])
                .output()
            {
                Ok(out) if out.status.success() && out.stdout.is_empty() => "false",
                Ok(out) if out.status.success() => "true",
                _ => "unknown",
            }
        } else {
            "unknown"
        };
        Provenance {
            rev,
            dirty,
            workers,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        }
    }

    /// Whether the run used exactly one worker thread, the only
    /// configuration whose timings are comparable across hosts.
    pub fn single_worker(&self) -> bool {
        self.workers == 1
    }

    /// One `key=value` line.
    pub fn line(&self) -> String {
        format!(
            "provenance: rev={} dirty={} rustc=\"{}\" profile={} workers={} nproc={}",
            self.rev,
            self.dirty,
            env!("HETPERF_RUSTC_VERSION"),
            env!("HETPERF_BUILD_PROFILE"),
            self.workers,
            self.nproc
        )
    }
}

/// The commit `HEAD` names, following one level of symbolic ref through
/// loose or packed refs.
fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
