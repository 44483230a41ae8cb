//! Host and run fingerprint, and scheduler run-queue wait.

use std::fs;

/// What a result needs to be compared with another: the machine, the
/// toolchain and the source revision.
pub struct Fingerprint {
    pub parallelism: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl Fingerprint {
    pub fn capture() -> Fingerprint {
        Fingerprint {
            parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC"),
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{name}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Total time this process's threads have spent runnable but waiting for
/// a CPU, in nanoseconds (second field of each task's `schedstat`).
/// Zero where the kernel does not expose it.
pub fn runqueue_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}
