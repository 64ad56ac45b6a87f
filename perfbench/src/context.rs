//! The context stamp every result carries: which commit ran, on how
//! many cores, through which exact-mode lane path, with which caches.
//!
//! Nothing here spawns a process: the commit comes from `.git` when the
//! checkout has one, cache sizes from CPUID.

use crate::json::Json;
use std::path::Path;

/// Where and what ran.
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Commit hash, or "unknown" outside a git checkout.
    pub commit: String,
    /// Cores available to the process.
    pub nproc: usize,
    /// Exact-mode kernel path (`grape5::detect_lane_path`).
    pub lane_path: String,
    /// Data/unified cache sizes in bytes, by level ("L1d", "L2", ...).
    pub caches: Vec<(String, u64)>,
    /// Input seed.
    pub seed: u64,
}

impl Context {
    /// Stamp the current process.
    pub fn current(seed: u64) -> Context {
        Context {
            commit: commit_of(Path::new(".")),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            lane_path: format!("{:?}", grape5::detect_lane_path()),
            caches: cache_sizes(),
            seed,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        let caches = self
            .caches
            .iter()
            .map(|(k, v)| Json::obj().with("level", k.as_str()).with("bytes", *v));
        Json::obj()
            .with("commit", self.commit.as_str())
            .with("nproc", self.nproc)
            .with("lane_path", self.lane_path.as_str())
            .with("caches", caches.collect::<Vec<_>>())
            .with("seed", self.seed)
    }

    /// Parse [`to_json`](Self::to_json) output.
    pub fn from_json(j: &Json) -> Result<Context, String> {
        let miss = |k: &str| format!("context: missing {k}");
        let caches = j
            .get("caches")
            .and_then(Json::as_array)
            .ok_or(miss("caches"))?
            .iter()
            .map(|c| {
                let level = c.get("level").and_then(Json::as_str).ok_or(miss("level"))?;
                let bytes = c.get("bytes").and_then(Json::as_f64).ok_or(miss("bytes"))?;
                Ok((level.to_string(), bytes as u64))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Context {
            commit: j.get("commit").and_then(Json::as_str).ok_or(miss("commit"))?.to_string(),
            nproc: j.get("nproc").and_then(Json::as_f64).ok_or(miss("nproc"))? as usize,
            lane_path: j
                .get("lane_path")
                .and_then(Json::as_str)
                .ok_or(miss("lane_path"))?
                .to_string(),
            caches,
            seed: j.get("seed").and_then(Json::as_f64).ok_or(miss("seed"))? as u64,
        })
    }
}

/// The commit checked out at `root`, read from `.git/HEAD` (following
/// one symbolic ref, loose or packed); "unknown" when there is none.
pub fn commit_of(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(refname).and_then(|h| h.strip_suffix(' ')).map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Data and unified cache sizes from CPUID leaf 4 (x86-64 only).
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> Vec<(String, u64)> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // leaf 4 is only queried when the maximum basic leaf reports it
    let max_leaf = __cpuid(0).eax;
    if max_leaf < 4 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
        let line = (r.ebx & 0xfff) as u64 + 1;
        let sets = r.ecx as u64 + 1;
        let label = match kind {
            1 => format!("L{level}d"),
            2 => continue, // instruction caches do not hold the data
            _ => format!("L{level}"),
        };
        out.push((label, ways * partitions * line * sets));
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> Vec<(String, u64)> {
    Vec::new()
}

/// Peak resident set size of this process image in MB: the kernel's
/// `VmHWM`. (`getrusage`'s `ru_maxrss` would not do: it survives
/// `execve`, so under a launcher such as `cargo run` it reports the
/// launcher's peak whenever that is higher.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
