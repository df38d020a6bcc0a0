//! The machine block every run prints and records, and peak memory.

use hirise_lab::json;
use std::path::Path;

/// What a result depends on besides the code: cores, compiler, commit.
pub struct Machine {
    pub parallelism: usize,
    pub rustc: &'static str,
    pub commit: String,
}

impl Machine {
    pub fn detect() -> Self {
        Self {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            commit: git_commit(&crate::repo_root()).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn print(&self) {
        println!("machine available_parallelism {}", self.parallelism);
        println!("machine rustc {}", self.rustc);
        println!("machine commit {}", self.commit);
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"available_parallelism\":{},\"rustc\":",
            self.parallelism
        );
        json::write_escaped(&mut s, self.rustc);
        s.push_str(",\"commit\":");
        json::write_escaped(&mut s, &self.commit);
        s.push('}');
        s
    }
}

/// The checked-out commit, read from `.git` inside the repository only
/// (a benchmark checkout without `.git` reports `None`).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (sha, name) = line.split_once(' ')?;
            (name == reference).then(|| sha.to_string())
        })
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
