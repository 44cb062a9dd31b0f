//! What the benchmark reads from the operating system: memory high-water mark, bytes
//! handed to `write`, process CPU time, and the machine fingerprint.

use std::fs;
use std::process::Command;

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process has handed to `write`-family syscalls (`wchar`).
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// CPU seconds (user + system) consumed by every thread of this process, live or
/// exited.  `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields are counted from the closing paren.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after the command.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Total size of the regular files under `dir` (recursive), bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The machine and build a report was produced on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub cpu_model: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn read() -> Fingerprint {
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        // `output` waits for the child; outside a git checkout the commit is unknown.
        let git_commit = Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            kernel,
            cpu_model,
            git_commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.5);
        let before = bytes_written();
        std::io::Write::write_all(&mut fs::File::create("/dev/null").unwrap(), &[0u8; 512])
            .unwrap();
        assert!(bytes_written() >= before + 512);
        let mut spin = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            spin = std::hint::black_box(spin.wrapping_add(1));
        }
        assert!(process_cpu_seconds() >= 0.04);
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        // Under the benchmark's own ignored output directory, not the system's.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-sys-{}", std::process::id()));
        fs::create_dir_all(dir.join("inner")).unwrap();
        fs::write(dir.join("a"), [0u8; 10]).unwrap();
        fs::write(dir.join("inner").join("b"), [0u8; 32]).unwrap();
        assert_eq!(dir_bytes(&dir), 42);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0);
    }
}
