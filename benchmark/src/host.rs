//! The host a result was measured on, and this process's peak memory.

use std::process::Command;

/// Host facts recorded with every result.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Operating system, architecture and kernel release.
    pub os: String,
    /// `rustc --version`, or `unknown` when no compiler is on the path.
    pub rustc: String,
    /// The `CDPD_THREADS` override the program's `parallel_map` honors.
    pub cdpd_threads: Option<String>,
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl Host {
    /// Inspect the current host.
    pub fn inspect() -> Host {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_owned(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_owned()
            });
        Host {
            nproc: nproc(),
            os: format!(
                "{} {} {}",
                std::env::consts::OS,
                std::env::consts::ARCH,
                kernel.trim()
            ),
            rustc,
            cdpd_threads: std::env::var("CDPD_THREADS").ok(),
        }
    }

    /// The host stanza as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"os\":{},\"rustc\":{},\"CDPD_THREADS\":{}}}",
            self.nproc,
            cdpd_obs::trace::json_string(&self.os),
            cdpd_obs::trace::json_string(&self.rustc),
            self.cdpd_threads
                .as_deref()
                .map_or("null".to_owned(), cdpd_obs::trace::json_string),
        )
    }
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
