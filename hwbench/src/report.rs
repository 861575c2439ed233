//! What a run reports: named metrics with units, the operation tally,
//! and the provenance record.

use std::path::Path;
use std::process::Command;

use hotwire::obs::json::Json;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks that are not operations (e.g. span coverage).
    pub failed_checks: usize,
    /// One line per failure, for stderr.
    pub notes: Vec<String>,
    /// Extra human-readable lines (tables) for stdout.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one operation; `Err` marks it failed.
    pub fn tally(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("{}: {e}", what()));
            }
        }
    }

    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        Json::object([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// FNV-1a 64, the hash behind every provenance digest.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    bytes.into_iter().fold(seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// The revision under test: `git rev-parse HEAD` where the checkout is a
/// repository, else a digest of every source file the build reads.
#[must_use]
pub fn revision(root: &Path) -> String {
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = FNV_BASIS;
    for f in &files {
        h = fnv1a(f.to_string_lossy().bytes(), h);
        h = fnv1a(std::fs::read(f).unwrap_or_default(), h);
    }
    format!("sources-fnv1a64:{h:016x}")
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`. On a shared
/// virtual machine, stolen time is the host running other guests: a run
/// with a high steal share was measured on a contended machine.
#[must_use]
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        }
    }
}
