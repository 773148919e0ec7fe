//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). Corpus sizes
//! default to a scaled-down setting that finishes in minutes while
//! preserving every qualitative shape; set `AQUA_PAPER_SCALE=1` to run the
//! paper's 20 000-train / 2 000-test protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Corpus sizes for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Phase-I training scenarios.
    pub train: usize,
    /// Held-out evaluation scenarios.
    pub test: usize,
}

/// Resolves the run scale: the per-binary default, or the paper's
/// 20 000 / 2 000 when `AQUA_PAPER_SCALE=1` is set.
pub fn run_scale(default_train: usize, default_test: usize) -> RunScale {
    if std::env::var("AQUA_PAPER_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        RunScale {
            train: 20_000,
            test: 2_000,
        }
    } else {
        RunScale {
            train: default_train,
            test: default_test,
        }
    }
}

/// Prints a TSV table with an aligned header (the binaries' only output
/// format, easy to redirect into plotting tools).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}

/// Formats a float with 3 decimals (the precision the paper's plots carry).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Short commit hash for bench provenance: `GITHUB_SHA` when CI provides
/// it, else `git rev-parse --short HEAD`, else `"unknown"` (e.g. a source
/// tarball without the `.git` directory).
pub fn commit_hash() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha.chars().take(9).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the envelope every `BENCH_*.json` artifact shares:
/// `{"bench", "commit", "wall_clock_s", "metrics"}`. `metrics` must be a
/// pre-rendered JSON value carrying the bench-specific payload (config,
/// results, acceptance, …), so downstream tooling can read provenance and
/// total cost without knowing any bench's schema.
pub fn bench_envelope(bench: &str, wall_clock_s: f64, metrics: &str) -> String {
    format!(
        "{{\n  \"bench\": {bench:?},\n  \"commit\": {:?},\n  \
         \"wall_clock_s\": {wall_clock_s:.3},\n  \"metrics\": {metrics}\n}}\n",
        commit_hash()
    )
}

/// Writes the enveloped bench payload to `file`.
///
/// # Panics
///
/// Panics when the file cannot be written (benches want loud failures).
pub fn write_bench_json(file: &str, bench: &str, wall_clock_s: f64, metrics: &str) {
    std::fs::write(file, bench_envelope(bench, wall_clock_s, metrics))
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_respected() {
        std::env::remove_var("AQUA_PAPER_SCALE");
        assert_eq!(
            run_scale(1000, 100),
            RunScale {
                train: 1000,
                test: 100
            }
        );
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.12345), "0.123");
    }

    #[test]
    fn envelope_carries_bench_commit_wall_clock_and_metrics() {
        let json = bench_envelope("fig_example", 1.5, "{\"speedup\": 2.0}");
        assert!(json.contains("\"bench\": \"fig_example\""));
        assert!(json.contains("\"wall_clock_s\": 1.500"));
        assert!(json.contains("\"commit\": \""));
        assert!(json.contains("\"metrics\": {\"speedup\": 2.0}"));
    }

    #[test]
    fn commit_hash_is_never_empty() {
        assert!(!commit_hash().is_empty());
    }
}
