//! Build guard, environment record and process memory.

use serde::Value;
use std::process::Command;

/// Refuse to measure a build whose numbers would not be comparable: a
/// debug build, or one compiled without FMA on a CPU that has it — the
/// repository's `target-cpu=native` rustflags only apply when cargo runs
/// from inside the repository, and the BLAS micro-kernel halves its rate
/// without them.
pub fn build_guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a build with debug_assertions (use --release)".into());
    }
    #[cfg(target_arch = "x86_64")]
    if !cfg!(target_feature = "fma") && std::arch::is_x86_feature_detected!("fma") {
        return Err(
            "refusing to measure: built without FMA on a CPU that has it \
             (run cargo from the repository root so .cargo/config.toml applies)"
                .into(),
        );
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// What the numbers were measured on: compiler, core count, CPU model and
/// git revision (`unknown` outside a git checkout).
pub fn environment() -> Value {
    let unknown = || "unknown".to_string();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(vec![
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("available_parallelism".into(), Value::U64(threads as u64)),
        (
            "cpu_model".into(),
            Value::Str(cpu_model().unwrap_or_else(unknown)),
        ),
        (
            "git_sha".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
