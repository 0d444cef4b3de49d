//! Workspace source-lint runner: `cargo run -p hchol-analyze --bin lint`.
//!
//! Walks `crates/`, `src/`, and `tests/` from the workspace root and applies
//! the rules of [`hchol_analyze::lint`]. Exits nonzero when any
//! finding survives, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The binary lives in crates/analyze; the workspace root is two up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf();
    let lints = hchol_analyze::lint_workspace(&root);
    if lints.is_empty() {
        println!("lint: no findings");
        return ExitCode::SUCCESS;
    }
    for l in &lints {
        println!("{l}");
    }
    println!("lint: {} finding(s)", lints.len());
    ExitCode::FAILURE
}
