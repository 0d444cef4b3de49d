//! The benchmark contract, pulled into tier-1.
//!
//! `benchmark/` is a standalone package (its own `[workspace]`), so neither
//! `cargo test` nor the workspace globs of `ci.sh` ever build it — yet it
//! compiles against a wide `pub` surface of this workspace (DESIGN.md
//! §5.1) and checks every workload's output itself. A refactor can be
//! green everywhere else and still leave the benchmark unable to compile or
//! to pass its own checks. This test closes that gap: it builds `benchmark/`
//! against the working tree and runs its suite — all six workloads at toy
//! size through the real harness, plus the two negative controls.

use std::path::Path;
use std::process::Command;

#[test]
fn benchmark_package_builds_and_passes_its_own_suite() {
    // Run from the repository root so `.cargo/config.toml` (offline,
    // target-cpu=native) applies; `benchmark/target` is the child's own
    // target directory, so it never contends for this build's lock.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["test", "--release", "--quiet", "--manifest-path"])
        .arg(root.join("benchmark/Cargo.toml"))
        .current_dir(root)
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "benchmark/ no longer builds or passes against this tree ({})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}
