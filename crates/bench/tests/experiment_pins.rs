//! Output pins: an FNV-1a digest of the stdout of every text experiment's
//! quick run. The experiments are deterministic (virtual clock, seeded
//! inputs), so any change to what they print moves a digest; on a mismatch
//! the test prints this build's digests in pasteable form. A debug run
//! takes over a minute, so the test runs in release builds only:
//! `cargo test --release -p hchol-bench --test experiment_pins`.

use std::process::Command;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn quick_stdout(id: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([id, "--quick"])
        .output()
        .unwrap_or_else(|e| panic!("spawn {id}: {e}"));
    assert!(
        out.status.success(),
        "{id} --quick failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn quick_outputs_are_pinned_to_the_captured_digests() {
    let pins: [(&str, u64); 15] = [
        ("fig01_trace", 0x4e9f0833243e6dc5),
        ("fig02_design", 0xc0374e8a57414bdb),
        ("table01_verification", 0x002f59da27af60ae),
        ("table03_06_overhead", 0x27279033122b94e3),
        ("table07_capability", 0x5eaf33f93786ec66),
        ("fig08_09_opt1", 0x1797844284440d81),
        ("fig10_11_opt2", 0x31b572f253d0f5ad),
        ("fig12_13_opt3", 0x832ab8eb92a1f477),
        ("fig14_15_overhead", 0x34fa6d596f717061),
        ("fig16_17_performance", 0x2e1165eb58d2a14c),
        ("ablation_block", 0xf21be28147d7b8cb),
        ("ablation_ecc", 0x3f583cae99e64074),
        ("ablation_variant", 0x97eeffd9833b3bc1),
        ("campaign_survival", 0x707a2dda74e79290),
        ("run_report", 0x7fed1297fd760a10),
    ];
    let got: Vec<(&str, u64)> = pins
        .iter()
        .map(|&(id, _)| (id, fnv(&quick_stdout(id))))
        .collect();
    assert_eq!(got, pins, "this build's pins: {got:#x?}");
}
