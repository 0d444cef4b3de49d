//! Benchmark-artifact envelope checker: `cargo run -p hchol-analyze --bin
//! check_artifacts [dir]`.
//!
//! Every `BENCH_*.json` the bench suite writes, every `COVERAGE_*.json`
//! the static coverage sweep writes, and every report
//! `RunReport::to_json` emits is wrapped in the versioned envelope from
//! [`hchol_obs::envelope`]: `{schema_version, kind, name, body}`. Plot
//! scripts and cross-PR diff tooling key on that header, so CI runs this
//! over the repo root after the sweeps to fail fast when a writer drifts
//! — a bare report, a missing field, or a bumped schema all exit nonzero
//! with the offending file named. Bodies get two checks: every `bench`
//! artifact must come from a full run (`quick: false`), and `precision`
//! rows must carry their pivot axes.
//!
//! The directory argument defaults to the workspace root.

use hchol_obs::SCHEMA_VERSION;
use serde::Value;
use std::process::ExitCode;

/// Why an artifact fails validation, with the offending detail inline.
fn validate(v: &Value) -> Result<(String, String), String> {
    let Some(obj) = v.as_object() else {
        return Err("top level is not a JSON object".into());
    };
    let field = |name: &str| {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing `{name}` field"))
    };
    match field("schema_version")? {
        Value::U64(n) if *n == SCHEMA_VERSION as u64 => {}
        other => {
            return Err(format!(
                "schema_version {other:?} != supported {SCHEMA_VERSION}"
            ))
        }
    }
    let kind = match field("kind")? {
        Value::Str(s) if !s.is_empty() => s.clone(),
        other => return Err(format!("kind must be a non-empty string, got {other:?}")),
    };
    let name = match field("name")? {
        Value::Str(s) if !s.is_empty() => s.clone(),
        other => return Err(format!("name must be a non-empty string, got {other:?}")),
    };
    let body = field("body")?;
    if kind == "bench" {
        validate_full_run(&name, body)?;
    }
    if name == "precision" {
        validate_precision_body(body)?;
    }
    Ok((kind, name))
}

/// A root `BENCH_*.json` is a full-run artifact: quick passes write under
/// `target/`, so a `quick: true` body here means a shortened sweep
/// overwrote the committed numbers, and a missing flag means a writer that
/// does not say which it was.
fn validate_full_run(name: &str, body: &Value) -> Result<(), String> {
    let obj = body
        .as_object()
        .ok_or(format!("{name} body is not an object"))?;
    match obj.iter().find(|(k, _)| k == "quick").map(|(_, v)| v) {
        Some(Value::Bool(false)) => Ok(()),
        Some(Value::Bool(true)) => Err(format!(
            "{name} body has `quick: true`; the root artifact must come from a full run"
        )),
        None => Err(format!("{name} body has no `quick` flag")),
        Some(other) => Err(format!(
            "{name} body `quick` must be a boolean, got {other:?}"
        )),
    }
}

/// Shape check for the `precision_sweep` artifact: downstream tooling
/// pivots its rows on `(dtype, tolerance)`, so a row missing either axis —
/// or an empty sweep — must fail here rather than produce an empty plot.
fn validate_precision_body(body: &Value) -> Result<(), String> {
    let obj = body.as_object().ok_or("precision body is not an object")?;
    let results = obj
        .iter()
        .find(|(k, _)| k == "results")
        .and_then(|(_, v)| v.as_array())
        .ok_or("precision body missing `results` array")?;
    if results.is_empty() {
        return Err("precision `results` is empty".into());
    }
    for (i, row) in results.iter().enumerate() {
        let row = row
            .as_object()
            .ok_or_else(|| format!("precision results[{i}] is not an object"))?;
        let str_field = |name: &str, allowed: &[&str]| {
            let v = row
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_str())
                .ok_or_else(|| format!("precision results[{i}] missing `{name}`"))?;
            if !allowed.contains(&v) {
                return Err(format!(
                    "precision results[{i}].{name} = {v:?} not in {allowed:?}"
                ));
            }
            Ok(())
        };
        str_field("dtype", &["f32", "f64"])?;
        str_field("tolerance", &["fixed", "adaptive"])?;
        for counter in ["clean_false_positives", "fault_runs", "fault_runs_correct"] {
            if !row.iter().any(|(k, _)| k == counter) {
                return Err(format!("precision results[{i}] missing `{counter}`"));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir}: {e}"))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name().and_then(|f| f.to_str()).is_some_and(|f| {
                (f.starts_with("BENCH_") || f.starts_with("COVERAGE_")) && f.ends_with(".json")
            })
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("check_artifacts: no BENCH_*.json or COVERAGE_*.json under {dir}");
        return ExitCode::FAILURE;
    }
    let mut bad = 0usize;
    for p in &paths {
        let file = p.file_name().unwrap().to_string_lossy().into_owned();
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("check_artifacts: {file}: unreadable: {e}");
                bad += 1;
                continue;
            }
        };
        match serde_json::value_from_str(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| validate(&v))
        {
            Ok((kind, name)) => {
                println!("check_artifacts: {file}: ok (v{SCHEMA_VERSION} {kind}/{name})")
            }
            Err(why) => {
                eprintln!("check_artifacts: {file}: INVALID: {why}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!(
            "check_artifacts: {} artifact(s) conform to envelope v{SCHEMA_VERSION}",
            paths.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("check_artifacts: {bad} invalid artifact(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `bench` artifact named `name` whose body carries `fields`.
    fn bench(name: &str, fields: &str) -> Value {
        let text = format!(
            r#"{{"schema_version": {SCHEMA_VERSION}, "kind": "bench", "name": "{name}",
                "body": {{{fields}}}}}"#
        );
        serde_json::value_from_str(&text).expect("valid JSON")
    }

    #[test]
    fn full_run_bench_artifacts_are_accepted() {
        for name in ["kernels", "fused", "balance", "shard", "batch"] {
            let ok = Ok(("bench".to_string(), name.to_string()));
            assert_eq!(
                validate(&bench(name, r#""quick": false, "results": []"#)),
                ok
            );
        }
    }

    #[test]
    fn quick_or_unflagged_bench_artifacts_are_rejected() {
        for name in ["kernels", "fused", "balance", "shard", "batch"] {
            let why = validate(&bench(name, r#""quick": true, "results": []"#)).unwrap_err();
            assert!(
                why.contains("quick: true") && why.starts_with(name),
                "{why}"
            );
            let why = validate(&bench(name, r#""n": 512, "results": []"#)).unwrap_err();
            assert!(why.contains("no `quick` flag"), "{why}");
            let why = validate(&bench(name, r#""quick": 1"#)).unwrap_err();
            assert!(why.contains("must be a boolean"), "{why}");
        }
    }
}
