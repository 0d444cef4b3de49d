//! Command-line driver of the benchmark.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object with `correct`, `attempted`, `failed` and
//!   `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//!   with `--trace 1`).
//! * Without `--workload` it runs every workload, each in a process of
//!   its own (so `peak_rss_mb` is per workload), `--runs` times with
//!   consecutive seeds, prints a summary and optionally writes the set to
//!   `--out <file>` for `--compare`.
//! * `--compare a.json b.json` judges two such sets against the bounds in
//!   `BENCHMARK.json`.

use hchol_benchmark::compare::compare;
use hchol_benchmark::env::{build_guard, environment};
use hchol_benchmark::harness::{run_traced, run_untraced, RunConfig, RunResult};
use hchol_benchmark::json::{field, number};
use hchol_benchmark::spec::{MetricDef, Spec};
use hchol_benchmark::stats::{median, quartiles};
use hchol_benchmark::workloads::{Scale, Workload};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: hchol-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace [0|1]] [--runs <k>] [--out <file>] | --compare <a.json> <b.json>";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=1000).contains(&a.runs) {
                    return Err("--runs must be in 1..=1000".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let first = PathBuf::from(value("two paths")?);
                a.compare = Some((first, PathBuf::from(value("two paths")?)));
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("trace-{workload}.json"))
}

fn write_file(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process and print its result line.
fn run_one(spec: &Spec, args: &Args, name: &str) -> Result<(), String> {
    let w = Workload::build(name, Scale::Full)
        .filter(|_| spec.workloads.iter().any(|n| n == name))
        .ok_or_else(|| format!("unknown workload {name}; known: {:?}", spec.workloads))?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
    };
    let env = environment();
    let result: RunResult = if args.trace {
        run_traced(&w, &cfg, spec)?
    } else {
        run_untraced(&w, &cfg, spec)?
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  R = {} repeats",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.wall_samples.len()
    );
    println!(
        "env {}",
        serde_json::to_string(&env).map_err(|e| e.to_string())?
    );
    for m in &result.metrics {
        println!("  {:<40} {:>18.9} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>18.9} ratio ({} failed of {} attempted)",
        "failed_frac",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    println!(
        "  virtual_s {}  worst residual {:e}",
        result.virtual_s, result.residual
    );
    println!("  wall samples {:?}", result.wall_samples);
    for note in result.notes.iter().take(20) {
        println!("  FAILED {note}");
    }
    if let Some(tr) = &result.tracer {
        let path = trace_path(name);
        let doc = Value::Object(vec![
            ("workload".into(), Value::Str(name.into())),
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("env".into(), env),
            ("spans".into(), tr.to_value()),
        ]);
        write_file(&path, &doc)?;
        println!("  spans written to {}", path.display());
    }
    // The last line of standard output is the result the driver reads.
    println!(
        "{}",
        serde_json::to_string(&result.to_value()).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Run `name` in a child process and return its parsed result line.
fn run_child(args: &Args, name: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() && !last.starts_with('{') {
        return Err(format!(
            "{name} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    serde_json::value_from_str(last).map_err(|e| format!("{name}: result line: {e}"))
}

/// Gather `defs`' values from result lines into `{name: {unit, values}}`.
fn collect(defs: &[MetricDef], results: &[Value]) -> Result<Value, String> {
    let mut section = Vec::new();
    for d in defs {
        let values = results
            .iter()
            .map(|r| {
                field(r, "metrics")
                    .and_then(|m| field(m, &d.name))
                    .and_then(|m| field(m, "value"))
                    .and_then(number)
                    .map(Value::F64)
                    .ok_or_else(|| format!("result line lacks metric {}", d.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let body = vec![
            ("unit".to_string(), Value::Str(d.unit.clone())),
            ("values".to_string(), Value::Array(values)),
        ];
        section.push((d.name.clone(), Value::Object(body)));
    }
    Ok(Value::Object(section))
}

fn count(results: &[Value], key: &str) -> u64 {
    results
        .iter()
        .filter_map(|r| field(r, key).and_then(number))
        .sum::<f64>() as u64
}

/// Run every workload, each run in its own process; print the summary.
fn run_all(spec: &Spec, args: &Args) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    println!(
        "{} runs x {} s per workload, seeds {}..{}",
        args.runs,
        args.seconds,
        args.seed,
        args.seed + args.runs as u64 - 1
    );
    for name in &spec.workloads {
        let runs = (0..args.runs as u64)
            .map(|i| run_child(args, name, args.seed + i, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = if args.trace {
            vec![run_child(args, name, args.seed, true)?]
        } else {
            Vec::new()
        };
        let end_to_end = collect(&spec.end_to_end, &runs)?;
        let per_layer = collect(&spec.per_layer, &traced)?;
        let both: Vec<Value> = runs.iter().chain(&traced).cloned().collect();
        let (attempted, failed) = (count(&both, "attempted"), count(&both, "failed"));
        all_correct &= failed == 0 && attempted > 0;

        println!("{name}");
        for (section, defs) in [
            (&end_to_end, &spec.end_to_end),
            (&per_layer, &spec.per_layer),
        ] {
            for d in defs.iter() {
                let xs: Vec<f64> = field(section, &d.name)
                    .and_then(|m| field(m, "values"))
                    .and_then(Value::as_array)
                    .map(|a| a.iter().filter_map(number).collect())
                    .unwrap_or_default();
                if xs.len() > 1 {
                    let (q1, q3) = quartiles(&xs);
                    println!(
                        "  {:<40} {:>18.9} {}  [q1 {:.9}, q3 {:.9}, n={}]",
                        d.name,
                        median(&xs),
                        d.unit,
                        q1,
                        q3,
                        xs.len()
                    );
                } else if let Some(x) = xs.first() {
                    println!("  {:<40} {:>18.9} {}", d.name, x, d.unit);
                }
            }
        }
        println!(
            "  {:<40} {:>18.9} ratio ({failed} failed of {attempted} attempted)",
            "failed_frac",
            failed as f64 / attempted.max(1) as f64
        );
        workloads.push((
            name.clone(),
            Value::Object(vec![
                ("attempted".into(), Value::U64(attempted)),
                ("failed".into(), Value::U64(failed)),
                ("end_to_end".into(), end_to_end),
                ("per_layer".into(), per_layer),
            ]),
        ));
    }
    if let Some(path) = &args.out {
        let doc = Value::Object(vec![
            ("env".into(), environment()),
            ("seed".into(), Value::U64(args.seed)),
            ("runs".into(), Value::U64(args.runs as u64)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("workloads".into(), Value::Object(workloads)),
        ]);
        write_file(path, &doc)?;
        println!("set written to {}", path.display());
    }
    Ok(all_correct)
}

fn read_set(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::value_from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `Ok(false)` = measured, but something is wrong (a breach, a failed
/// operation in the all-workloads summary).
fn real_main() -> Result<bool, String> {
    let spec = Spec::load();
    let args = parse_args(&spec)?;
    if let Some((a, b)) = &args.compare {
        let (report, breach) = compare(&spec, &read_set(a)?, &read_set(b)?);
        print!("{report}");
        return Ok(!breach);
    }
    build_guard()?;
    match &args.workload {
        // A single run always exits 0 once it has printed its result line:
        // the line's `correct`/`failed` carry the verdict to the driver.
        Some(name) => run_one(&spec, &args, name).map(|()| true),
        None => run_all(&spec, &args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hchol-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
