//! The `bench` command line and the rules every experiment shares: what an
//! entry of the registry declares ([`Experiment`]), which systems and sizes
//! a run covers ([`Grid`]), and where its artifacts land
//! ([`artifact_path`]).

use crate::figure::Figure;
use crate::registry::EXPERIMENTS;
use crate::report::Table;
use hchol_gpusim::profile::SystemProfile;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One experiment of the registry.
pub struct Experiment {
    /// The name `bench` takes on the command line.
    pub id: &'static str,
    /// What the experiment reproduces and how to read it.
    pub about: &'static str,
    /// The machines it runs on.
    pub systems: Systems,
    /// Its matrix sizes on a system, full (`false`) or quick (`true`).
    pub sizes: fn(&SystemProfile, bool) -> Vec<usize>,
    /// What it runs and writes.
    pub run: Run,
}

/// The machines an experiment runs on, and whether `--system` picks them.
pub enum Systems {
    /// Tardis then Bulldozer64; `--system` narrows to one.
    Both,
    /// Tardis, or the one `--system` names.
    One,
    /// Its own machines, full or quick; `--system` is refused.
    Fixed(fn(bool) -> Vec<SystemProfile>),
}

/// What an experiment runs and writes.
pub enum Run {
    /// Prints its own tables and writes its own artifacts through the
    /// grid (the paper's under `bench_results/`).
    Text(fn(&Grid)),
    /// One of the paper's paired figures.
    Figure(Figure),
    /// A sweep whose body is written to root `BENCH_<name>.json` once
    /// `check` accepts it; a refused body fails the run and writes nothing.
    Bench {
        /// The artifact's name.
        name: &'static str,
        /// Runs the sweep and returns the artifact body.
        run: fn(&Grid) -> Value,
        /// The artifact's headline claims, asserted at write time.
        check: fn(&Value) -> Result<(), String>,
    },
}

/// The experiment that rewrites the golden fixtures; `all` leaves it out.
pub const GOLDEN: &str = "golden_capture";

/// One invocation's grid: the systems and sizes an experiment runs, and
/// whether this is a quick run.
pub struct Grid {
    /// The systems, in order.
    pub systems: Vec<SystemProfile>,
    /// A quick run: reduced sizes, artifacts under `target/`.
    pub quick: bool,
    sizes: fn(&SystemProfile, bool) -> Vec<usize>,
}

impl Grid {
    /// The grid of experiment `e` under `system` (an explicit `--system`)
    /// and `quick`; an entry with fixed systems refuses `system`.
    pub fn new(
        e: &Experiment,
        system: Option<&SystemProfile>,
        quick: bool,
    ) -> Result<Self, String> {
        let systems = match (&e.systems, system) {
            (Systems::Fixed(_), Some(_)) => return Err(format!("{} refuses --system", e.id)),
            (Systems::Fixed(f), None) => f(quick),
            (_, Some(p)) => vec![p.clone()],
            (Systems::Both, None) => vec![SystemProfile::tardis(), SystemProfile::bulldozer64()],
            (Systems::One, None) => vec![SystemProfile::tardis()],
        };
        Ok(Grid {
            systems,
            quick,
            sizes: e.sizes,
        })
    }

    /// The matrix sizes to run on `profile`.
    pub fn sizes(&self, profile: &SystemProfile) -> Vec<usize> {
        (self.sizes)(profile, self.quick)
    }

    /// The first (for most entries, the only) size on `profile`.
    pub fn n(&self, profile: &SystemProfile) -> usize {
        self.sizes(profile)[0]
    }

    /// Write `content` to the artifact `rel` (see [`artifact_path`]).
    pub fn write(&self, rel: &str, content: &str) {
        let path = artifact_path(self.quick, rel);
        std::fs::create_dir_all(path.parent().expect("artifact has a directory"))
            .expect("create artifact directory");
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    /// Write `body` in the versioned envelope (`hchol_obs::envelope`) to
    /// the artifact `rel`.
    pub fn json(&self, rel: &str, kind: &str, name: &str, body: Value) {
        let env = hchol_obs::envelope(kind, name, body);
        let text = serde_json::to_string_pretty(&env).expect("artifact serializes");
        self.write(rel, &text);
    }

    /// Print `t`, and write it as an enveloped JSON table to
    /// `bench_results/<file>`.
    pub fn table(&self, t: &Table, file: &str) {
        t.print();
        let rel = format!("bench_results/{file}");
        self.json(&rel, "table", t.title(), t.to_value());
    }

    /// Write `t` as CSV to `bench_results/<file>`.
    pub fn csv(&self, t: &Table, file: &str) {
        self.write(&format!("bench_results/{file}"), &t.to_csv());
    }
}

/// Where the artifact `rel` (a path from the workspace root) lands: there
/// for a full run, under `target/` for a quick one, so a quick run never
/// overwrites a committed file.
pub fn artifact_path(quick: bool, rel: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if quick {
        root.join("target").join(rel)
    } else {
        root.join(rel)
    }
}

/// Run experiment `e` on grid `g`; a refused `Bench` body panics unwritten.
pub fn run(e: &Experiment, g: &Grid) {
    match &e.run {
        Run::Text(f) => f(g),
        Run::Figure(fig) => fig.run(g),
        Run::Bench { name, run, check } => {
            let body = run(g);
            if let Err(why) = check(&body) {
                panic!("{}: {why}", e.id);
            }
            g.json(&format!("BENCH_{name}.json"), "bench", name, body);
        }
    }
}

/// The matrix sizes a system was evaluated on (Section VII-A): multiples of
/// 2560 from 5120 up to 23040 on Tardis and 30720 on Bulldozer64 — "from
/// the largest our GPU memory allows to relatively small sizes". The quick
/// grid steps by 7680.
pub fn paper_sizes(profile: &SystemProfile, quick: bool) -> Vec<usize> {
    let max = if profile.name == "Bulldozer64" {
        30720
    } else {
        23040
    };
    let step = if quick { 7680 } else { 2560 };
    (1..)
        .map(|i| i * step)
        .skip_while(|&n| n < 5120)
        .take_while(|&n| n <= max)
        .collect()
}

/// Resolve a paper system by its command-line name.
pub fn system_by_name(name: &str) -> Option<SystemProfile> {
    match name.to_ascii_lowercase().as_str() {
        "tardis" => Some(SystemProfile::tardis()),
        "bulldozer64" | "bulldozer" => Some(SystemProfile::bulldozer64()),
        _ => None,
    }
}

/// Parse `bench <id>… | all [--system S] [--quick]` into the experiments
/// to run, each with its grid. `Err` carries the usage error; an empty one
/// asks for help.
pub fn parse<I>(args: I) -> Result<Vec<(&'static Experiment, Grid)>, String>
where
    I: IntoIterator<Item = String>,
{
    let (mut entries, mut system, mut quick) = (Vec::new(), None, false);
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--system" => {
                let name = it.next().ok_or("--system needs a value")?;
                system = Some(system_by_name(&name).ok_or(format!("unknown system {name}"))?);
            }
            "--quick" => quick = true,
            "--help" | "-h" => return Err(String::new()),
            "all" => entries.extend(EXPERIMENTS.iter().filter(|e| e.id != GOLDEN)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => {
                let e = EXPERIMENTS.iter().find(|e| e.id == id);
                entries.push(e.ok_or(format!("unknown experiment {id}"))?);
            }
        }
    }
    if entries.is_empty() {
        return Err("name an experiment, or all".into());
    }
    entries
        .into_iter()
        .map(|e| Ok((e, Grid::new(e, system.as_ref(), quick)?)))
        .collect()
}

const USAGE: &str = "usage: bench <id>... | all [--system tardis|bulldozer64] [--quick]";

/// Report a usage error (exit 2), or print help listing every experiment.
fn usage(msg: &str) -> ExitCode {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n{USAGE}\n(bench --help lists the experiments)");
        return ExitCode::from(2);
    }
    println!("{USAGE}\nA quick run writes its artifacts under target/.\n\nexperiments:");
    for e in EXPERIMENTS {
        let first = e.about.split(". ").next().unwrap_or(e.about);
        println!("  {:<22} {first}", e.id);
    }
    ExitCode::SUCCESS
}

/// The `bench` binary: check the whole command line, then run each named
/// experiment in turn — every one but [`GOLDEN`] for `all`.
pub fn main() -> ExitCode {
    let runs = match parse(std::env::args().skip(1)) {
        Ok(runs) => runs,
        Err(msg) => return usage(&msg),
    };
    let many = runs.len() > 1;
    let mut failed = Vec::new();
    for (e, g) in &runs {
        if many {
            println!("\n######## {} ########", e.id);
        }
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(e, g))).is_err() {
            failed.push(e.id);
        }
    }
    if !failed.is_empty() {
        eprintln!("\nFAILED: {failed:?}");
        return ExitCode::FAILURE;
    }
    if many {
        println!("\nall {} experiments completed", runs.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(v: &str) -> Result<Vec<(&'static Experiment, Grid)>, String> {
        parse(v.split_whitespace().map(String::from))
    }

    #[test]
    fn one_parser_rejects_what_it_does_not_know() {
        let runs = parse_str("shard_sweep --quick").unwrap_or_else(|e| panic!("{e}"));
        assert!(runs[0].0.id == "shard_sweep" && runs[0].1.quick);
        let runs = parse_str("fig01_trace --system Bulldozer64").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(runs[0].1.systems[0].name, "Bulldozer64");
        for bad in [
            "shard_sweep --quik",
            "fig01_trace --json",
            "nope",
            "",
            "all --system cray",
            "all --system tardis",
        ] {
            assert!(parse_str(bad).is_err_and(|e| !e.is_empty()), "{bad:?}");
        }
    }

    #[test]
    fn all_runs_every_entry_but_the_fixture_capture_once() {
        let runs = parse_str("all").unwrap_or_else(|e| panic!("{e}"));
        let mut ids: Vec<_> = runs.iter().map(|(e, _)| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len() - 1);
        assert!(!ids.contains(&GOLDEN));
    }

    #[test]
    fn an_entry_honours_system_or_refuses_it() {
        let p = SystemProfile::bulldozer64();
        for e in EXPERIMENTS {
            match (Grid::new(e, Some(&p), false), &e.systems) {
                (Err(_), Systems::Fixed(_)) => {}
                (Ok(g), Systems::Both | Systems::One) => {
                    assert_eq!(g.systems.len(), 1, "{}", e.id);
                    assert_eq!(g.systems[0].name, "Bulldozer64", "{}", e.id);
                }
                _ => panic!("{}: --system neither honoured nor refused", e.id),
            }
        }
    }

    /// A quick run is a reduced run: no more grid points than the full one.
    #[test]
    fn every_quick_grid_is_no_larger_than_its_full_grid() {
        let points = |e: &Experiment, quick| {
            let g = Grid::new(e, None, quick).unwrap_or_else(|err| panic!("{err}"));
            g.systems.iter().map(|p| g.sizes(p).len()).sum::<usize>()
        };
        for e in EXPERIMENTS {
            let (quick, full) = (points(e, true), points(e, false));
            assert!(
                0 < quick && quick <= full,
                "{}: {quick} quick vs {full} full points",
                e.id
            );
        }
    }

    #[test]
    fn paper_sweeps_span_the_papers_range() {
        let (tardis, bulldozer) = (SystemProfile::tardis(), SystemProfile::bulldozer64());
        let full: Vec<usize> = (2..=9).map(|i| i * 2560).collect();
        assert_eq!(paper_sizes(&tardis, false), full);
        assert_eq!(paper_sizes(&tardis, true), [7680, 15360, 23040]);
        assert_eq!(paper_sizes(&bulldozer, false).last(), Some(&30720));
    }
}
