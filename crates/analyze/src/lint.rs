//! Token-level source lints for the workspace.
//!
//! Seventeen rules, all comment- and string-aware (a hand-rolled scanner — no
//! `syn` in the offline build):
//!
//! * **`safety-comment`** — every `unsafe { … }` block and `unsafe impl`
//!   must carry a `// SAFETY:` comment on the same line or within the three
//!   preceding lines. (`unsafe fn` declarations are covered by rustdoc
//!   `# Safety` sections and clippy's `missing_safety_doc` instead.)
//! * **`obs-name`** — string literals at observability call sites
//!   (`MetricsRegistry::{inc, add_count, add_f64, set_gauge, observe}`,
//!   `Obs::event`, `scope!`, `spans.open`) must match the central registry
//!   in [`hchol_obs::names`]. `format!` literals normalize `{…}`
//!   placeholders to `*` first, so patterned producers resolve against
//!   wildcard registry entries. A typo on either side of a metric is a lint
//!   failure, not a silently-empty data series.
//! * **`wall-clock`** — `std::time::Instant` / `SystemTime` are forbidden
//!   outside `crates/gpusim` (everything is supposed to run on the virtual
//!   clock). Deliberate uses are waived with a `lint:allow(wall-clock)`
//!   comment on the same or the preceding line.
//! * **`tolerance-literal`** — bare epsilon literals (`1e-7`, `1e-9`,
//!   `1e-12`) are forbidden in `crates/core/src` outside the central
//!   `tolerance` module: every detection-threshold constant must be named
//!   there so the fixed and adaptive models share one source of truth.
//!   Deliberate uses are waived with `lint:allow(tolerance-literal)`.
//! * **`env-read`** — library sources (anything under a `src/` directory
//!   that is not a `bin/` or `benches/` target) may not read the process
//!   environment through `std::env`'s `var` / `var_os`: behaviour is
//!   configured through options a caller can see, never a hidden knob.
//! * **`twin-op`** — `crates/core/src/ops.rs` declares no `pub fn` whose
//!   name ends in `_fused` or `_shard`: a fused epilogue or a device's row
//!   set is a parameter of the one op, not a sibling beside it.
//! * **`one-engine`** — `crates/blas/src` contains no `dyn Any` downcast:
//!   the packed engine is generic over the element type, so routing a
//!   precision onto a second engine by runtime type test is a fork to
//!   refuse, not a dispatch to allow.
//! * **`one-launcher`** — in library sources (as for `env-read`), only
//!   `crates/core/src/ops.rs` and the simulator itself (`crates/gpusim/src`)
//!   build a `KernelDesc` or call the simulator's `launch` /
//!   `launch_batch` / `cpu_exec` / `cpu_submit`: every kernel the workspace
//!   issues is an op a plan node names, so a driver that launches work on
//!   its own (off the plan layer, invisible to the plan checkers) cannot
//!   come back in any crate.
//! * **`plan-edit`** — under `crates/core/src`, only the planner's passes
//!   (`plan/{mod,skeleton,policy,shard}.rs`) call the pass primitive
//!   `.rewrite(` on a plan (a receiver whose name ends in `plan`), and no
//!   file calls `.remove(` on one: a plan is built by its passes, which
//!   drop a node by not writing it, so the balancer and the executor get a
//!   new shape by asking the planner, never by editing.
//! * **`float-order`** — library sources (as for `env-read`) never order
//!   floats with `partial_cmp(..)` followed by `.expect(` / `.unwrap(`: that
//!   is a panic site on a NaN. `f64::total_cmp` orders every value.
//! * **`tile-scan`** — the static checkers
//!   (`crates/analyze/src/{plancheck,coverage,liveness,schedule}.rs`) never
//!   write `tiles.contains(` and never key a `HashMap` by `TileRef` or by a
//!   `(usize, usize)` tile: a per-tile question is a lookup on the dense
//!   slot (`index::PlanIndex`, `schedule`'s tile ids), not a scan of every
//!   batch's tile list or a hash per access.
//! * **`one-record`** — only `crates/gpusim/src/context.rs`, the
//!   simulator's recorder, builds an `OpRecord { … }` or pushes a
//!   `TraceAction::Op` onto a log: every unit of work is written down once,
//!   in one op log, so a second per-op recorder cannot regrow beside it.
//! * **`one-team`** — library sources (as for `env-read`) never name
//!   `thread::spawn`, `thread::scope` or `available_parallelism` outside
//!   `crates/blas/src/par.rs`: host threads are one team, sized and forked in
//!   one file, so a second threading policy cannot grow beside it.
//! * **`order-scan`** — plan sources (`crates/core/src/plan/`) never call
//!   `.order.insert(` or `.order.retain(`, and never `.position(` on a
//!   chain that reads the issue order (`plan.order().iter().position(`): a
//!   pass writes the order anew in one walk, so a quadratic
//!   scan-and-shift cannot come back.
//! * **`dead-pub`** — a whole-workspace pass: every `pub` fn, struct, enum,
//!   const, type or trait a library source (`crates/*/src`, not `bin/`)
//!   declares must be named by a non-test source other than its own
//!   declaration. Callers are read from `crates/` (not `crates/*/tests/`),
//!   `src/`, `examples/` and `benchmark/src/`; a `pub use` re-export is not
//!   a caller. It is a word search, so a name any caller spells passes. A
//!   deliberate exception carries `// lint:allow(dead-pub) <reason>` on the
//!   declaration's line or the line above; a waiver without a reason waives
//!   nothing.
//! * **`label-format`** — library sources (as for `env-read`) never pass a
//!   `format!(…)` straight to `KernelDesc::new`: a launch's label is a
//!   [`Label`](hchol_gpusim::Label) recipe the op log renders only when it
//!   keeps the op, so a per-launch `String` cannot regrow.
//! * **`one-footprint`** — library sources (as for `env-read`) call the
//!   footprint functions `syrk_access`, `gemm_panel_access`,
//!   `trsm_panel_access` and `chk_update_access` only in
//!   `crates/core/src/plan/mod.rs`: a node's tiles are built once, by
//!   `FactorPlan::node_access`, and the executor hands them to the ledger
//!   and the op, so an op cannot rebuild a second copy beside them.
//!   Declarations and doc links do not count.
//!
//! Items under `#[cfg(test)]` are not scanned: test modules may use
//! free-form labels and scratch names by design, and a test is not a caller.
//! `shims/` (vendored stand-ins) and `target/` are never scanned.

use hchol_obs::names;
use std::collections::HashSet;
use std::fs;
use std::path::Path;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule tag: `safety-comment`, `obs-name`, `wall-clock`,
    /// `tolerance-literal`, `env-read`, `twin-op`, `one-engine`,
    /// `one-launcher`, `plan-edit`, `float-order`, `tile-scan`,
    /// `one-record`, `one-team`, `order-scan`, `dead-pub`, `label-format`,
    /// or `one-footprint`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lint every workspace source file under `root` (`crates/`, `src/`,
/// `tests/`; `shims/` and `target/` excluded), then run the whole-workspace
/// [`dead_pub`] pass, which also reads `examples/` and `benchmark/src/` as
/// callers. Panics on unreadable files — the lint runs in CI over a
/// checkout it owns.
pub fn lint_workspace(root: &Path) -> Vec<Lint> {
    let sources = workspace_sources(root);
    let mut out = Vec::new();
    for (rel, content) in &sources {
        if !rel.starts_with("examples/") && !rel.starts_with("benchmark/") {
            out.extend(lint_file(rel, content));
        }
    }
    out.extend(dead_pub(&sources));
    out
}

/// Every `.rs` file the lint reads, as (path relative to `root`, content),
/// sorted by path.
fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|f| {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            let content = fs::read_to_string(f)
                .unwrap_or_else(|e| panic!("lint: cannot read {}: {e}", f.display()));
            (rel, content)
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name != "target" && name != "shims" {
                collect_rs(&p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// Lint one file's content. `file` is the path used both for reporting and
/// for path-scoped rules (the `wall-clock` exemption of `crates/gpusim`).
pub fn lint_file(file: &str, content: &str) -> Vec<Lint> {
    let scan = Scan::of(content);
    let mut out = Vec::new();
    rule_safety_comment(file, &scan, &mut out);
    rule_obs_names(file, &scan, &mut out);
    if !file.contains("crates/gpusim/") {
        rule_wall_clock(file, &scan, &mut out);
    }
    if file.contains("crates/core/src/") && !file.ends_with("tolerance.rs") {
        rule_tolerance_literal(file, &scan, &mut out);
    }
    let in_src = file.starts_with("src/") || file.contains("/src/");
    let library = in_src && !file.contains("/bin/") && !file.contains("/benches/");
    if library {
        rule_env_read(file, &scan, &mut out);
        rule_float_order(file, &scan, &mut out);
        rule_label_format(file, &scan, &mut out);
        if file != TEAM_FILE {
            rule_one_team(file, &scan, &mut out);
        }
        if file != FOOTPRINT_FILE {
            rule_one_footprint(file, &scan, &mut out);
        }
    }
    if file == "crates/core/src/ops.rs" {
        rule_twin_op(file, &scan, &mut out);
    } else if library && !file.starts_with("crates/gpusim/src/") {
        rule_one_launcher(file, &scan, &mut out);
    }
    if file.starts_with("crates/blas/src/") {
        rule_one_engine(file, &scan, &mut out);
    }
    if file.starts_with("crates/core/src/") {
        rule_plan_edit(file, &scan, &mut out);
    }
    if TILE_CHECKERS.contains(&file) {
        rule_tile_scan(file, &scan, &mut out);
    }
    if file != "crates/gpusim/src/context.rs" {
        rule_one_record(file, &scan, &mut out);
    }
    if file.starts_with("crates/core/src/plan/") {
        rule_order_scan(file, &scan, &mut out);
    }
    out
}

#[derive(Debug, PartialEq)]
enum TokKind {
    Word(String),
    /// A string literal's content (quotes stripped, escapes kept verbatim).
    Str(String),
    Punct(char),
}

struct Tok {
    kind: TokKind,
    line: usize,
}

/// Tokenized file plus per-line comment annotations.
struct Scan {
    tokens: Vec<Tok>,
    /// Lines whose comments contain `SAFETY:`.
    safety_lines: HashSet<usize>,
    /// Lines whose comments contain `lint:allow(wall-clock)`.
    allow_wall_clock: HashSet<usize>,
    /// Lines whose comments contain `lint:allow(tolerance-literal)`.
    allow_tolerance: HashSet<usize>,
    /// Lines whose comments contain `lint:allow(dead-pub)` and a reason.
    allow_dead_pub: HashSet<usize>,
}

impl Scan {
    fn of(src: &str) -> Scan {
        let mut s = Scan {
            tokens: Vec::new(),
            safety_lines: HashSet::new(),
            allow_wall_clock: HashSet::new(),
            allow_tolerance: HashSet::new(),
            allow_dead_pub: HashSet::new(),
        };
        let b = src.as_bytes();
        let mut i = 0;
        let mut line = 1;
        while i < b.len() {
            let c = b[i];
            match c {
                b'\n' => {
                    line += 1;
                    i += 1;
                }
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    let start = i;
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                    s.note_comment(&src[start..i], line);
                }
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    let start = i;
                    let start_line = line;
                    let mut depth = 1;
                    i += 2;
                    while i < b.len() && depth > 0 {
                        if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                            depth += 1;
                            i += 2;
                        } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                            depth -= 1;
                            i += 2;
                        } else {
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    s.note_comment(&src[start..i], start_line);
                }
                b'"' => {
                    let (content, nl, next) = scan_string(src, i + 1, false);
                    s.tokens.push(Tok {
                        kind: TokKind::Str(content),
                        line,
                    });
                    line += nl;
                    i = next;
                }
                b'r' if matches!(b.get(i + 1), Some(b'"') | Some(b'#')) => {
                    // Raw string r"..." or r#"..."#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        let close: String = std::iter::once('"')
                            .chain("#".repeat(hashes).chars())
                            .collect();
                        let rest = &src[j + 1..];
                        let end = rest.find(&close).unwrap_or(rest.len());
                        let content = &rest[..end];
                        s.tokens.push(Tok {
                            kind: TokKind::Str(content.to_string()),
                            line,
                        });
                        line += content.matches('\n').count();
                        i = j + 1 + end + close.len();
                    } else {
                        // `r#ident` raw identifier: treat as a word.
                        i = j;
                    }
                }
                b'\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let mut j = i + 1;
                    if b.get(j)
                        .is_some_and(|c| c.is_ascii_alphabetic() || *c == b'_')
                    {
                        let mut k = j + 1;
                        while b
                            .get(k)
                            .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                        {
                            k += 1;
                        }
                        if b.get(k) != Some(&b'\'') {
                            // Lifetime: skip the quote, let the word lex.
                            i += 1;
                            continue;
                        }
                        i = k + 1; // char literal like 'a'
                        continue;
                    }
                    if b.get(j) == Some(&b'\\') {
                        j += 2; // escape like '\n' or '\\'
                    } else {
                        j += 1;
                    }
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    i = j + 1;
                }
                c if c.is_ascii_alphanumeric() || c == b'_' => {
                    let start = i;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    s.tokens.push(Tok {
                        kind: TokKind::Word(src[start..i].to_string()),
                        line,
                    });
                }
                c if c.is_ascii_whitespace() => i += 1,
                c => {
                    s.tokens.push(Tok {
                        kind: TokKind::Punct(c as char),
                        line,
                    });
                    i += 1;
                }
            }
        }
        s.strip_test_items();
        s
    }

    /// Drop every `#[cfg(test)]` item: the attribute, any attributes after
    /// it, and the item up to its `;` or its closing brace.
    fn strip_test_items(&mut self) {
        let is_cfg_test = |s: &Scan, i: usize| {
            s.punct_at(i, '#')
                && s.punct_at(i + 1, '[')
                && s.word_at(i + 2) == Some("cfg")
                && s.punct_at(i + 3, '(')
                && s.word_at(i + 4) == Some("test")
                && s.punct_at(i + 5, ')')
                && s.punct_at(i + 6, ']')
        };
        let mut keep = vec![true; self.tokens.len()];
        let mut i = 0;
        while i < self.tokens.len() {
            if !is_cfg_test(self, i) {
                i += 1;
                continue;
            }
            let start = i;
            let mut depth = 0usize;
            i += 7;
            while i < self.tokens.len() {
                match self.tokens[i].kind {
                    TokKind::Punct('{' | '[' | '(') => depth += 1,
                    TokKind::Punct(c @ ('}' | ']' | ')')) => {
                        depth = depth.saturating_sub(1);
                        if c == '}' && depth == 0 {
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            i = (i + 1).min(keep.len());
            keep[start..i].fill(false);
        }
        let mut keep = keep.into_iter();
        self.tokens.retain(|_| keep.next().unwrap_or(false));
    }

    fn note_comment(&mut self, text: &str, line: usize) {
        if text.contains("SAFETY:") {
            self.safety_lines.insert(line);
        }
        if text.contains("lint:allow(wall-clock)") {
            self.allow_wall_clock.insert(line);
        }
        if text.contains("lint:allow(tolerance-literal)") {
            self.allow_tolerance.insert(line);
        }
        if let Some((_, reason)) = text.split_once("lint:allow(dead-pub)") {
            if !reason.trim_end_matches("*/").trim().is_empty() {
                self.allow_dead_pub.insert(line);
            }
        }
    }

    fn word_at(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.kind) {
            Some(TokKind::Word(w)) => Some(w),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    }
}

/// Scan a (non-raw) string literal body starting right after the opening
/// quote; returns (content, newlines consumed, index past closing quote).
fn scan_string(src: &str, mut i: usize, _raw: bool) -> (String, usize, usize) {
    let b = src.as_bytes();
    let start = i;
    let mut nl = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (src[start..i].to_string(), nl, i + 1),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..].to_string(), nl, i)
}

fn rule_safety_comment(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        if t.kind != TokKind::Word("unsafe".to_string()) {
            continue;
        }
        let is_block = scan.punct_at(i + 1, '{');
        let is_impl = scan.word_at(i + 1) == Some("impl");
        if !is_block && !is_impl {
            continue;
        }
        let covered = (t.line.saturating_sub(3)..=t.line).any(|l| scan.safety_lines.contains(&l));
        if !covered {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "safety-comment",
                message: format!(
                    "`unsafe {}` without a `// SAFETY:` comment on the same or the 3 preceding lines",
                    if is_impl { "impl" } else { "{ .. }" }
                ),
            });
        }
    }
}

fn rule_wall_clock(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for t in &scan.tokens {
        let TokKind::Word(w) = &t.kind else { continue };
        if w != "Instant" && w != "SystemTime" {
            continue;
        }
        let waived =
            (t.line.saturating_sub(1)..=t.line).any(|l| scan.allow_wall_clock.contains(&l));
        if !waived {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "wall-clock",
                message: format!(
                    "`{w}` outside gpusim: all timing must use the virtual clock \
                     (waive deliberate uses with `// lint:allow(wall-clock)`)"
                ),
            });
        }
    }
}

/// Exponents whose negative powers of ten are epsilon-class detection
/// thresholds. `1e-7` / `1e-9` / `1e-12` (and any mantissa, e.g. `2.5e-9`)
/// must come from `hchol_core::tolerance` instead of being spelled inline.
const EPSILON_EXPONENTS: &[u32] = &[7, 9, 12];

fn rule_tolerance_literal(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, tok) in scan.tokens.iter().enumerate() {
        // A float's exponent part lexes as Word("1e") Punct('-') Word("9"):
        // the mantissa token ends in `e`/`E` with only digits (or a digit
        // run after a `.`) before it.
        let Some(mant) = scan.word_at(i) else {
            continue;
        };
        let Some(head) = mant.strip_suffix(['e', 'E']) else {
            continue;
        };
        if head.is_empty() || !head.bytes().all(|c| c.is_ascii_digit()) {
            continue;
        }
        if !scan.punct_at(i + 1, '-') {
            continue;
        }
        let Some(exp) = scan.word_at(i + 2) else {
            continue;
        };
        let Ok(exp) = exp.parse::<u32>() else {
            continue;
        };
        if !EPSILON_EXPONENTS.contains(&exp) {
            continue;
        }
        let line = tok.line;
        let waived = (line.saturating_sub(1)..=line).any(|l| scan.allow_tolerance.contains(&l));
        if !waived {
            out.push(Lint {
                file: file.to_string(),
                line,
                rule: "tolerance-literal",
                message: format!(
                    "bare epsilon literal `{mant}-{exp}`: name it in hchol_core::tolerance \
                     (waive deliberate uses with `// lint:allow(tolerance-literal)`)"
                ),
            });
        }
    }
}

fn rule_env_read(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        // `env :: var` / `env :: var_os`, however the path was reached.
        let reads_env = scan.word_at(i) == Some("env")
            && scan.punct_at(i + 1, ':')
            && scan.punct_at(i + 2, ':')
            && matches!(scan.word_at(i + 3), Some("var" | "var_os"));
        if reads_env {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "env-read",
                message: "library code reads the process environment: \
                          take the setting through an options struct instead"
                    .to_string(),
            });
        }
    }
}

fn rule_label_format(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let formats = scan.word_at(i) == Some("KernelDesc")
            && scan.punct_at(i + 1, ':')
            && scan.punct_at(i + 2, ':')
            && scan.word_at(i + 3) == Some("new")
            && scan.punct_at(i + 4, '(')
            && scan.word_at(i + 5) == Some("format")
            && scan.punct_at(i + 6, '!');
        if formats {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "label-format",
                message: "launch label formatted per launch: pass a `Label` recipe \
                          (`Label::Iter`, `Label::Tile`, …), which the op log renders \
                          only when it keeps the op"
                    .to_string(),
            });
        }
    }
}

fn rule_float_order(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        if scan.word_at(i) != Some("partial_cmp") || !scan.punct_at(i + 1, '(') {
            continue;
        }
        // Past the balanced argument list: `. expect (` or `. unwrap (`?
        let mut depth = 0usize;
        let mut k = i + 1;
        while k < scan.tokens.len() {
            if scan.punct_at(k, '(') {
                depth += 1;
            } else if scan.punct_at(k, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let forced = scan.punct_at(k + 1, '.')
            && matches!(scan.word_at(k + 2), Some("expect" | "unwrap"))
            && scan.punct_at(k + 3, '(');
        if forced {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "float-order",
                message: "`partial_cmp(..)` forced with `expect`/`unwrap` panics on a NaN: \
                          order floats with `total_cmp`"
                    .to_string(),
            });
        }
    }
}

fn rule_twin_op(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        if scan.word_at(i) != Some("pub") || scan.word_at(i + 1) != Some("fn") {
            continue;
        }
        let Some(name) = scan.word_at(i + 2) else {
            continue;
        };
        if name.ends_with("_fused") || name.ends_with("_shard") {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "twin-op",
                message: format!(
                    "`pub fn {name}`: make the epilogue / row set a parameter of the \
                     original op instead of declaring a twin beside it"
                ),
            });
        }
    }
}

fn rule_one_engine(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        if scan.word_at(i) == Some("dyn") && scan.word_at(i + 1) == Some("Any") {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "one-engine",
                message: "`dyn Any` in the BLAS layer: make the kernel generic over \
                          `Scalar` (the kernel table carries what differs per precision) \
                          instead of downcasting onto a per-precision path"
                    .to_string(),
            });
        }
    }
}

fn rule_one_launcher(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let builds_desc = scan.word_at(i) == Some("KernelDesc")
            && scan.punct_at(i + 1, ':')
            && scan.punct_at(i + 2, ':')
            && scan.word_at(i + 3) == Some("new");
        let launches = scan.punct_at(i.wrapping_sub(1), '.')
            && matches!(
                scan.word_at(i),
                Some("launch" | "launch_batch" | "cpu_exec" | "cpu_submit")
            )
            && scan.punct_at(i + 1, '(');
        if builds_desc || launches {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "one-launcher",
                message: "kernel issued outside ops.rs: make it an op in \
                          `crates/core/src/ops.rs` that a plan node names, \
                          not a launch of the driver's own"
                    .to_string(),
            });
        }
    }
}

/// The modules that build plans: the IR itself and the passes over it.
const PLAN_PASSES: &[&str] = &[
    "crates/core/src/plan/mod.rs",
    "crates/core/src/plan/skeleton.rs",
    "crates/core/src/plan/policy.rs",
    "crates/core/src/plan/shard.rs",
];

fn rule_plan_edit(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    let passes = PLAN_PASSES.contains(&file);
    for (i, t) in scan.tokens.iter().enumerate() {
        if !scan.punct_at(i.wrapping_sub(1), '.')
            || !scan.punct_at(i + 1, '(')
            || !scan
                .word_at(i.wrapping_sub(2))
                .is_some_and(|w| w.ends_with("plan"))
        {
            continue;
        }
        let message = match scan.word_at(i) {
            Some("rewrite") if !passes => {
                "plan rewritten outside the planner's passes: build the plan for the new \
                 state (`plan::passes`) and splice it in with `FactorPlan::replace_tail`"
            }
            Some("remove") => {
                "node removed from a plan: a pass drops a node by not writing it in its \
                 rewrite"
            }
            _ => continue,
        };
        out.push(Lint {
            file: file.to_string(),
            line: t.line,
            rule: "plan-edit",
            message: message.to_string(),
        });
    }
}

/// The static checkers that answer per-tile questions from dense slots.
const TILE_CHECKERS: &[&str] = &[
    "crates/analyze/src/plancheck.rs",
    "crates/analyze/src/coverage.rs",
    "crates/analyze/src/liveness.rs",
    "crates/analyze/src/schedule.rs",
];

fn rule_tile_scan(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let scans = scan.word_at(i) == Some("tiles")
            && scan.punct_at(i + 1, '.')
            && scan.word_at(i + 2) == Some("contains")
            && scan.punct_at(i + 3, '(');
        let hashes = scan.word_at(i) == Some("HashMap")
            && scan.punct_at(i + 1, '<')
            && (scan.word_at(i + 2) == Some("TileRef")
                || (scan.punct_at(i + 2, '(')
                    && scan.word_at(i + 3) == Some("usize")
                    && scan.punct_at(i + 4, ',')
                    && scan.word_at(i + 5) == Some("usize")
                    && scan.punct_at(i + 6, ')')));
        if scans || hashes {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "tile-scan",
                message: "per-tile question answered by a scan or a hash: look the tile up \
                          on its dense slot (`index::PlanIndex`, the sweep's tile ids)"
                    .to_string(),
            });
        }
    }
}

fn rule_one_record(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let builds = scan.word_at(i) == Some("OpRecord")
            && scan.punct_at(i + 1, '{')
            && !matches!(
                scan.word_at(i.wrapping_sub(1)),
                Some("struct" | "impl" | "for")
            );
        let pushes = scan.punct_at(i.wrapping_sub(1), '.')
            && scan.word_at(i) == Some("push")
            && scan.punct_at(i + 1, '(')
            && scan.word_at(i + 2) == Some("TraceAction")
            && scan.punct_at(i + 3, ':')
            && scan.punct_at(i + 4, ':')
            && scan.word_at(i + 5) == Some("Op");
        if builds || pushes {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "one-record",
                message: "op recorded outside the simulator's recorder: every unit of work \
                          is one `OpRecord` pushed by `SimContext` (context.rs); read the \
                          op log's views instead of keeping a second record"
                    .to_string(),
            });
        }
    }
}

/// The one file that forks host threads and sizes the team.
const TEAM_FILE: &str = "crates/blas/src/par.rs";

fn rule_one_team(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let forks = scan.word_at(i) == Some("thread")
            && scan.punct_at(i + 1, ':')
            && scan.punct_at(i + 2, ':')
            && matches!(scan.word_at(i + 3), Some("spawn" | "scope"));
        if forks || scan.word_at(i) == Some("available_parallelism") {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "one-team",
                message: format!(
                    "host threads outside {TEAM_FILE}: hand the units of work to \
                     `hchol_blas::par::for_each` instead of forking or sizing a team here"
                ),
            });
        }
    }
}

/// The one file that builds a node's footprint.
const FOOTPRINT_FILE: &str = "crates/core/src/plan/mod.rs";

fn rule_one_footprint(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        let access = matches!(
            scan.word_at(i),
            Some("syrk_access" | "gemm_panel_access" | "trsm_panel_access" | "chk_update_access")
        );
        if access && scan.punct_at(i + 1, '(') && scan.word_at(i.wrapping_sub(1)) != Some("fn") {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "one-footprint",
                message: format!(
                    "footprint rebuilt outside {FOOTPRINT_FILE}: take the tiles \
                     `FactorPlan::node_access` declares for the node"
                ),
            });
        }
    }
}

fn rule_order_scan(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    for (i, t) in scan.tokens.iter().enumerate() {
        if !scan.punct_at(i.wrapping_sub(1), '.') || !scan.punct_at(i + 1, '(') {
            continue;
        }
        let shifts = matches!(scan.word_at(i), Some("insert" | "retain"))
            && scan.word_at(i.wrapping_sub(2)) == Some("order")
            && scan.punct_at(i.wrapping_sub(3), '.');
        let scans = scan.word_at(i) == Some("position") && chain_reads(scan, i - 1, "order");
        if shifts || scans {
            out.push(Lint {
                file: file.to_string(),
                line: t.line,
                rule: "order-scan",
                message: "issue order scanned or shifted: write the new order in one walk \
                          over the old (`FactorPlan::rewrite`), one iteration's run at a time"
                    .to_string(),
            });
        }
    }
}

/// Does the receiver chain of the method call whose `.` is token `dot`
/// read `word` — `plan.order().iter()`, or `self.order` on the line above?
fn chain_reads(scan: &Scan, dot: usize, word: &str) -> bool {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        if scan.punct_at(i, ')') {
            // Step back over the argument list to the callee's name.
            let mut depth = 0;
            while i > 0 {
                if scan.punct_at(i, ')') {
                    depth += 1;
                } else if scan.punct_at(i, '(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                i -= 1;
            }
            continue;
        }
        match scan.word_at(i) {
            Some(w) if w == word => return true,
            Some(_) if scan.punct_at(i.wrapping_sub(1), '.') => i -= 1,
            _ => return false,
        }
    }
    false
}

/// Item kinds whose `pub` declarations [`dead_pub`] checks.
const PUB_KINDS: &[&str] = &["fn", "struct", "enum", "const", "type", "trait"];

/// Keywords whose next word is the name being declared, not a use of it.
const DECL_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "const", "type", "trait", "static", "mod", "union",
];

/// Does `file` declare library surface: a crate's `src/`, not a `bin/`?
fn is_library(file: &str) -> bool {
    file.starts_with("crates/") && file.contains("/src/") && !file.contains("/bin/")
}

/// Does `file` count as a caller: a non-test source of the workspace?
fn is_caller(file: &str) -> bool {
    (file.starts_with("crates/") && !file.contains("/tests/"))
        || file.starts_with("src/")
        || file.starts_with("examples/")
        || file.starts_with("benchmark/src/")
}

impl Scan {
    /// The `pub` items this file declares: (token index, kind, name).
    /// `pub(crate)` and other restricted visibilities are not surface.
    fn pub_items(&self) -> Vec<(usize, &str, &str)> {
        let mut items = Vec::new();
        for i in 0..self.tokens.len() {
            if self.word_at(i) != Some("pub") || self.punct_at(i + 1, '(') {
                continue;
            }
            let mut k = i + 1;
            while matches!(self.word_at(k), Some("unsafe" | "async" | "extern"))
                || (self.word_at(k) == Some("const") && self.word_at(k + 1) == Some("fn"))
                || matches!(self.tokens.get(k).map(|t| &t.kind), Some(TokKind::Str(_)))
            {
                k += 1;
            }
            if let (Some(kind), Some(name)) = (self.word_at(k), self.word_at(k + 1)) {
                if PUB_KINDS.contains(&kind) {
                    items.push((i, kind, name));
                }
            }
        }
        items
    }

    /// Every word this file names as a use: declared names and `pub use`
    /// re-exports are left out.
    fn named_words<'s>(&'s self, out: &mut HashSet<&'s str>) {
        let mut in_reexport = false;
        for i in 0..self.tokens.len() {
            if in_reexport {
                in_reexport = !self.punct_at(i, ';');
                continue;
            }
            let Some(w) = self.word_at(i) else { continue };
            if w == "use" && self.reexports(i) {
                in_reexport = true;
                continue;
            }
            let declared = self
                .word_at(i.wrapping_sub(1))
                .is_some_and(|k| DECL_KEYWORDS.contains(&k))
                && !self.punct_at(i.wrapping_sub(2), '*');
            if !declared {
                out.insert(w);
            }
        }
    }

    /// Is the `use` at token `i` a `pub use` / `pub(crate) use` re-export?
    fn reexports(&self, i: usize) -> bool {
        self.word_at(i.wrapping_sub(1)) == Some("pub")
            || (self.punct_at(i.wrapping_sub(1), ')')
                && self.punct_at(i.wrapping_sub(3), '(')
                && self.word_at(i.wrapping_sub(4)) == Some("pub"))
    }
}

/// The `dead-pub` pass over `(path, content)` sources (see the module docs):
/// one finding per `pub` item of a library source that no caller names.
pub fn dead_pub(sources: &[(String, String)]) -> Vec<Lint> {
    let scans: Vec<(&str, Scan)> = sources
        .iter()
        .filter(|(file, _)| is_caller(file))
        .map(|(file, content)| (file.as_str(), Scan::of(content)))
        .collect();
    let mut named = HashSet::new();
    for (_, scan) in &scans {
        scan.named_words(&mut named);
    }
    let mut out = Vec::new();
    for (file, scan) in scans.iter().filter(|(file, _)| is_library(file)) {
        for (i, kind, name) in scan.pub_items() {
            let line = scan.tokens[i].line;
            let waived = (line.saturating_sub(1)..=line).any(|l| scan.allow_dead_pub.contains(&l));
            if !named.contains(name) && !waived {
                out.push(Lint {
                    file: file.to_string(),
                    line,
                    rule: "dead-pub",
                    message: format!(
                        "`pub {kind} {name}` is named by no non-test source: delete it \
                         (waive a deliberate exception with `// lint:allow(dead-pub) <reason>`)"
                    ),
                });
            }
        }
    }
    out
}

/// Methods of `MetricsRegistry` whose first string argument is a metric name.
const METRIC_METHODS: &[&str] = &["inc", "add_count", "add_f64", "set_gauge", "observe"];

/// A recognized call site: registry check fn, registry label, index of the
/// opening paren.
type NameSite = (fn(&str) -> bool, &'static str, usize);

fn rule_obs_names(file: &str, scan: &Scan, out: &mut Vec<Lint>) {
    let toks = &scan.tokens;
    for i in 0..toks.len() {
        let Some(word) = scan.word_at(i) else {
            continue;
        };
        let site: Option<NameSite> = if scan.punct_at(i.wrapping_sub(1), '.')
            && METRIC_METHODS.contains(&word)
            && scan.punct_at(i + 1, '(')
        {
            Some((names::metric_registered, "metric", i + 1))
        } else if scan.punct_at(i.wrapping_sub(1), '.')
            && word == "event"
            && scan.punct_at(i + 1, '(')
        {
            Some((names::event_registered, "event kind", i + 1))
        } else if word == "scope" && scan.punct_at(i + 1, '!') && scan.punct_at(i + 2, '(') {
            Some((names::scope_registered, "scope label", i + 2))
        } else if word == "open"
            && scan.punct_at(i.wrapping_sub(1), '.')
            && scan.word_at(i.wrapping_sub(2)) == Some("spans")
            && scan.punct_at(i + 1, '(')
        {
            Some((names::scope_registered, "scope label", i + 1))
        } else {
            None
        };
        let Some((check, what, open)) = site else {
            continue;
        };
        if let Some((name, line)) = first_literal_in_call(scan, open) {
            if !check(&name) {
                out.push(Lint {
                    file: file.to_string(),
                    line,
                    rule: "obs-name",
                    message: format!("{what} `{name}` is not in the hchol_obs::names registry"),
                });
            }
        }
    }
}

/// First string literal inside the balanced-paren call starting at token
/// index `open` (which must be the `(`). A literal directly inside a
/// `format!( … )` is normalized: every `{…}` placeholder becomes `*`.
/// Returns `None` when the call passes no literal (dynamic name — not
/// statically checkable).
fn first_literal_in_call(scan: &Scan, open: usize) -> Option<(String, usize)> {
    let toks = &scan.tokens;
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match &toks[k].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            TokKind::Str(s) => {
                let from_format = k >= 3
                    && scan.punct_at(k - 1, '(')
                    && scan.punct_at(k - 2, '!')
                    && scan.word_at(k - 3) == Some("format");
                let name = if from_format {
                    normalize_format_literal(s)
                } else {
                    s.clone()
                };
                return Some((name, toks[k].line));
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// `"busy_secs.engine.{engine}"` → `"busy_secs.engine.*"`; `{{`/`}}`
/// unescape to literal braces.
fn normalize_format_literal(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'{' if b.get(i + 1) == Some(&b'{') => {
                out.push('{');
                i += 2;
            }
            b'}' if b.get(i + 1) == Some(&b'}') => {
                out.push('}');
                i += 2;
            }
            b'{' => {
                while i < b.len() && b[i] != b'}' {
                    i += 1;
                }
                i += 1;
                out.push('*');
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_format_placeholders() {
        assert_eq!(normalize_format_literal("a.{x}.b"), "a.*.b");
        assert_eq!(normalize_format_literal("{}:{:?}"), "*:*");
        assert_eq!(normalize_format_literal("lit {{x}}"), "lit {x}");
        assert_eq!(normalize_format_literal("{} n={} b={}"), "* n=* b=*");
    }

    #[test]
    fn flags_unsafe_block_without_safety_comment() {
        let src = "fn f() {\n    unsafe { g() };\n}\n";
        let lints = lint_file("crates/x/src/a.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].rule, "safety-comment");
        assert_eq!(lints[0].line, 2);
    }

    #[test]
    fn safety_comment_within_three_lines_passes() {
        let src = "fn f() {\n    // SAFETY: g is fine here.\n    unsafe { g() };\n}\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
        let src = "// SAFETY: stripes are disjoint.\nunsafe impl Send for T {}\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
        let src = "unsafe impl Send for T {}\n";
        assert_eq!(lint_file("crates/x/src/a.rs", src).len(), 1);
    }

    #[test]
    fn unsafe_fn_decl_is_not_flagged() {
        let src = "/// # Safety\n/// caller checks bounds.\npub unsafe fn f(p: *const f64) {}\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_ignored() {
        let src = "// this mentions unsafe { } in prose\nfn f() { let _ = \"unsafe {\"; }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_gpusim_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(lint_file("crates/core/src/a.rs", src).len(), 1);
        assert!(lint_file("crates/gpusim/src/a.rs", src).is_empty());
        let waived = "// lint:allow(wall-clock)\nuse std::time::Instant;\n";
        assert!(lint_file("crates/core/src/a.rs", waived).is_empty());
    }

    #[test]
    fn unregistered_metric_name_flagged() {
        let src = "fn f(m: &mut M) { m.inc(\"verify.batchez\"); }\n";
        let lints = lint_file("crates/x/src/a.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].rule, "obs-name");
        let ok = "fn f(m: &mut M) { m.inc(\"verify.batches\"); }\n";
        assert!(lint_file("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn format_metric_names_resolve_against_wildcards() {
        let src = "fn f(m: &mut M) { m.add_f64(&format!(\"busy_secs.engine.{e}\"), x); }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
        let bad = "fn f(m: &mut M) { m.add_f64(&format!(\"busy_sec.engine.{e}\"), x); }\n";
        assert_eq!(lint_file("crates/x/src/a.rs", bad).len(), 1);
    }

    #[test]
    fn scope_and_event_sites_checked() {
        let ok = "fn f() { scope!(ctx, \"syrk\", Phase::Syrk, body()); }\n";
        assert!(lint_file("crates/x/src/a.rs", ok).is_empty());
        let bad = "fn f() { scope!(ctx, \"sirk\", Phase::Syrk, body()); }\n";
        assert_eq!(lint_file("crates/x/src/a.rs", bad).len(), 1);
        let ev = "fn f(o: &mut Obs) { o.event(t, \"fault.detected\", d); }\n";
        assert!(lint_file("crates/x/src/a.rs", ev).is_empty());
        let open = "fn f(o: &mut Obs) { o.spans.open(format!(\"iter {j}\"), p, t); }\n";
        assert!(lint_file("crates/x/src/a.rs", open).is_empty());
    }

    #[test]
    fn epsilon_literals_flagged_in_core_only() {
        let src = "fn f() -> f64 { 1e-9 }\n";
        let lints = lint_file("crates/core/src/a.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].rule, "tolerance-literal");
        // Other crates, the tolerance module itself, and non-epsilon
        // exponents are all out of scope.
        assert!(lint_file("crates/blas/src/a.rs", src).is_empty());
        assert!(lint_file("crates/core/src/tolerance.rs", src).is_empty());
        assert!(lint_file("crates/core/src/a.rs", "fn f() -> f64 { 1e-3 }\n").is_empty());
        // Mantissa variants are caught; waivers work.
        assert_eq!(
            lint_file("crates/core/src/a.rs", "fn f() -> f64 { 2.5e-12 }\n").len(),
            1
        );
        let waived = "// lint:allow(tolerance-literal)\nfn f() -> f64 { 1e-7 }\n";
        assert!(lint_file("crates/core/src/a.rs", waived).is_empty());
        // Identifiers ending in `e` minus a number are not literals.
        assert!(lint_file(
            "crates/core/src/a.rs",
            "fn f(rate: f64) -> f64 { rate - 9.0 }\n"
        )
        .is_empty());
    }

    #[test]
    fn env_reads_flagged_in_library_sources_only() {
        // Spelled with spaces around `::` (the scanner is whitespace-blind)
        // so a plain-text search for the call finds real uses only.
        let src = "fn f() -> bool { std::env :: var_os(\"X\").is_some() }\n";
        for lib in ["crates/core/src/ops.rs", "src/lib.rs"] {
            let lints = lint_file(lib, src);
            assert_eq!(lints.len(), 1, "{lib}");
            assert_eq!(lints[0].rule, "env-read");
        }
        assert_eq!(
            lint_file(
                "crates/x/src/a.rs",
                "use std::env;\nfn f() { env :: var(\"X\"); }\n"
            )
            .len(),
            1
        );
        for exempt in [
            "crates/bench/src/bin/sweep.rs",
            "crates/bench/benches/kernels.rs",
            "tests/shard.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // Other `env` items (compile-time `env!`, `env::args`) are fine.
        let ok = "fn f() { let _ = env!(\"CARGO_MANIFEST_DIR\"); std::env::args(); }\n";
        assert!(lint_file("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn formatted_launch_labels_flagged_in_library_sources_only() {
        let src = "fn f(j: usize) {\n    \
                   let d = KernelDesc::new(format!(\"GEMM j={j}\"), c, 1, cat);\n    \
                   let e = KernelDesc :: new(\n        format!(\"x{j}\"), c, 1, cat);\n}\n";
        for lib in [
            "crates/core/src/ops.rs",
            "crates/bench/src/runner.rs",
            "src/lib.rs",
        ] {
            let lints = lint_file(lib, src);
            let hits: Vec<_> = lints.iter().filter(|l| l.rule == "label-format").collect();
            assert_eq!(
                hits.iter().map(|l| l.line).collect::<Vec<_>>(),
                [2, 3],
                "{lib}"
            );
        }
        for exempt in [
            "crates/bench/src/bin/sweep.rs",
            "crates/gpusim/tests/alloc_budget.rs",
            "tests/schedule_analysis.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // A recipe, a `String` built elsewhere, prose, strings and test
        // modules pass.
        let ok = "// KernelDesc::new(format!(..)) allocates per launch\n\
                  fn f(j: usize, s: String) {\n    \
                  KernelDesc::new(Label::Iter(\"POTF2\", j), c, 1, cat);\n    \
                  KernelDesc::new(s, c, 1, cat);\n    \
                  let _ = \"KernelDesc::new(format!(\";\n}\n\
                  #[cfg(test)]\nmod tests { fn g() { KernelDesc::new(format!(\"op\"), c, 1, cat); } }\n";
        assert!(lint_file("crates/core/src/ops.rs", ok).is_empty());
    }

    #[test]
    fn forced_partial_cmp_flagged_in_library_sources_only() {
        let src = "fn f(v: &mut [f64]) {\n    \
                   v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"));\n    \
                   v.sort_by(|a, b| b.partial_cmp(&(a + g(1))).unwrap());\n}\n";
        for lib in ["crates/gpusim/src/schedule.rs", "src/lib.rs"] {
            let lints = lint_file(lib, src);
            assert!(lints.iter().all(|l| l.rule == "float-order"), "{lib}");
            assert_eq!(lints.iter().map(|l| l.line).collect::<Vec<_>>(), [2, 3]);
        }
        for exempt in [
            "crates/bench/src/bin/sweep.rs",
            "crates/bench/benches/kernels.rs",
            "crates/gpusim/tests/scheduler_properties.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // A handled `Option<Ordering>`, `total_cmp`, a `PartialOrd` impl,
        // prose and strings are all fine.
        let ok = "// a.partial_cmp(b).unwrap() panics on NaN\n\
                  fn f(a: f64, b: f64) -> Ordering {\n    \
                  let _ = \"partial_cmp(b).unwrap()\";\n    \
                  a.partial_cmp(&b).unwrap_or(Ordering::Equal).then(a.total_cmp(&b))\n}\n\
                  fn partial_cmp(&self, o: &Self) -> Option<Ordering> { self.0.partial_cmp(&o.0) }\n";
        assert!(lint_file("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn twin_ops_flagged_in_core_ops_only() {
        let src = "pub fn gemm_panel_fused() {}\npub fn trsm_shard() {}\n";
        let lints = lint_file("crates/core/src/ops.rs", src);
        assert_eq!(lints.len(), 2);
        assert!(lints.iter().all(|l| l.rule == "twin-op"));
        assert_eq!((lints[0].line, lints[1].line), (1, 2));
        // Elsewhere (the BLAS layer's `gemm_fused` is a kernel, not a twin
        // op), privately, or as a prefix, the names are fine.
        assert!(lint_file("crates/blas/src/level3/gemm.rs", src).is_empty());
        let ok = "fn helper_fused() {}\npub fn shard_parity_xor() {}\npub fn gemm_panel() {}\n";
        assert!(lint_file("crates/core/src/ops.rs", ok).is_empty());
    }

    #[test]
    fn any_downcasts_flagged_in_the_blas_layer_only() {
        let src = "use core::any::Any;\nfn f(m: &M) -> bool { (m as &dyn Any).is::<f64>() }\n";
        let lints = lint_file("crates/blas/src/level3/gemm.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!((lints[0].rule, lints[0].line), ("one-engine", 2));
        // Other crates may type-erase; comments and strings never count.
        assert!(lint_file("crates/obs/src/report.rs", src).is_empty());
        let ok = "// no dyn Any here\nfn f() -> &'static str { \"dyn Any\" }\n";
        assert!(lint_file("crates/blas/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn launches_flagged_in_library_sources_outside_ops_only() {
        let src = "fn f(ctx: &mut C) {\n    let d = KernelDesc::new(\"k\", c, 1, cat);\n    \
                   ctx.launch(s, d, |_| {});\n    ctx.cpu_exec(d, |_| {});\n    \
                   a.ctx.cpu_submit(d, |_, _| {});\n    \
                   ctx.launch_batch(descs.map(|d| (s, d)), |_| {});\n}\n";
        for lib in [
            "crates/core/src/plan/exec.rs",
            "crates/bench/src/runner.rs",
            "crates/analyze/src/schedule.rs",
            "src/lib.rs",
        ] {
            let lints = lint_file(lib, src);
            assert!(lints.iter().all(|l| l.rule == "one-launcher"), "{lib}");
            assert_eq!(
                lints.iter().map(|l| l.line).collect::<Vec<_>>(),
                [2, 3, 4, 5, 6],
                "{lib}"
            );
        }
        // `ops.rs` is where ops live and the simulator is what they call;
        // binaries, benches and tests are out of scope.
        for exempt in [
            "crates/core/src/ops.rs",
            "crates/gpusim/src/context.rs",
            "crates/bench/src/bin/bench.rs",
            "crates/bench/benches/kernels.rs",
            "crates/core/tests/model_validation.rs",
            "tests/schedule_analysis.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // Naming the type, other methods of that name's family, prose and
        // strings never count.
        let ok = "use hchol_gpusim::context::KernelDesc;\n// ctx.launch(..) lives in ops.rs\n\
                  fn f(d: KernelDesc) -> &'static str { relaunch(d); \".launch(\" }\n";
        assert!(lint_file("crates/core/src/magma.rs", ok).is_empty());
    }

    #[test]
    fn footprints_built_only_by_the_plan() {
        // The four call sites an op that rebuilds its own footprint has.
        let src = "pub fn syrk_access(nt: usize) -> AccessSet { AccessSet::none() }\n\
                   fn a(lay: &L) { let access = syrk_access(lay.nt, j, cols.clone(), fused); }\n\
                   fn b(lay: &L) { let access = gemm_panel_access(lay.nt, j, cols, rows, f); }\n\
                   fn c() { let access = trsm_panel_access(j, rows); }\n\
                   fn d() { let access = ops::chk_update_access(op, j, i); }\n";
        for lib in ["crates/core/src/ops.rs", "crates/core/src/plan/exec.rs"] {
            let lints = lint_file(lib, src);
            assert!(lints.iter().all(|l| l.rule == "one-footprint"), "{lib}");
            let lines: Vec<_> = lints.iter().map(|l| l.line).collect();
            assert_eq!(lines, [2, 3, 4, 5], "{lib}");
        }
        // The plan builds footprints; tests may build their own.
        for exempt in [
            "crates/core/src/plan/mod.rs",
            "crates/core/tests/ledger_rule.rs",
            "tests/schedule_analysis.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // Declarations, doc links, strings and test modules never count.
        let ok = "/// See [`syrk_access`] and [`trsm_panel_access`].\n\
                  pub fn gemm_panel_access(nt: usize) -> AccessSet { AccessSet::none() }\n\
                  fn f() -> &'static str { \"chk_update_access(\" }\n\
                  #[cfg(test)]\nmod tests { fn g() { syrk_access(4, 1, 0..1, false); } }\n";
        assert!(lint_file("crates/core/src/ops.rs", ok).is_empty());
    }

    #[test]
    fn plan_edits_flagged_in_core_outside_the_passes_only() {
        let src = "fn f(plan: &mut FactorPlan, lane: &mut Lane) {\n    \
                   plan.rewrite(|p, run| {});\n    \
                   lane.plan.rewrite(|p, run| {});\n    \
                   fplan.remove(id);\n}\n";
        let lines = |file| {
            let lints = lint_file(file, src);
            assert!(lints.iter().all(|l| l.rule == "plan-edit"), "{file}");
            lints.iter().map(|l| l.line).collect::<Vec<_>>()
        };
        for hit in [
            "crates/core/src/plan/balance.rs",
            "crates/core/src/plan/exec.rs",
        ] {
            assert_eq!(lines(hit), [2, 3, 4], "{hit}");
        }
        // The passes rewrite plans by design, but drop nodes by not writing
        // them; other crates (the analyzers' mutation controls, tests) are
        // out of scope.
        for pass in PLAN_PASSES {
            assert_eq!(lines(pass), [4], "{pass}");
        }
        for exempt in ["crates/analyze/src/coverage.rs", "tests/plan_layer.rs"] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // Removing from a map or a set, the balancer's own `rewrite`,
        // splicing a tail, prose and strings are not plan edits.
        let ok = "// plan.remove(id) is for tests\nfn f(plan: &mut FactorPlan) {\n    \
                  covered.remove(&t);\n    ctrl.rewrite(plan, 4);\n    \
                  plan.replace_tail(4, &fresh);\n    let _ = \".rewrite(\";\n}\n";
        assert!(lint_file("crates/core/src/plan/balance.rs", ok).is_empty());
    }

    #[test]
    fn tile_scans_flagged_in_the_static_checkers_only() {
        let src = "fn f(v: &V, t: (usize, usize)) -> bool { v.tiles.contains(&t) }\n\
                   struct S { a: HashMap<TileRef, u32>, b: HashMap<(usize, usize), usize> }\n";
        for file in [
            "crates/analyze/src/plancheck.rs",
            "crates/analyze/src/coverage.rs",
            "crates/analyze/src/liveness.rs",
            "crates/analyze/src/schedule.rs",
        ] {
            let lints = lint_file(file, src);
            assert_eq!(lints.len(), 3, "{file}: {lints:?}");
            assert!(lints.iter().all(|l| l.rule == "tile-scan"));
            assert_eq!(lints[0].line, 1);
            assert_eq!(lints[2].line, 2);
        }
        // The index builds the per-tile lists; other crates are out of scope.
        assert!(lint_file("crates/analyze/src/index.rs", src).is_empty());
        assert!(lint_file("crates/core/src/plan/mod.rs", src).is_empty());
        // Other receivers, other keys, comments, strings and test modules pass.
        let ok = "// tiles.contains(&t) was the scan\n\
                  fn f(live: &[usize], m: &HashMap<(usize, ShardXfer), usize>) -> bool {\n    \
                  live.contains(&3) && m.is_empty() && \"HashMap<TileRef\".is_empty()\n}\n\
                  #[cfg(test)]\nmod tests { fn g(v: &V) -> bool { v.tiles.contains(&(0, 0)) } }\n";
        assert!(lint_file("crates/analyze/src/coverage.rs", ok).is_empty());
    }

    #[test]
    fn order_scans_flagged_in_the_plan_sources_only() {
        let src = "fn f(&mut self, plan: &FactorPlan) {\n    \
                   self.order.insert(pos, id);\n    \
                   self.order.retain(|&n| n != id);\n    \
                   let p = plan.order().iter().position(|&n| n == id);\n    \
                   let q = self\n        .order\n        .iter()\n        .position(|&n| n == id);\n}\n";
        for hit in [
            "crates/core/src/plan/mod.rs",
            "crates/core/src/plan/policy.rs",
            "crates/core/src/plan/balance.rs",
        ] {
            let lints = lint_file(hit, src);
            assert!(lints.iter().all(|l| l.rule == "order-scan"), "{hit}");
            assert_eq!(
                lints.iter().map(|l| l.line).collect::<Vec<_>>(),
                [2, 3, 4, 8],
                "{hit}"
            );
        }
        // Other crates and the rest of core are out of scope.
        for exempt in ["crates/core/src/ops.rs", "crates/analyze/src/index.rs"] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // Other vectors, a position over anything but the order, prose,
        // strings and test modules pass.
        let ok = "// self.order.insert(pos, id) was the shift\n\
                  fn f(&mut self, rows: &[usize]) {\n    \
                  self.nodes.insert(3, node);\n    \
                  let i = rows.iter().position(|&r| r == 2);\n    \
                  let o = order_of(rows).len();\n    \
                  let _ = \".order.retain(\";\n}\n\
                  #[cfg(test)]\nmod tests { fn g(p: &FactorPlan) { p.order().iter().position(|_| true); } }\n";
        assert!(lint_file("crates/core/src/plan/mod.rs", ok).is_empty());
    }

    #[test]
    fn op_records_flagged_outside_the_recorder_only() {
        let src = "fn f(log: &mut OpLog, r: OpRecord) {\n    \
                   let op = OpRecord { label, ..r };\n    \
                   log.push(TraceAction::Op(op));\n}\n";
        for hit in [
            "crates/gpusim/src/oplog.rs",
            "crates/gpusim/src/executor.rs",
            "crates/core/src/plan/exec.rs",
        ] {
            let lints = lint_file(hit, src);
            assert!(lints.iter().all(|l| l.rule == "one-record"), "{hit}");
            assert_eq!(lints.iter().map(|l| l.line).collect::<Vec<_>>(), [2, 3]);
        }
        assert!(lint_file("crates/gpusim/src/context.rs", src).is_empty());
        // Declaring and implementing the type, matching an op, pushing
        // anything else, prose, strings and test modules pass.
        let ok = "pub struct OpRecord {}\nimpl OpRecord {}\nimpl Serialize for OpRecord {}\n\
                  // log.push(TraceAction::Op(op)) lives in context.rs\n\
                  fn f(a: &TraceAction, v: &mut Vec<TraceAction>) {\n    \
                  if let TraceAction::Op(op) = a { v.push(TraceAction::SyncDevice); }\n    \
                  let _ = \"OpRecord {\";\n}\n\
                  #[cfg(test)]\nmod tests { fn g(l: &mut OpLog, o: OpRecord) { l.push(TraceAction::Op(o)); } }\n";
        assert!(lint_file("crates/gpusim/src/oplog.rs", ok).is_empty());
    }

    #[test]
    fn threads_flagged_in_library_sources_outside_the_team_only() {
        let src = "fn f() {\n    std::thread::scope(|s| { s.spawn(|| {}); });\n    \
                   let h = thread::spawn(g);\n    \
                   let n = std::thread::available_parallelism();\n}\n";
        for hit in [
            "crates/core/src/ops.rs",
            "crates/blas/src/level3/gemm.rs",
            "src/lib.rs",
        ] {
            let lints = lint_file(hit, src);
            assert!(lints.iter().all(|l| l.rule == "one-team"), "{hit}");
            assert_eq!(
                lints.iter().map(|l| l.line).collect::<Vec<_>>(),
                [2, 3, 4],
                "{hit}"
            );
        }
        // The team's own file, tests, benches and bins are out of scope.
        for exempt in [
            TEAM_FILE,
            "crates/blas/tests/alloc_budget.rs",
            "crates/bench/benches/kernels.rs",
            "crates/bench/src/bin/bench.rs",
            "tests/shard.rs",
        ] {
            assert!(lint_file(exempt, src).is_empty(), "{exempt}");
        }
        // A scope's own `spawn`, the current thread, prose, strings and test
        // modules pass.
        let ok = "// std::thread::scope is par.rs's\n\
                  fn f(s: &Scope) { s.spawn(g); std::thread::current(); \"thread::spawn\"; }\n\
                  #[cfg(test)]\nmod tests { fn g() { std::thread::scope(|_| {}); } }\n";
        assert!(lint_file("crates/core/src/plan/exec.rs", ok).is_empty());
    }

    fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(f, c)| (f.to_string(), c.to_string()))
            .collect()
    }

    #[test]
    fn pub_items_no_caller_names_are_flagged() {
        let lib = "pub fn used() {}\npub fn orphan() {}\npub struct Lonely;\n\
                   pub const fn cfn() -> u8 { 0 }\npub(crate) fn private() {}\n\
                   fn local() { used(); }\n";
        let lints = dead_pub(&sources(&[("crates/x/src/a.rs", lib)]));
        let got: Vec<_> = lints.iter().map(|l| (l.rule, l.line)).collect();
        assert_eq!(got, [("dead-pub", 2), ("dead-pub", 3), ("dead-pub", 4)]);
        // Tests, test modules and re-exports are not callers.
        let tests_only = sources(&[
            (
                "crates/x/src/a.rs",
                "pub fn orphan() {}\npub use self::orphan as o;\n\
                 #[cfg(test)]\nmod tests { fn t() { super::orphan(); } }\n",
            ),
            ("tests/t.rs", "fn t() { orphan(); }\n"),
            ("crates/x/tests/t.rs", "fn t() { orphan(); }\n"),
        ]);
        assert_eq!(dead_pub(&tests_only).len(), 1);
        // A waiver must say why.
        let bare = "// lint:allow(dead-pub)\npub fn orphan() {}\n";
        assert_eq!(dead_pub(&sources(&[("crates/x/src/a.rs", bare)])).len(), 1);
    }

    #[test]
    fn named_or_waived_pub_items_pass() {
        let callers = [
            "crates/y/src/b.rs",
            "crates/x/src/a.rs",
            "crates/x/src/bin/main.rs",
            "crates/x/benches/k.rs",
            "src/lib.rs",
            "examples/e.rs",
            "benchmark/src/w.rs",
        ];
        for caller in callers {
            let (decl, call) = ("pub fn orphan() {}\n", "fn f() { orphan(); }\n");
            let files = if caller == "crates/x/src/a.rs" {
                sources(&[(caller, &format!("{decl}{call}"))])
            } else {
                sources(&[("crates/x/src/a.rs", decl), (caller, call)])
            };
            assert!(dead_pub(&files).is_empty(), "{caller}");
        }
        // A `#[cfg(test)]` item mid-file hides only itself.
        let mid = "pub fn orphan() {}\n#[cfg(test)]\nfn t() { orphan(); }\nfn g() { orphan(); }\n";
        assert!(dead_pub(&sources(&[("crates/x/src/a.rs", mid)])).is_empty());
        // Binaries declare no library surface; a reasoned waiver holds.
        assert!(dead_pub(&sources(&[(
            "crates/x/src/bin/m.rs",
            "pub fn orphan() {}\n"
        )]))
        .is_empty());
        let waived =
            "/// Doc.\n// lint:allow(dead-pub) reference oracle the tests compare against\n\
                      pub fn orphan() {}\n";
        assert!(dead_pub(&sources(&[("crates/x/src/a.rs", waived)])).is_empty());
    }

    /// The workspace as it stands, plus one uncalled `pub fn` in each
    /// library crate: every one of them is a new finding.
    #[test]
    fn a_new_uncalled_pub_fn_fails_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = workspace_sources(&root);
        let before = dead_pub(&files).len();
        let crates: Vec<String> = fs::read_dir(root.join("crates"))
            .expect("crates/ lists")
            .flatten()
            .filter(|e| e.path().join("src/lib.rs").is_file())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(crates.len() >= 8, "{crates:?}");
        for c in &crates {
            files.push((
                format!("crates/{c}/src/probe.rs"),
                format!("pub fn probe_{c}() {{}}\n"),
            ));
        }
        let after = dead_pub(&files);
        assert_eq!(after.len(), before + crates.len());
        for c in &crates {
            let probe = format!("crates/{c}/src/probe.rs");
            assert!(after.iter().any(|l| l.file == probe), "{c}");
        }
    }

    #[test]
    fn dynamic_names_are_skipped() {
        let src = "fn f(m: &mut M, name: &str) { m.inc(name); }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(m: &mut M) { m.inc(\"nope\"); unsafe { h() }; }\n}\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_break_the_scanner() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let e = '\\n'; x }\n";
        assert!(lint_file("crates/x/src/a.rs", src).is_empty());
    }
}
