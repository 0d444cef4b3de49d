#!/usr/bin/env bash
# Local CI: everything the repo expects to stay green, in the order that
# fails fastest. Offline by design — all external crates are in-repo shims
# (see DESIGN.md §3), so no network is needed.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==== %s ====\n' "$*"; }

step "format check"
cargo fmt --all --check

step "clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "build (release)"
cargo build --release --workspace

# Tier-1 is the root package: every suite under tests/, among them
#   coverage_static      static vs dynamic cross-validation (coverage verdicts vs injection)
#   fault_matrix, precision_properties
#                        reduced-precision suite (f32 fault matrix + adaptive-tolerance closure)
#   config_space         configuration-space closure (clean plans or typed refusal)
#   fused_abft           fused-epilogue ABFT suite (plan rewrite, conformance, properties)
#   golden_equivalence   default unfused path byte-identical
#   balance              feedback balancer suite (migration, adaptive K, rewrite pins, contract re-proof)
#   shard                multi-device sharding suite (bit-identity, device loss, conformance)
step "tests: tier-1 (root package)"
cargo test -q

step "tests: the member crates"
cargo test --workspace --exclude hchol -q

# The host-thread team sizes itself from available_parallelism(), which is 1
# under `taskset -c 0`: the pins must come out the same from the inline path
# as from the threaded one the steps above ran on a multi-core host.
step "single-core leg (taskset -c 0: team of one): goldens, recording and virtual-clock pins, team split tests"
taskset -c 0 cargo test --release -q --test golden_equivalence --test recording_pins --test virtual_clock_pins
taskset -c 0 cargo test --release -q -p hchol-blas --lib par::

step "allocation budget (tile-shape level-3 calls allocate once, then never; the 2 x b encode / product-update / solve-update shapes: stack or arena, never a per-call Vec)"
cargo test --release -q -p hchol-blas --test alloc_budget

# The bit-identity proofs of the hot paths, once more at depth: the release
# build raises the scheduler proptests to 4096 streams each and the edge
# derivation sweep and the analyzers' new-vs-oracle sweeps to nt = 20, and the 2-row
# checksum kernels' grids from 33 to 300 (past the column group, the planar
# block and TRSM_BASE), and the team split tests to b = 256 (two MC
# stripes). plan:: runs the edge derivation's oracle (plan/oracle.rs), also
# after every kind of plan edit, and holds the planner's rewrite passes to
# their bound on nodes visited per node.
# batch_launch holds a batch launch to the same kernels launched one by one.
step "differential suites, deep (one-walk scheduler and its batch-shaped streams, batch launch, dense edge derivation and edges never stale after an edit, rewrite-pass visit bound, indexed plancheck/coverage, dense schedule sweep, 2-row checksum kernels, team split — each vs its oracle or bound)"
cargo test --release -q -p hchol-gpusim --lib schedule::tests
cargo test --release -q -p hchol-gpusim --test batch_launch
cargo test --release -q -p hchol-core --lib plan::
cargo test --release -q -p hchol-analyze --lib
cargo test --release -q -p hchol-blas --lib level3::naive
cargo test --release -q -p hchol-blas --lib level3::trsm
cargo test --release -q -p hchol-core --lib chkops
cargo test --release -q -p hchol-blas --lib par::

step "rustdoc (deny warnings + broken intra-doc links, no deps)"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --no-deps --workspace

step "doctests"
cargo test --doc --workspace -q

step "source lint (SAFETY comments, obs names, wall-clock, tolerance literals, env reads, twin-op, one-engine, one-launcher, plan-edit (only the passes rewrite a plan, none removes from one), float-order, tile-scan, one-record, one-team, order-scan, dead-pub, label-format, one-footprint)"
cargo run --release -q -p hchol-analyze --bin lint

step "schedule analyzer (races + ABFT protocol conformance, all schemes, nt = 4 8 16 40)"
cargo run --release -q -p hchol-analyze --bin analyze > /dev/null

step "plan checker (static ABFT contract over plan edges, all schemes, nt = 4 8 16 40 80)"
cargo run --release -q -p hchol-analyze --bin plan_check > /dev/null

step "static fault-coverage sweep (every site proven) -> COVERAGE_static.json"
cargo run --release -q -p hchol-analyze --bin coverage_check > /dev/null

step "liveness sweep (deadlock-freedom + receive-completeness, all schemes, nt = 6 8 40)"
cargo run --release -q -p hchol-analyze --bin liveness_check > /dev/null

# Mutation controls: each deliberately broken plan MUST be caught (the
# mutated run exits nonzero). A passing mutated run means the checker
# went blind, so CI fails on success here.
step "coverage mutation control: stripped verify batch must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=strip-verify > /dev/null 2>&1; then
    echo "mutation control strip-verify NOT caught" >&2; exit 1
fi

step "coverage mutation control: severed ring-recv edge must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=sever-recv > /dev/null 2>&1; then
    echo "mutation control sever-recv NOT caught" >&2; exit 1
fi

step "coverage mutation control: dropped parity refresh must be caught"
if cargo run --release -q -p hchol-analyze --bin coverage_check -- --mutate=drop-parity > /dev/null 2>&1; then
    echo "mutation control drop-parity NOT caught" >&2; exit 1
fi

step "experiment output pins (every text experiment's quick stdout, FNV-1a digests; release only)"
cargo test --release -q -p hchol-bench --test experiment_pins

step "fault-ledger pins (every single-fault TimingOnly report on the n = 96 grid, FNV-1a digests; release only)"
cargo test --release -q --test ledger_pins

# Quick runs write under target/ and never touch a committed artifact.
step "kernel bench sweep (quick) -> target/BENCH_kernels.json"
cargo bench -p hchol-bench --bench kernels -- --quick

step "BENCH_* sweeps, quick, write-time claims checked -> target/BENCH_{fused,balance,shard,precision}.json"
cargo run --release -q -p hchol-bench -- fused_overhead balance_sweep shard_sweep precision_sweep --quick

# A full run rewrites every committed figure, table and root BENCH_*.json;
# the experiments are deterministic, so the tree must come out unchanged.
step "paper figures reproduce: full bench all leaves bench_results/ and BENCH_*.json unchanged"
cargo run --release -q -p hchol-bench -- all > /dev/null
drift=$(git status --porcelain -- bench_results 'BENCH_*.json')
if [ -n "$drift" ]; then
    echo "a full bench all changed committed artifacts:" >&2
    echo "$drift" >&2
    exit 1
fi

step "artifacts (BENCH_*, COVERAGE_*) conform to the report envelope schema"
cargo run --release -q -p hchol-analyze --bin check_artifacts

step "standalone benchmark package (fmt, clippy, its own suite at toy size)"
bash benchmark/check.sh

step "done"
