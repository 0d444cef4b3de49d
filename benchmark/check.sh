#!/usr/bin/env bash
# Gate for the standalone benchmark package. The repository's ci.sh and
# workspace globs do not reach benchmark/ (it is not a workspace member),
# so this is the one place its formatting, lints and tests are checked.
# Run from anywhere; cargo runs inside the repository so the root
# .cargo/config.toml (target-cpu=native, offline) applies.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test --release
