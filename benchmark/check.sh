#!/usr/bin/env bash
# Lint and self-test the stand-alone benchmark package, offline:
# rustfmt, clippy with warnings denied, and its unit tests.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

cargo fmt --check
cargo clippy --offline --locked --all-targets -- -D warnings
cargo test --offline --locked -q
