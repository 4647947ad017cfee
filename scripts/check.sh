#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# Everything here is offline-safe — dependencies resolve to the vendored
# path stubs (see vendor/stubs/README.md), so no registry access happens.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> HS1 sweeps with their gates (arms race, freshness, chaos, worker scaling, trace forensics) + tiny metro"
cargo run --release -p hsp-experiments -- arms-race freshness chaos-sweep worker-scaling trace-forensics metro

# The smoke runs below print their rows; the BENCH_*.json history
# files must come out byte-identical.
bench_sums="$(sha256sum BENCH_*.json)"

echo "==> overload + transport-chaos soak, smoke mode (2 seeds, tiny attack)"
SOAK_SEEDS=2 SOAK_SCENARIO=tiny cargo run --release --example soak

echo "==> crash-only attacker smoke (kill-point sweep, bit-identical process resume)"
cargo run --release --example crash -- --smoke

echo "==> smoke runs left BENCH_*.json unchanged"
echo "$bench_sums" | sha256sum --check --quiet

echo "==> attackbench self-test (pinned tiny outcomes, live state digest, world_at replay)"
cargo run --release --offline --quiet --manifest-path attackbench/Cargo.toml -- --self-test

echo "All checks passed."
