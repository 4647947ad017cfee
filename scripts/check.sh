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

echo "==> chaos integration test (HS1 attack under FaultPlan::chaos)"
cargo test -q --test chaos_attack

echo "==> chaos sweep (HS1 at 0-4x FaultPlan::chaos: every factor completes with factor 0's findings)"
cargo run --release --example chaos_sweep

echo "==> crawl bench, smoke mode (parallel determinism + scaling)"
cargo run --release --example crawl_bench -- --smoke

echo "==> overload + transport-chaos soak, smoke mode (2 seeds, tiny attack)"
SOAK_SEEDS=2 SOAK_SCENARIO=tiny cargo run --release --example soak

echo "==> arms-race smoke (tiny world, all detector tiers, frontier gates)"
ARMS_SCENARIO=tiny cargo run --release --example arms_race

echo "==> trace forensics, smoke mode (digest stability + closed audit + overhead gate)"
cargo run --release --example trace_forensics -- --smoke

echo "==> metro smoke (tiny city: build + concurrent attack, 1 == 8 workers)"
cargo run --release --example metro -- --smoke

echo "==> live-world smoke (tiny world: zero-rate == frozen, closed audits, 1 == 8 workers)"
LIVE_SCENARIO=tiny cargo run --release --example live_world

echo "==> crash-only attacker smoke (kill-point sweep, bit-identical process resume)"
cargo run --release --example crash -- --smoke

echo "==> attackbench self-test (pinned tiny outcomes, live state digest, world_at replay)"
cargo run --release --offline --quiet --manifest-path attackbench/Cargo.toml -- --self-test

echo "All checks passed."
