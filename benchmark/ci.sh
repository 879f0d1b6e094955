#!/usr/bin/env bash
# Smoke gate for the benchmark package: a --smoke (2 s) run of every
# workload, BENCHMARK.json equal to the code's tables, and the package's
# own tests. Under 60 s on a warm build. Not wired into
# .github/workflows/ci.yml by this PR (that file is outside its paths); a
# later PR adds the one line that calls this script.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
bench() { cargo run --quiet --release --offline --manifest-path "$manifest" -- "$@"; }

for workload in det-block-mcv tcp-batch-mcv live-fs-ac det-shard-batch-nac; do
    result=$(bench --workload "$workload" --seed 1 --smoke --trace 0 | tail -n 1)
    echo "$workload: $result"
    case "$result" in
        '{"correct": true, '*'"failed": 0, '*) ;;
        *) echo "ci.sh: $workload did not report correct with 0 failed" >&2; exit 1 ;;
    esac
done

bench manifest | diff -u BENCHMARK.json - || {
    echo "ci.sh: BENCHMARK.json differs from the tables; run 'manifest > BENCHMARK.json'" >&2
    exit 1
}

# The tests include a traced --smoke run of every workload.
cargo test --quiet --release --offline --manifest-path "$manifest"
echo "ci.sh: ok"
