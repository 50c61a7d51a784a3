#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. Run from the repo root.
# The workspace has no third-party dependencies, so everything here works
# without network access.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Fail unless log "$2" is free of pattern "$1". (`! grep` cannot be the
# check: `set -e` ignores a command whose status `!` inverts.)
refute() {
    if grep -q "$1" "$2"; then
        echo "'$1' in $2" >&2
        exit 1
    fi
}

echo "== build (release, default features) =="
cargo build --release --workspace --offline

echo "== ablation sweeps (virtual time) =="
# Eleven points: five instance counts, three windows, three lock bounce
# penalties. The bounce sweep must reach the simulated instance locks, so
# its three points must carry three distinct rates.
ablation=$(target/release/ablation)
echo "$ablation"
[ "$(printf '%s\n' "$ablation" | wc -l)" -eq 11 ]
[ "$(printf '%s\n' "$ablation" | awk '/bounce=/ {print $(NF-2)}' | sort -u | wc -l)" -eq 3 ]
# The sweeps are deterministic under virtual time, and the bounce points
# turn on the scheduler's seeded lock-grant draws, so the output must be
# byte-identical to the committed baseline.
cmp results/ablation.txt <(printf '%s\n' "$ablation")

echo "== build (trace hooks compiled out) =="
cargo build --offline -p fairmpi-bench --no-default-features

echo "== test =="
cargo test -q --workspace --offline

echo "== test (release build: batched matching, retirement, request slots, rx ring, SPC shards) =="
# The batched drain-to-match path, the per-run retirement of one-sided
# completions, the request table's tag and shift arithmetic, the rx
# ring's spill hand-off and the SPC shards' unlocked load-and-store
# updates, built as the benchmark runs them: with optimisations and
# without overflow checks or debug assertions. Batch
# sizes do not depend on the build: in debug and release alike about 82 %
# of the two-sided suite's packets reach the matcher in batches of more
# than one.
cargo test -q --release --offline --test two_sided
cargo test -q --release --offline --test rma
cargo test -q --release --offline -p fairmpi-matching batch_equivalence
cargo test -q --release --offline -p fairmpi --lib request
cargo test -q --release --offline -p fairmpi-fabric
cargo test -q --release --offline -p fairmpi-spc

echo "== test (trace crate, enabled) =="
cargo test -q --offline -p fairmpi-trace --features enabled

echo "== sync backend identity (native vs traced) =="
# The traced fairmpi-sync backend must be observationally equivalent to
# the zero-cost native one: the same flagship stress asserts the same
# exact SPC values under both builds.
cargo test -q --offline --test sync_backends
cargo test -q --offline --test sync_backends --features trace

echo "== model check (bounded-preemption interleaving exploration) =="
# Exhaustive DFS over the lock-free core's protocols (offload ring,
# Algorithm 2 fallback sweep, dedup window, request slab and its free
# stack, rx ring and its spill hand-off to the overflow list) ...
cargo test -q --offline -p fairmpi-check 2>&1 | tee /tmp/fairmpi_check.log
refute "FAILED" /tmp/fairmpi_check.log
# ... and the checker must have teeth: all seven seeded mutant bugs caught
# with reproducible counterexample schedules.
cargo test --offline -p fairmpi-check --test mutants all_seeded_mutants_caught -- --nocapture \
    > /tmp/fairmpi_mutants.log 2>&1
grep -q "all 7 seeded mutants caught" /tmp/fairmpi_mutants.log

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings
# The workspace-wide run unifies fairmpi-bench's default `trace` feature,
# which turns `fairmpi-sync/traced` on everywhere; lint the crates below
# it once more on the native backend they build with on their own.
cargo clippy -p fairmpi-sync -p fairmpi-spc -p fairmpi-vsim -p fairmpi-progress \
    -p fairmpi-matching -p fairmpi-chaos -p fairmpi-cri --all-targets --offline -- -D warnings

echo "== doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== pvar smoke test =="
# Tiny grid: the flagship observed run must produce a well-formed,
# non-empty MPI_T pvar dump whose session reads match the SPC snapshot
# (the binary asserts that) and whose scrape time-series is ordered,
# complete and monotonic for counters (--check-pvars checks that), and
# self-comparing the bench report must show zero regressions.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
bin=$PWD/target/release
(cd "$smoke_dir" && FAIRMPI_ITERS=2 "$bin/table2" --pvars pvars.json > pvars.log)
grep -q "MPI_T session reads equal the SpcSnapshot values for this run ... PASS" "$smoke_dir/pvars.log"
"$bin/fairmpi-report" --check-pvars "$smoke_dir/pvars.json"
(cd "$smoke_dir" && FAIRMPI_ITERS=2 "$bin/table2" > /dev/null)
"$bin/fairmpi-report" "$smoke_dir/results/BENCH_table2.json" "$smoke_dir/results/BENCH_table2.json"

echo "== offload smoke + regression gate =="
# Tiny grid: the offload flagship read through MPI_T must dump well-formed
# pvars with the session reads matching the SPC snapshot (the four
# offload_* probes included), and the offload path must actually have run:
# commands went through the queues and the queue depth rose above zero.
(cd "$smoke_dir" && FAIRMPI_ITERS=2 FAIRMPI_MAX_PAIRS=6 \
    "$bin/fig_offload" --pvars offload_pvars.json > offload_pvars.log)
grep -q "MPI_T session reads equal the SpcSnapshot values for this run ... PASS" \
    "$smoke_dir/offload_pvars.log"
"$bin/fairmpi-report" --check-pvars "$smoke_dir/offload_pvars.json"
grep -Eq '^fairmpi_offload_commands [1-9]' "$smoke_dir/offload_pvars.prom"
grep -Eq '^fairmpi_offload_queue_depth_hwm [1-9]' "$smoke_dir/offload_pvars.prom"
# The full grid is deterministic under virtual time, so a fresh run must
# match the committed baseline within the noise threshold and every
# printed qualitative check must hold.
(cd "$smoke_dir" && "$bin/fig_offload" > offload.log)
refute "FAIL" "$smoke_dir/offload.log"
"$bin/fairmpi-report" results/BENCH_fig_offload.json \
    "$smoke_dir/results/BENCH_fig_offload.json" --noise 0.05

echo "== degradation: zero-fault identity + regression gate =="
# With no fault plan armed the reliability layer must be invisible: the
# offload grid (which never arms chaos) and the degradation grid (whose
# drop=0 column exercises the chaos-off path) are deterministic under
# virtual time, so fresh runs must be BIT-IDENTICAL to the committed
# baselines — any drift means the chaos hooks leaked into clean runs.
cmp results/fig_offload.csv "$smoke_dir/results/fig_offload.csv"
(cd "$smoke_dir" && "$bin/fig_degradation" > degradation.log)
refute "FAIL" "$smoke_dir/degradation.log"
cmp results/fig_degradation.csv "$smoke_dir/results/fig_degradation.csv"
"$bin/fairmpi-report" results/BENCH_fig_degradation.json \
    "$smoke_dir/results/BENCH_fig_degradation.json" --noise 0.05

echo "== fig6 + fig7: RMA-MT grid identity =="
# The Haswell and KNL RMA-MT grids (five message sizes each, a few
# seconds) are the cheap end-to-end gate on the RMA-MT actors:
# deterministic under virtual time, so every panel must be BIT-IDENTICAL
# to the committed baseline.
for fig in fig6 fig7; do
    (cd "$smoke_dir" && "$bin/$fig" > "$fig.log")
    refute "FAIL" "$smoke_dir/$fig.log"
    for csv in results/"$fig"_*B.csv; do
        cmp "$csv" "$smoke_dir/$csv"
    done
done

echo "== chaos soak (seeded fault injection) =="
# Three seeds of the degradation flagship on a trimmed grid under a 10%
# wire drop. Each run must terminate with every message delivered exactly
# once (sent == received through the MPI_T dump) and must show the
# reliability layer actually working: faults observed, repaired by
# retransmission.
for seed in 3 5 7; do
    (cd "$smoke_dir" && FAIRMPI_ITERS=2 FAIRMPI_MAX_PAIRS=4 \
        "$bin/fig_degradation" --chaos-seed "$seed" --chaos-drop 100 \
        --pvars "chaos_$seed.json" > "chaos_$seed.log")
    grep -q "MPI_T session reads equal the SpcSnapshot values for this run ... PASS" \
        "$smoke_dir/chaos_$seed.log"
    "$bin/fairmpi-report" --check-pvars "$smoke_dir/chaos_$seed.json"
    sent=$(awk '$1 == "fairmpi_messages_sent" {print $2}' "$smoke_dir/chaos_$seed.prom")
    recv=$(awk '$1 == "fairmpi_messages_received" {print $2}' "$smoke_dir/chaos_$seed.prom")
    [ -n "$sent" ] && [ "$sent" -eq "$recv" ]
    grep -Eq '^fairmpi_chaos_drops [1-9]' "$smoke_dir/chaos_$seed.prom"
    grep -Eq '^fairmpi_retransmits [1-9]' "$smoke_dir/chaos_$seed.prom"
done

echo "== perfbench correctness smoke =="
# Two-second runs of every benchmark workload on the native runtime: each
# must report that every message and put it checked arrived intact. The
# 30-second runs BENCHMARK.json declares are the measurement itself.
for workload in eager cris rma; do
    CARGO_TARGET_DIR=$PWD/target/perfbench python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 \
        > "$smoke_dir/perfbench_$workload.log"
    tail -n 1 "$smoke_dir/perfbench_$workload.log" | grep -q '"correct": true'
done

echo "CI OK"
