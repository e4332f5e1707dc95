#!/bin/sh
# Full offline CI for the workspace: formatting, lints, build, tests.
#
# Everything here runs with zero registry access — the workspace has no
# external crate dependencies (see DESIGN.md §9), so `--offline` is a
# guarantee being enforced, not a limitation being worked around.
#
# `./ci.sh --mutants` runs only the oracle's own check, which the default
# run leaves out: each tests/mutants/*.patch puts back one bug that a
# past fix removed, and its `Caught-by:` header lines name the tests that
# must fail with it applied. The mode copies the tree to a scratch
# directory, checks that the named tests pass there, then applies each
# patch in turn and runs them in release (so that the differential
# oracle, not a debug assertion, is what catches the mutant). It fails
# when a patch no longer applies, a mutant does not build, or a mutant
# survives a test that names it.
set -eu

if [ "${1:-}" = "--mutants" ]; then
    echo "== mutants: every tests/mutants/*.patch must be caught =="
    MUT=$(mktemp -d)
    trap 'rm -rf "$MUT"' EXIT
    mkdir "$MUT/tree"
    git ls-files -z -co --exclude-standard \
        | tar --null --ignore-failed-read -T - -cf - 2>/dev/null \
        | tar -xf - -C "$MUT/tree"
    export CARGO_TARGET_DIR="$MUT/target"
    in_tree() { (cd "$MUT/tree" && "$@") > "$MUT/log" 2>&1; }
    sed -n 's/^Caught-by: //p' tests/mutants/*.patch | sort -u > "$MUT/tests"
    while read -r args; do
        # shellcheck disable=SC2086 # the header's words are cargo arguments
        in_tree cargo test -q --release --offline $args \
            || { cat "$MUT/log"; echo "mutants: \`$args\` fails without a mutant"; exit 1; }
    done < "$MUT/tests"
    fail=0
    for p in tests/mutants/*.patch; do
        name=$(basename "$p" .patch)
        if ! git -C "$MUT/tree" apply "$PWD/$p"; then
            echo "  $name: no longer applies"
            fail=1
            continue
        fi
        sed -n 's/^Caught-by: //p' "$p" > "$MUT/tests"
        while read -r args; do
            # shellcheck disable=SC2086 # the header's words are cargo arguments
            if ! in_tree cargo test -q --release --offline --no-run $args; then
                echo "  $name: does not build"
                fail=1
            elif in_tree cargo test -q --release --offline $args; then
                echo "  $name: SURVIVES cargo test --release $args"
                fail=1
            else
                echo "  $name: caught by $args"
            fi
        done < "$MUT/tests"
        git -C "$MUT/tree" apply -R "$PWD/$p"
    done
    [ "$fail" -eq 0 ] || { echo "mutants: see above"; exit 1; }
    echo "mutants: all caught"
    exit 0
fi

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

# The CoW state layer keeps Arc-wrapped components inside hashed/compared
# containers, which is exactly the shape the two lints below exist to
# flag. They stay *enabled*: an `#[allow]` for either would silence the
# check that keeps interior mutability out of visited-set keys, so any
# suppression must be removed (fix the type) rather than justified.
echo "== lint-exception audit =="
if grep -rn "mutable_key_type\|arc_with_non_send_sync" crates src --include='*.rs'; then
    echo "audit: found a suppression of clippy::mutable_key_type or"
    echo "clippy::arc_with_non_send_sync; fix the offending type instead"
    exit 1
fi
echo "  no Arc/map-key lint suppressions"

# A doc comment that links to a renamed or deleted item still compiles;
# rustdoc is what resolves the link, so a broken one fails here.
echo "== doc links =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
    cargo doc --workspace --no-deps --offline

echo "== build (release) =="
cargo build --release --offline

echo "== test =="
cargo test -q --offline --workspace

echo "== ledger: the benchmark package builds against this tree =="
# The end-to-end benchmark (BENCHMARK.json) is a package of its own,
# outside the workspace, with path dependencies on the product crates —
# and a change that claims a gain may not edit it. Its unit tests include
# "stepper counts equal `explore` counts", so a product change that
# breaks the benchmark's build or its count agreement fails here instead
# of failing every benchmark run afterwards.
cargo test -q --release --offline \
    --manifest-path crates/bench/src/bin/ledger/Cargo.toml

# Search smokes. They guard the determinism contract of
# docs/EXPLORER.md: the report must be byte-identical from run to run
# and, on the frontier engine, for every --jobs value; and throughput
# must not fall off a cliff between runs.
BIN=target/release/reclose
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

echo "== determinism smoke: stateful --jobs {1,2,8} over the corpus =="
for p in corpus/*.mc; do
    "$BIN" explore "$p" --enumerate --stateful --all --jobs 1 \
        > "$SMOKE/jobs1.txt" || :
    for j in 2 8; do
        "$BIN" explore "$p" --enumerate --stateful --all --jobs "$j" \
            > "$SMOKE/jobsN.txt" || :
        if ! cmp -s "$SMOKE/jobs1.txt" "$SMOKE/jobsN.txt"; then
            echo "determinism regression: $p differs between --jobs 1 and --jobs $j"
            diff "$SMOKE/jobs1.txt" "$SMOKE/jobsN.txt" || :
            exit 1
        fi
    done
    echo "  $p: jobs {1,2,8} byte-identical"
done

echo "== bench smoke: 10 iterations on switchgen --lines 2 and --lines 3 =="
"$BIN" switchgen --lines 2 > "$SMOKE/switch.mc"
"$BIN" switchgen --lines 3 --events 1 > "$SMOKE/switch3.mc"
sl_min=0 sl_max=0 sf_min=0 sf_max=0
i=1
while [ "$i" -le 10 ]; do
    s=$(date +%s%N)
    # 2M transitions keep the stateless run near 0.35 s: the walk answers
    # from its transition memo at ≈ 0.18 µs a transition, and a run of
    # 60 ms would time process start-up rather than throughput.
    "$BIN" explore "$SMOKE/switch.mc" --close --all \
        --max-transitions 2000000 > "$SMOKE/sl.txt" || :
    e=$(date +%s%N)
    sl=$(( (e - s) / 1000000 ))
    s=$(date +%s%N)
    # The whole `--lines 2` frontier space takes about 0.1 s, too short to
    # time; 600k transitions of `--lines 3` keep the stateful run near
    # the stateless one's 0.3 s.
    "$BIN" explore "$SMOKE/switch3.mc" --close --stateful --all --jobs 2 \
        --depth 400 --max-transitions 600000 > "$SMOKE/sf.txt" || :
    e=$(date +%s%N)
    sf=$(( (e - s) / 1000000 ))
    if [ "$i" -eq 1 ]; then
        cp "$SMOKE/sl.txt" "$SMOKE/sl_ref.txt"
        cp "$SMOKE/sf.txt" "$SMOKE/sf_ref.txt"
        sl_min=$sl sl_max=$sl sf_min=$sf sf_max=$sf
    else
        cmp -s "$SMOKE/sl_ref.txt" "$SMOKE/sl.txt" \
            || { echo "bench smoke: stateless report drifted at iteration $i"; exit 1; }
        cmp -s "$SMOKE/sf_ref.txt" "$SMOKE/sf.txt" \
            || { echo "bench smoke: stateful report drifted at iteration $i"; exit 1; }
        [ "$sl" -lt "$sl_min" ] && sl_min=$sl
        [ "$sl" -gt "$sl_max" ] && sl_max=$sl
        [ "$sf" -lt "$sf_min" ] && sf_min=$sf
        [ "$sf" -gt "$sf_max" ] && sf_max=$sf
    fi
    echo "  iter $i: stateless ${sl}ms, stateful ${sf}ms"
    i=$((i + 1))
done
echo "  stateless wall ${sl_min}..${sl_max}ms, stateful wall ${sf_min}..${sf_max}ms"
if [ "$sl_max" -gt $((sl_min * 2)) ]; then
    echo "bench smoke: stateless throughput cliff (max ${sl_max}ms > 2x min ${sl_min}ms)"
    exit 1
fi
if [ "$sf_max" -gt $((sf_min * 2)) ]; then
    echo "bench smoke: stateful throughput cliff (max ${sf_max}ms > 2x min ${sf_min}ms)"
    exit 1
fi

echo "== fuzz smoke: 300-seed differential sweep =="
# The adversarial corpus engine: generate open programs over a fixed
# seed range, close and refine each one, and run it through the fuzz
# slice of the differential oracle (switchsim::oracle, docs/FUZZING.md):
# every engine, the frontier at POR on/off x jobs x store mode, against
# the full-interleaving baseline. Deterministic
# (fixed seeds, no time-derived input); exits nonzero on any
# divergence, panic, or generator-produced compile failure. The
# wall-clock budget only bounds a pathological machine — the sweep
# normally finishes in seconds. The exploration count is exact — 12
# legs for each of the 300 programs, one more for each of the 2 that
# refinement changes — so a leg dropped from the table fails here.
"$BIN" fuzz --seeds 300 --budget 120 > "$SMOKE/fuzz.txt" 2>&1 \
    || { echo "fuzz smoke: divergence or panic"; cat "$SMOKE/fuzz.txt"; exit 1; }
grep -q "no divergences" "$SMOKE/fuzz.txt" \
    || { echo "fuzz smoke: summary does not report a clean run"; cat "$SMOKE/fuzz.txt"; exit 1; }
grep -q "^explore runs: 3602," "$SMOKE/fuzz.txt" \
    || { echo "fuzz smoke: expected 3602 explorations"; cat "$SMOKE/fuzz.txt"; exit 1; }
sed 's/^/  /' "$SMOKE/fuzz.txt"

echo "== POR smoke: differential verdict oracle on two corpus programs =="
# POR must not change *verdicts*: strip the schedule suffix (" after
# [...]" — representatives legitimately differ under reduction) and the
# counter header, then compare the sorted distinct violation lines of
# --por and --no-por stateful runs. Also require that reduction actually
# bites on workers.mc (fewer states than the exhaustive run).
for p in corpus/workers.mc corpus/cyclic/ring.mc; do
    for mode in "--por" "--no-por"; do
        "$BIN" explore "$p" --stateful --all $mode \
            > "$SMOKE/por_raw.txt" 2>/dev/null || :
        sed -n 's/ after \[.*\]//; s/^  //p' "$SMOKE/por_raw.txt" \
            | sort -u > "$SMOKE/por_$mode.txt"
    done
    if ! cmp -s "$SMOKE/por_--por.txt" "$SMOKE/por_--no-por.txt"; then
        echo "POR smoke: $p verdicts differ between --por and --no-por"
        diff "$SMOKE/por_--por.txt" "$SMOKE/por_--no-por.txt" || :
        exit 1
    fi
    echo "  $p: verdicts identical with and without POR"
done
echo "== refine-cex smoke: verdict equality + state reduction =="
# Counterexample-guided toss refinement prunes outcomes no concrete
# environment can realise. It may shrink the closed state space but
# must never change the verdict set: compare the sorted distinct
# violation lines of refined and unrefined closed explorations (the
# schedule suffix legitimately differs, as under POR).
for p in corpus/*.mc corpus/regressions/*.mc; do
    for mode in "" "--refine-cex"; do
        "$BIN" explore "$p" --close $mode --stateful --all \
            > "$SMOKE/cex_raw.txt" 2>/dev/null || :
        sed -n 's/ after \[.*\]//; s/^  //p' "$SMOKE/cex_raw.txt" \
            | sort -u > "$SMOKE/cex_$mode.txt"
    done
    if ! cmp -s "$SMOKE/cex_.txt" "$SMOKE/cex_--refine-cex.txt"; then
        echo "refine-cex smoke: $p verdicts differ with and without refinement"
        diff "$SMOKE/cex_.txt" "$SMOKE/cex_--refine-cex.txt" || :
        exit 1
    fi
done
echo "  corpus + regressions: verdicts identical with and without --refine-cex"
# The precision-gap programs must actually shrink.
for p in corpus/gate.mc corpus/clamp.mc corpus/pair.mc; do
    ref_states=$("$BIN" explore "$p" --close --refine-cex --stateful --all --no-por \
        | sed -n 's/^states: \([0-9]*\),.*/\1/p')
    raw_states=$("$BIN" explore "$p" --close --stateful --all --no-por \
        | sed -n 's/^states: \([0-9]*\),.*/\1/p')
    [ "$ref_states" -lt "$raw_states" ] \
        || { echo "refine-cex smoke: no reduction on $p ($ref_states vs $raw_states)"; exit 1; }
    echo "  $p: $ref_states states refined vs $raw_states unrefined"
done

por_states=$("$BIN" explore corpus/workers.mc --stateful --all \
    | sed -n 's/^states: \([0-9]*\),.*/\1/p')
full_states=$("$BIN" explore corpus/workers.mc --stateful --all --no-por \
    | sed -n 's/^states: \([0-9]*\),.*/\1/p')
[ "$por_states" -lt "$full_states" ] \
    || { echo "POR smoke: no reduction on workers.mc ($por_states vs $full_states)"; exit 1; }
echo "  workers.mc: $por_states states reduced vs $full_states exhaustive"

echo "== out-of-core smoke: spill determinism on workers.mc =="
# A finite --mem-limit forces sealed states into the tier-1 log and the
# frontier onto the spool mid-run; the report must stay byte-identical
# to the unbounded run for every jobs x budget combination
# (docs/EXPLORER.md §6).
"$BIN" explore corpus/workers.mc --stateful --all --jobs 1 > "$SMOKE/ooc_ref.txt"
for j in 1 2 8; do
    for m in 2k 64; do
        "$BIN" explore corpus/workers.mc --stateful --all --jobs "$j" \
            --mem-limit "$m" > "$SMOKE/ooc.txt"
        if ! cmp -s "$SMOKE/ooc_ref.txt" "$SMOKE/ooc.txt"; then
            echo "out-of-core smoke: report differs at --jobs $j --mem-limit $m"
            diff "$SMOKE/ooc_ref.txt" "$SMOKE/ooc.txt" || :
            exit 1
        fi
    done
done
"$BIN" explore corpus/workers.mc --stateful --all --jobs 2 --mem-limit 64 \
    --stats 2>/dev/null | grep -q "spilled state" \
    || { echo "out-of-core smoke: a 64-byte budget did not spill"; exit 1; }
echo "  workers.mc: jobs {1,2,8} x mem-limit {2k,64} byte-identical, spill engaged"

echo "== compression smoke: --no-compress byte-identity on workers.mc =="
# Collapse-style component interning is on by default; it changes only
# how states are *stored*, never what the report says. The escape
# hatch must produce byte-identical output, and --stats must show the
# interner actually engaged in the default mode.
"$BIN" explore corpus/workers.mc --stateful --all --jobs 2 --mem-limit 64 \
    --no-compress > "$SMOKE/nc.txt"
cmp -s "$SMOKE/ooc_ref.txt" "$SMOKE/nc.txt" \
    || { echo "compression smoke: --no-compress changed the report"; exit 1; }
"$BIN" explore corpus/workers.mc --stateful --all --jobs 2 --mem-limit 64 \
    --stats 2>/dev/null | grep -q "compression:" \
    || { echo "compression smoke: --stats shows no interner activity"; exit 1; }
# The DFS expands through the same transition memo; --no-compress is its
# interpreter oracle.
"$BIN" explore corpus/workers.mc --stateful --all > "$SMOKE/dfs.txt"
"$BIN" explore corpus/workers.mc --stateful --all --no-compress > "$SMOKE/dfs_nc.txt"
cmp -s "$SMOKE/dfs.txt" "$SMOKE/dfs_nc.txt" \
    || { echo "compression smoke: --no-compress changed the DFS report"; exit 1; }
"$BIN" explore corpus/workers.mc --stateful --all --stats 2>/dev/null \
    | grep -q "transition memo:" \
    || { echo "compression smoke: the DFS shows no transition memo"; exit 1; }
# So does the stateless walk, which also schedules from the memo's facts
# table; --no-compress builds every node and interprets every transition.
"$BIN" explore corpus/workers.mc --all > "$SMOKE/sl.txt"
"$BIN" explore corpus/workers.mc --all --no-compress > "$SMOKE/sl_nc.txt"
cmp -s "$SMOKE/sl.txt" "$SMOKE/sl_nc.txt" \
    || { echo "compression smoke: --no-compress changed the stateless report"; exit 1; }
"$BIN" explore corpus/workers.mc --all --stats 2>/dev/null \
    | grep -q "transition memo:" \
    || { echo "compression smoke: the stateless walk shows no transition memo"; exit 1; }
echo "  workers.mc: compression on/off byte-identical, interner engaged by default (frontier + DFS + stateless)"

echo "== counted work: states materialised by the three engines =="
# Every engine takes one ID-space step — schedule from the facts table,
# children from the transition memo — and builds a state only when a
# lookup misses. The count of states so built is exact for the DFS and
# the stateless walk, and for the frontier at one worker (which items
# miss depends on which worker claims them at more), so it is gated
# exactly: a change that starts building states again shows here as a
# number, long before it shows as time.
counted() {
    name=$1
    want=$2
    shift 2
    built=$("$BIN" explore "$@" --stats \
        | sed -n 's/^stats: transition memo: .*, \([0-9]*\) state(s) materialised$/\1/p')
    [ "$built" = "$want" ] \
        || { echo "counted work: $name built ${built:-no count of} states, expected $want"; exit 1; }
    echo "  $name: $want states materialised"
}
"$BIN" switchgen --lines 3 --events 1 > "$SMOKE/switch3.mc"
"$BIN" switchgen --lines 2 --events 2 > "$SMOKE/switch2x2.mc"
counted "switch3 --bfs" 1434 "$SMOKE/switch3.mc" --close --bfs --all --depth 400
counted "switch3 DFS" 1325 "$SMOKE/switch3.mc" --close --stateful --all --depth 400
counted "switch2x2 stateless" 1033 "$SMOKE/switch2x2.mc" --close --all --max-transitions 50000000

echo "== out-of-core smoke: kill/resume on workers.mc and closed histogram.mc =="
# Kill the run right after its second level-boundary checkpoint, then
# resume under a different worker count and an unbounded budget: the
# completed report must be byte-identical to the uninterrupted run.
# Closed histogram.mc reports 232 violations, most of them found after
# the resume, so their reproducing paths run through the path log
# (trace.bin) that the killed run wrote. A report with violations exits
# 1 by design; any other nonzero exit is a failure.
explore_to() {
    out=$1
    shift
    "$BIN" explore "$@" > "$out" 2> "$SMOKE/explore.err" || [ $? -eq 1 ] \
        || { cat "$SMOKE/explore.err"; return 1; }
}
for model in "workers.mc" "histogram.mc --close"; do
    # shellcheck disable=SC2086 # the model's words are its arguments
    set -- corpus/$model
    name=$(basename "$1")
    explore_to "$SMOKE/kr_ref.txt" "$@" --stateful --all --jobs 1
    CKPT="$SMOKE/ckpt"
    rm -rf "$CKPT"
    explore_to "$SMOKE/ooc_killed.txt" "$@" --stateful --all --jobs 2 --mem-limit 300 \
        --checkpoint-dir "$CKPT" --checkpoint-every 1 --abort-after-checkpoints 2
    grep -q "(truncated)" "$SMOKE/ooc_killed.txt" \
        || { echo "out-of-core smoke: the abort hook did not interrupt $name"; exit 1; }
    explore_to "$SMOKE/ooc_resumed.txt" "$@" --stateful --all --jobs 8 --resume "$CKPT"
    if ! cmp -s "$SMOKE/kr_ref.txt" "$SMOKE/ooc_resumed.txt"; then
        echo "out-of-core smoke: resumed $name differs from the uninterrupted run"
        diff "$SMOKE/kr_ref.txt" "$SMOKE/ooc_resumed.txt" || :
        exit 1
    fi
    echo "  $name: killed after 2 checkpoints, resumed byte-identical"
    # The same exploration twice must write the same checkpoint bytes: the
    # spill and the tier-0 snapshot are sorted, so no table iteration
    # order may leak into a file, and the path log is appended in commit
    # order.
    for run in a b; do
        rm -rf "$SMOKE/ckpt_$run"
        explore_to /dev/null "$@" --stateful --all --jobs 1 --mem-limit 300 \
            --checkpoint-dir "$SMOKE/ckpt_$run" --checkpoint-every 1
    done
    [ "$(ls "$SMOKE/ckpt_a")" = "$(ls "$SMOKE/ckpt_b")" ] \
        || { echo "out-of-core smoke: two runs of $name wrote different checkpoint files"; exit 1; }
    for f in "$SMOKE/ckpt_a"/*; do
        cmp "$f" "$SMOKE/ckpt_b/$(basename "$f")" \
            || { echo "out-of-core smoke: checkpoint bytes of $name differ between two runs"; exit 1; }
    done
    echo "  $name: two --jobs 1 runs wrote byte-identical checkpoints"
done
# A record torn inside the tier-0 snapshot is refused as resume loads
# it: an error naming the file and exit 1, not a panic.
TORN="$SMOKE/ckpt_torn"
explore_to /dev/null corpus/workers.mc --stateful --all --jobs 2 --mem-limit 300 \
    --checkpoint-dir "$TORN" --checkpoint-every 1 --abort-after-checkpoints 2
MEM=$(ls "$TORN"/mem-*.bin)
[ "$(wc -c < "$MEM")" -gt 5 ] \
    || { echo "out-of-core smoke: $MEM holds no record to tear"; exit 1; }
truncate -s -1 "$MEM"
st=0
"$BIN" explore corpus/workers.mc --bfs --all --resume "$TORN" \
    > /dev/null 2> "$SMOKE/torn.err" || st=$?
if [ "$st" -ne 1 ] || ! grep -q "^error: $MEM: torn record" "$SMOKE/torn.err"; then
    echo "out-of-core smoke: a torn $MEM exits $st, not 1 with an error naming it"
    cat "$SMOKE/torn.err"
    exit 1
fi
echo "  workers.mc: a record torn inside $(basename "$MEM") is an error naming it"

# The gated benches are built once, here, so that none of them is timed
# in the seconds after its own compile.
cargo bench -q --offline -p reclose-bench --no-run

# `por_stateful` and `corpus_fuzz` time explorations of tens of states
# on the frontier engine: a scoped worker thread per level, so what they
# measure on a multi-vCPU guest is how promptly the *other* vCPU wakes —
# 3-8x slower for some tens of seconds after any two-CPU burst (a
# compile, the test suite), the same binary alternating 0.63 ms pinned /
# 2.4-3.0 ms unpinned (EXPERIMENTS.md E17). A 2x gate cannot hold
# through that, so these two run on one CPU — the first this shell may
# use — where the worker wakes on the spawner's CPU and the records
# time the search. Their baselines are recorded the same way and so say
# `hardware_threads: 1`. The single-threaded benches run unpinned.
ONE_CPU="taskset -c $(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')"

echo "== bench smoke: por_stateful ablation + JSON schema =="
RECLOSE_BENCH_DIR="$SMOKE" $ONE_CPU cargo bench -q --offline -p reclose-bench \
    --bench por_stateful > "$SMOKE/por_bench.log" 2>&1 \
    || { cat "$SMOKE/por_bench.log"; exit 1; }
JP="$SMOKE/BENCH_por.json"
[ -f "$JP" ] || { echo "por_stateful: $JP was not written"; exit 1; }
for rec in "por_stateful/workers/full" "por_stateful/workers/por" \
           "por_stateful/cyclic/ring/por"; do
    grep -q "$rec" "$JP" \
        || { echo "por_stateful: record $rec missing from JSON"; exit 1; }
done
for field in hardware_threads name min_ns median_ns mean_ns \
             elements elements_per_sec; do
    grep -q "\"$field\"" "$JP" \
        || { echo "por_stateful: field $field missing from JSON"; exit 1; }
done
echo "  BENCH_por.json: ablation records present, schema complete"

echo "== bench smoke: state_ops micro-benchmark + JSON schema =="
RECLOSE_BENCH_DIR="$SMOKE" cargo bench -q --offline -p reclose-bench \
    --bench state_ops > "$SMOKE/state_ops.log" 2>&1 \
    || { cat "$SMOKE/state_ops.log"; exit 1; }
J="$SMOKE/BENCH_state_ops.json"
[ -f "$J" ] || { echo "state_ops: $J was not written"; exit 1; }
for op in clone_successor fingerprint fingerprint_and_intern visited_insert \
          visited_insert_batch encode_roundtrip; do
    grep -q "state_ops/$op" "$J" \
        || { echo "state_ops: record $op missing from JSON"; exit 1; }
done
for field in hardware_threads name min_ns median_ns mean_ns \
             elements elements_per_sec; do
    grep -q "\"$field\"" "$J" \
        || { echo "state_ops: field $field missing from JSON"; exit 1; }
done
if grep -q '"elements": 0[,}]' "$J"; then
    echo "state_ops: a record reports zero elements"
    exit 1
fi
echo "  BENCH_state_ops.json: 6 records, schema complete"

echo "== bench smoke: visited_store micro-benchmark + JSON schema =="
RECLOSE_BENCH_DIR="$SMOKE" cargo bench -q --offline -p reclose-bench \
    --bench visited_store > "$SMOKE/visited_store.log" 2>&1 \
    || { cat "$SMOKE/visited_store.log"; exit 1; }
JV="$SMOKE/BENCH_visited_store.json"
[ -f "$JV" ] || { echo "visited_store: $JV was not written"; exit 1; }
for op in insert insert_batch probe_hit_mem probe_hit_disk \
          probe_hit_disk_compressed probe_miss spill; do
    grep -q "visited_store/$op" "$JV" \
        || { echo "visited_store: record $op missing from JSON"; exit 1; }
done
for field in hardware_threads name min_ns median_ns mean_ns \
             elements elements_per_sec; do
    grep -q "\"$field\"" "$JV" \
        || { echo "visited_store: field $field missing from JSON"; exit 1; }
done
if grep -q '"elements": 0[,}]' "$JV"; then
    echo "visited_store: a record reports zero elements"
    exit 1
fi
echo "  BENCH_visited_store.json: 7 records, schema complete"

echo "== perf gate: fresh medians vs committed baselines =="
# The bench smokes above just wrote fresh JSONs into $SMOKE; compare
# each record's median_ns against the committed baseline at the repo
# root and fail on a >2x regression. The micro-benchmarks are stable
# enough per machine that 2x is a real cliff, not noise (wall-clock
# variance is already bounded to 2x by the bench smoke above).
#
# Two things are failures of their own, not skips. A fresh record with
# no committed baseline: a new bench record must land together with its
# baseline, or the gate checks nothing for it. And a baseline recorded
# under another `hardware_threads`: the engine clamps its worker count
# to that number, so such medians describe a different program. Both are fixed the same way — re-record
# on this host with `RECLOSE_BENCH_DIR=. cargo bench -p reclose-bench
# --bench <name>` (under `taskset -c <cpu>` for the two pinned benches
# above) and commit the file: one ordinary recording, or per record the
# median of several — never the slowest, which blinds a one-sided gate.
perf_gate() {
    # $1 = committed baseline JSON, $2 = freshly generated JSON
    awk -v basefile="$1" '
        function rec(line) {
            if (!match(line, /"name": "[^"]+"/)) return 0
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (!match(line, /"median_ns": [0-9]+/)) return 0
            med = substr(line, RSTART + 13, RLENGTH - 13) + 0
            return 1
        }
        function threads(line) {
            if (!match(line, /"hardware_threads": [0-9]+/)) return 0
            hw = substr(line, RSTART + 20, RLENGTH - 20) + 0
            return 1
        }
        NR == FNR {
            if (threads($0)) base_hw = hw
            if (rec($0)) base[name] = med
            next
        }
        threads($0) && hw != base_hw {
            printf "perf gate: %s was recorded with hardware_threads: %d, this host has %d; " \
                "its medians are not comparable here, re-record it on this host\n", \
                basefile, base_hw, hw
            bad = 1
            exit
        }
        rec($0) {
            if (!(name in base) || base[name] <= 0) {
                printf "perf gate: %s has no committed baseline in %s\n", name, basefile
                bad = 1
            } else if (med > 2 * base[name]) {
                printf "perf gate: %s regressed (median %dns > 2x baseline %dns)\n", \
                    name, med, base[name]
                bad = 1
            } else {
                printf "  %s: median %dns vs baseline %dns\n", name, med, base[name]
            }
        }
        END { exit bad }
    ' "$1" "$2"
}
perf_gate BENCH_state_ops.json "$SMOKE/BENCH_state_ops.json" \
    || { echo "perf gate: state_ops failed (see above)"; exit 1; }
perf_gate BENCH_visited_store.json "$SMOKE/BENCH_visited_store.json" \
    || { echo "perf gate: visited_store failed (see above)"; exit 1; }
perf_gate BENCH_por.json "$SMOKE/BENCH_por.json" \
    || { echo "perf gate: por_stateful failed (see above)"; exit 1; }
echo "  no >2x median regression against committed baselines"

echo "== bench smoke: precision micro-suite + JSON schema =="
RECLOSE_BENCH_DIR="$SMOKE" cargo bench -q --offline -p reclose-bench \
    --bench precision > "$SMOKE/precision.log" 2>&1 \
    || { cat "$SMOKE/precision.log"; exit 1; }
JR="$SMOKE/BENCH_precision.json"
[ -f "$JR" ] || { echo "precision: $JR was not written"; exit 1; }
for rec in "precision/analyze_fig2" "precision/refine_partition" \
           "precision/refine_cex/gate" "precision/refine_cex/clamp" \
           "precision/refine_cex/pair"; do
    grep -q "$rec" "$JR" \
        || { echo "precision: record $rec missing from JSON"; exit 1; }
done
for field in hardware_threads name min_ns median_ns mean_ns \
             toss_count explored_states explored_states_unrefined; do
    grep -q "\"$field\"" "$JR" \
        || { echo "precision: field $field missing from JSON"; exit 1; }
done
perf_gate BENCH_precision.json "$JR" \
    || { echo "perf gate: precision failed (see above)"; exit 1; }
echo "  BENCH_precision.json: front-end records present, schema complete"

echo "== bench smoke: corpus_fuzz sweep + JSON schema =="
RECLOSE_BENCH_DIR="$SMOKE" $ONE_CPU cargo bench -q --offline -p reclose-bench \
    --bench corpus_fuzz > "$SMOKE/corpus_bench.log" 2>&1 \
    || { cat "$SMOKE/corpus_bench.log"; exit 1; }
JF="$SMOKE/BENCH_corpus.json"
[ -f "$JF" ] || { echo "corpus_fuzz: $JF was not written"; exit 1; }
for rec in "corpus/sweep/48" "corpus/generate/48" "corpus/close_and_check/1"; do
    grep -q "$rec" "$JF" \
        || { echo "corpus_fuzz: record $rec missing from JSON"; exit 1; }
done
for field in hardware_threads name min_ns median_ns mean_ns \
             elements elements_per_sec \
             generated_per_sec closed_per_sec checked_per_sec; do
    grep -q "\"$field\"" "$JF" \
        || { echo "corpus_fuzz: field $field missing from JSON"; exit 1; }
done
perf_gate BENCH_corpus.json "$JF" \
    || { echo "perf gate: corpus_fuzz failed (see above)"; exit 1; }
echo "  BENCH_corpus.json: sweep/stage records present, rates annotated"

echo "ci: all green"
