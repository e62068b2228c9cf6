#!/usr/bin/env bash
# Offline tier-1 gate for the moca workspace.
#
# Runs entirely without network access: the workspace has zero external
# dependencies, so every step below must succeed with the registry
# unreachable. CARGO_NET_OFFLINE makes any accidental dependency on the
# network a hard failure rather than a silent download.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== build (release, offline) =="
# --workspace: the root manifest is a real package, so a bare `cargo
# build` would build only the facade crate and leave the moca-sim
# binaries (repro/trace_corpus) that the smoke tests below
# exercise stale or missing.
cargo build --release --offline --workspace

echo "== size counts (informational, no gate) =="
scripts/counts.sh

echo "== benchmark probe builds against the workspace API =="
# reprobench/probe is a package of its own that links the workspace
# crates; --locked and the workspace target dir keep this step from
# writing anything under reprobench/.
cargo build --release --offline --locked --manifest-path reprobench/probe/Cargo.toml --target-dir target

echo "== format (rustfmt, no diff) =="
cargo fmt --all --check

echo "== tests (workspace, offline) =="
cargo test -q --offline --workspace

echo "== trace hashes and cache differential under the release profile =="
# The profile repro ships with (one codegen unit, fat LTO) must
# generate the same streams and the same cache answers as the test
# profile does.
cargo test -q --release --offline -p moca-trace --test golden
cargo test -q --release --offline -p moca-cache --test soa_differential

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== examples (each runs once and must exit 0) =="
for example in quickstart app_study dynamic_partition retention_sweep; do
  cargo run -q --release --offline --example "$example" > /dev/null \
    || { echo "example $example failed"; exit 1; }
done

echo "== fault-tolerance suite (panic isolation, deterministic failed sets) =="
cargo test -q --offline -p moca-sim --test fault_tolerance

echo "== differential suite (scalar oracle vs executor) =="
cargo test -q --offline -p moca-sim --test lockstep_differential
cargo test -q --offline -p moca-sim --test lockstep_props

echo "== mrc differential suite (stack-distance profiler vs simulator, pruned sweeps) =="
cargo test -q --offline -p moca-cache --test mrc_differential
cargo test -q --offline -p moca-sim --test mrc_prune

echo "== kill/resume smoke (repro --checkpoint, SIGKILL, --resume) =="
REPRO=target/release/repro
SMOKE_IDS=(F3 F5 A2)
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
# Reference: an uninterrupted run. The footer after the --- separator
# (wall time, memo stats) is run-local by design, so the comparison
# stops there. Capture fully before trimming: repro treats a closed
# pipe as a real I/O error (by design), so sed must not cut it short.
"$REPRO" --quick "${SMOKE_IDS[@]}" > "$SMOKE_DIR/uninterrupted_full.txt"
sed -n '/^---$/q;p' "$SMOKE_DIR/uninterrupted_full.txt" > "$SMOKE_DIR/uninterrupted.txt"
# Checkpointed run, killed mid-flight (if it finishes first, the resume
# below simply replays everything — both paths must produce the same
# bytes).
"$REPRO" --quick --checkpoint "$SMOKE_DIR/ckpt" "${SMOKE_IDS[@]}" > /dev/null 2>&1 &
REPRO_PID=$!
sleep 1
kill -9 "$REPRO_PID" 2>/dev/null || true
wait "$REPRO_PID" 2>/dev/null || true
test -f "$SMOKE_DIR/ckpt/journal.csv" || { echo "checkpoint journal was not created"; exit 1; }
# Resume and require byte-identical output up to the footer.
"$REPRO" --quick --resume "$SMOKE_DIR/ckpt" "${SMOKE_IDS[@]}" > "$SMOKE_DIR/resumed_full.txt"
sed -n '/^---$/q;p' "$SMOKE_DIR/resumed_full.txt" > "$SMOKE_DIR/resumed.txt"
diff -u "$SMOKE_DIR/uninterrupted.txt" "$SMOKE_DIR/resumed.txt" \
  || { echo "kill/resume output diverged from the uninterrupted run"; exit 1; }
# Unknown flags must be rejected loudly, not silently dropped.
if "$REPRO" --no-such-flag > /dev/null 2>&1; then
  echo "repro accepted an unknown flag"; exit 1
fi
echo "kill/resume smoke passed"

echo "== telemetry smoke (repro --telemetry + --progress, stream validates) =="
# No ids: every suite id plus S1, so the stream carries the point, mrc
# (--mrc: M1's pruning decision), search (S1's generations), memo and
# counter kinds, plus the worker pair on a multi-core host. The
# checkpoint and trace_io kinds need --checkpoint and --trace: the
# trace replay smoke below drives those through telemetry_report.
TELEM="$SMOKE_DIR/telemetry.jsonl"
"$REPRO" --quick --mrc --progress --telemetry "$TELEM" \
  > "$SMOKE_DIR/telemetry_stdout.txt" 2> "$SMOKE_DIR/telemetry_stderr.txt"
grep -q '^\[progress\] F1 (1/18)' "$SMOKE_DIR/telemetry_stderr.txt" \
  || { echo "missing --progress heartbeat on stderr"; exit 1; }
test -s "$TELEM" || { echo "telemetry stream is empty"; exit 1; }
# telemetry_report parses every line (exit 2 on the first malformed one
# or unknown kind) and must find the sweep points in its aggregate.
target/release/telemetry_report "$TELEM" > "$SMOKE_DIR/telemetry_report.txt"
grep -q 'per-scope profile' "$SMOKE_DIR/telemetry_report.txt" \
  || { echo "telemetry_report produced no profile"; exit 1; }
echo "telemetry smoke passed"

echo "== mrc pruning smoke (repro --mrc vs unpruned M1) =="
# The pruned run must report its grid/pruned/simulated split in the
# footer; the unpruned run must not.
"$REPRO" --quick M1 > "$SMOKE_DIR/m1_full.txt"
"$REPRO" --quick --mrc M1 > "$SMOKE_DIR/m1_pruned.txt"
grep -q '^mrc pruning: 24 grid point(s), ' "$SMOKE_DIR/m1_pruned.txt" \
  || { echo "missing mrc-pruning footer line"; exit 1; }
if grep -q '^mrc pruning:' "$SMOKE_DIR/m1_full.txt"; then
  echo "unpruned M1 run printed an mrc-pruning footer"; exit 1
fi
# The analytic score table is mode-independent: identical bytes from
# the experiment header down to the simulated-points marker.
for f in m1_full m1_pruned; do
  sed -n '/analytic scores/,/^simulated points:/p' "$SMOKE_DIR/$f.txt" \
    > "$SMOKE_DIR/${f}_scores.txt"
done
diff -u "$SMOKE_DIR/m1_full_scores.txt" "$SMOKE_DIR/m1_pruned_scores.txt" \
  || { echo "--mrc changed the analytic score table"; exit 1; }
# Every simulated-point row of the pruned run (the table after the
# marker, through its first trailing blank line) must appear verbatim
# in the unpruned run: pruning selects a subset, never alters a result.
awk '/^simulated points:/{t=1;next} t&&NF{p=1;print;next} p{exit}' \
  "$SMOKE_DIR/m1_pruned.txt" > "$SMOKE_DIR/m1_pruned_rows.txt"
test -s "$SMOKE_DIR/m1_pruned_rows.txt" \
  || { echo "pruned M1 run rendered no simulated points"; exit 1; }
while IFS= read -r row; do
  grep -qF -x -- "$row" "$SMOKE_DIR/m1_full.txt" \
    || { echo "pruned simulated row missing from unpruned run: $row"; exit 1; }
done < "$SMOKE_DIR/m1_pruned_rows.txt"
echo "mrc pruning smoke passed"

echo "== trace replay smoke (trace_corpus record/validate/stat, repro --trace) =="
CORPUS_TOOL=target/release/trace_corpus
# Record the quick-scale sweep corpus (default apps/refs/seed match the
# F3 search sweep) and validate the whole directory.
"$CORPUS_TOOL" record "$SMOKE_DIR/corpus" > "$SMOKE_DIR/corpus_record.txt"
grep -q '^recorded .* chunk(s)' "$SMOKE_DIR/corpus_record.txt" \
  || { echo "trace_corpus record reported no compile summary"; exit 1; }
"$CORPUS_TOOL" validate "$SMOKE_DIR/corpus" > /dev/null \
  || { echo "recorded corpus failed validation"; exit 1; }
# One recorded file decodes to the generator-level trace summary.
CORPUS_FILE="$SMOKE_DIR/corpus/browser-000000005eed2015.mtrc"
"$CORPUS_TOOL" stat "$CORPUS_FILE" > "$SMOKE_DIR/corpus_stat.txt"
grep -q 'kernel share' "$SMOKE_DIR/corpus_stat.txt" \
  || { echo "trace_corpus stat produced no summary"; exit 1; }
# `stat --mrc` replays the file through the L1 pair into the stack-distance
# profiler, a path the experiment bodies do not cover: its curve must
# match the one recorded in scripts/expected (directory prefix dropped).
"$CORPUS_TOOL" stat --mrc "$CORPUS_FILE" | sed "s|^$SMOKE_DIR/corpus/||" \
  > "$SMOKE_DIR/corpus_stat_mrc.txt"
diff -u scripts/expected/corpus_stat_mrc.txt "$SMOKE_DIR/corpus_stat_mrc.txt" \
  || { echo "trace_corpus stat --mrc diverged from its recorded curve"; exit 1; }
# The same experiment replayed from the corpus must emit the same bytes
# up to the run-local footer, and must actually decode from the files.
"$REPRO" --quick F3 > "$SMOKE_DIR/f3_inprocess_full.txt"
sed -n '/^---$/q;p' "$SMOKE_DIR/f3_inprocess_full.txt" > "$SMOKE_DIR/f3_inprocess.txt"
"$REPRO" --quick F3 --trace "$SMOKE_DIR/corpus" > "$SMOKE_DIR/f3_replay_full.txt"
sed -n '/^---$/q;p' "$SMOKE_DIR/f3_replay_full.txt" > "$SMOKE_DIR/f3_replay.txt"
diff -u "$SMOKE_DIR/f3_inprocess.txt" "$SMOKE_DIR/f3_replay.txt" \
  || { echo "corpus replay diverged from in-process generation"; exit 1; }
grep -q '^trace corpus: 4 file(s), ' "$SMOKE_DIR/f3_replay_full.txt" \
  || { echo "missing trace-corpus footer line"; exit 1; }
grep -q '^trace corpus: .* 0 chunk(s) decoded' "$SMOKE_DIR/f3_replay_full.txt" \
  && { echo "corpus was registered but nothing was decoded from it"; exit 1; }
# A live stream with the journal, corpus and worker kinds too:
# telemetry_report must accept it and render each of their sections.
"$REPRO" --quick --jobs 2 --checkpoint "$SMOKE_DIR/f3_telem_ckpt" \
  --trace "$SMOKE_DIR/corpus" --telemetry "$SMOKE_DIR/f3_telem.jsonl" F3 > /dev/null
target/release/telemetry_report "$SMOKE_DIR/f3_telem.jsonl" > "$SMOKE_DIR/f3_telem_report.txt" \
  || { echo "telemetry_report rejected the checkpointed corpus-replay stream"; exit 1; }
for section in 'checkpoint journal:' 'trace replay:' 'worker pools'; do
  grep -qF "$section" "$SMOKE_DIR/f3_telem_report.txt" \
    || { echo "telemetry_report printed no '$section' section"; exit 1; }
done
echo "trace replay smoke passed"

echo "== composed mrc+trace smoke (repro --mrc --trace, pruned rows stay a subset) =="
# Pruning composed with corpus replay: the replayed runs must be
# byte-identical to the in-process runs from the mrc smoke above
# (footer excluded — it carries run-local decode stats), and the pruned
# run's simulated rows must stay a verbatim subset of the unpruned run.
"$REPRO" --quick M1 --trace "$SMOKE_DIR/corpus" > "$SMOKE_DIR/m1_full_trace.txt"
"$REPRO" --quick --mrc M1 --trace "$SMOKE_DIR/corpus" > "$SMOKE_DIR/m1_pruned_trace.txt"
grep -q '^trace corpus: .* 0 chunk(s) decoded' "$SMOKE_DIR/m1_pruned_trace.txt" \
  && { echo "composed --mrc --trace run decoded nothing from the corpus"; exit 1; }
for f in m1_full m1_pruned; do
  sed -n '/^---$/q;p' "$SMOKE_DIR/$f.txt" > "$SMOKE_DIR/${f}_block.txt"
  sed -n '/^---$/q;p' "$SMOKE_DIR/${f}_trace.txt" > "$SMOKE_DIR/${f}_trace_block.txt"
  diff -u "$SMOKE_DIR/${f}_block.txt" "$SMOKE_DIR/${f}_trace_block.txt" \
    || { echo "--trace changed the $f experiment bytes"; exit 1; }
done
awk '/^simulated points:/{t=1;next} t&&NF{p=1;print;next} p{exit}' \
  "$SMOKE_DIR/m1_pruned_trace.txt" > "$SMOKE_DIR/m1_pruned_trace_rows.txt"
test -s "$SMOKE_DIR/m1_pruned_trace_rows.txt" \
  || { echo "composed pruned run rendered no simulated points"; exit 1; }
while IFS= read -r row; do
  grep -qF -x -- "$row" "$SMOKE_DIR/m1_full_trace.txt" \
    || { echo "composed pruned row missing from the unpruned run: $row"; exit 1; }
done < "$SMOKE_DIR/m1_pruned_trace_rows.txt"
echo "composed mrc+trace smoke passed"

echo "== search smoke (repro S1: --jobs determinism, kill/resume) =="
# The id S1 alone runs exactly the search. The evolved front (and the whole
# rendered block) must be byte-identical across worker counts. The run
# header names the job count by design, so trim at the --- footer and
# drop the header's ", jobs N" suffix before diffing.
trim_search_run() { # FILE — report block with the jobs suffix masked
  sed -n '/^---$/q;p' "$1" | sed 's/^\(scale: .*\), jobs [0-9][0-9]*$/\1/'
}
"$REPRO" --quick --jobs 1 S1 > "$SMOKE_DIR/s1_j1_full.txt"
trim_search_run "$SMOKE_DIR/s1_j1_full.txt" > "$SMOKE_DIR/s1_j1.txt"
grep -q '^## S1' "$SMOKE_DIR/s1_j1.txt" \
  || { echo "repro S1 rendered no S1 block"; exit 1; }
"$REPRO" --quick --jobs 2 S1 > "$SMOKE_DIR/s1_j2_full.txt"
trim_search_run "$SMOKE_DIR/s1_j2_full.txt" > "$SMOKE_DIR/s1_j2.txt"
diff -u "$SMOKE_DIR/s1_j1.txt" "$SMOKE_DIR/s1_j2.txt" \
  || { echo "search output varies with --jobs"; exit 1; }
# Kill the checkpointed search mid-flight; the resume must replay the
# finished generations and land on the identical block. (If the quick
# run beats the signal, the resume replays everything — same contract.)
"$REPRO" --quick --checkpoint "$SMOKE_DIR/s1_ckpt" S1 > /dev/null 2>&1 &
S1_PID=$!
sleep 1
kill -9 "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true
test -f "$SMOKE_DIR/s1_ckpt/journal.csv" \
  || { echo "checkpointed search left no journal"; exit 1; }
"$REPRO" --quick --resume "$SMOKE_DIR/s1_ckpt" S1 > "$SMOKE_DIR/s1_resumed_full.txt"
trim_search_run "$SMOKE_DIR/s1_resumed_full.txt" > "$SMOKE_DIR/s1_resumed.txt"
diff -u "$SMOKE_DIR/s1_j1.txt" "$SMOKE_DIR/s1_resumed.txt" \
  || { echo "search kill/resume diverged from the uninterrupted run"; exit 1; }
echo "search smoke passed"

echo "== full-scale body gate (repro --jobs 2 vs the EXPERIMENTS.md transcript) =="
# The checked-in transcript is the byte-identity contract of every
# change: the whole full-scale body, from its `# moca reproduction run`
# header down to the `---` footer separator, with the jobs suffix of the
# `scale:` line masked on both sides.
"$REPRO" --jobs 2 > "$SMOKE_DIR/full_j2_full.txt"
trim_search_run "$SMOKE_DIR/full_j2_full.txt" > "$SMOKE_DIR/full_j2.txt"
awk '/^# moca reproduction run$/{on=1} on&&/^---$/{exit} on' EXPERIMENTS.md \
  | sed 's/^\(scale: .*\), jobs [0-9][0-9]*$/\1/' > "$SMOKE_DIR/full_expected.txt"
test -s "$SMOKE_DIR/full_expected.txt" \
  || { echo "EXPERIMENTS.md has no full-scale transcript"; exit 1; }
diff -u "$SMOKE_DIR/full_expected.txt" "$SMOKE_DIR/full_j2.txt" \
  || { echo "full-scale body diverged from EXPERIMENTS.md"; exit 1; }
echo "full-scale body gate passed"

echo "== design-matrix smoke (F1 F2 T2 F6 F4 F7 read one matrix: --jobs determinism) =="
# The six matrix experiments read one lock-step design matrix, sharded
# per app over the workers; the rendered blocks must not depend on how.
# Trimmed and masked like the search smoke above.
MATRIX_IDS=(F1 F2 T2 F6 F4 F7)
"$REPRO" --quick --jobs 1 "${MATRIX_IDS[@]}" > "$SMOKE_DIR/matrix_j1_full.txt"
trim_search_run "$SMOKE_DIR/matrix_j1_full.txt" > "$SMOKE_DIR/matrix_j1.txt"
for id in "${MATRIX_IDS[@]}"; do
  grep -q "^## $id " "$SMOKE_DIR/matrix_j1.txt" \
    || { echo "matrix run rendered no $id block"; exit 1; }
done
"$REPRO" --quick --jobs 2 "${MATRIX_IDS[@]}" > "$SMOKE_DIR/matrix_j2_full.txt"
trim_search_run "$SMOKE_DIR/matrix_j2_full.txt" > "$SMOKE_DIR/matrix_j2.txt"
diff -u "$SMOKE_DIR/matrix_j1.txt" "$SMOKE_DIR/matrix_j2.txt" \
  || { echo "design-matrix output varies with --jobs"; exit 1; }
# The matrix filters each app's 1M-ref quick stream once: 10 apps, one
# front-end pass each, however many designs replay it, with and without
# F4 and F7, which read its columns and simulate nothing of their own.
"$REPRO" --quick --jobs 1 F1 F2 T2 F6 > "$SMOKE_DIR/matrix_only.txt"
for run in matrix_only matrix_j1_full; do
  grep -q ' 10000000 front-end ref(s)$' "$SMOKE_DIR/$run.txt" \
    || { echo "$run: design matrix did not filter each stream exactly once"; exit 1; }
done
echo "design-matrix smoke passed"

echo "== filtered-run memo smoke (F5 F8 A2 A3 A5 M1 replay memoized runs: --jobs determinism) =="
# The lock-step plans (A2's and A3's set-partitioned and hybrid lanes
# among them) and the M1 profile replay memoized filtered runs, and A5's
# prefetch-off and -on plans of one app share one; under --jobs 2
# concurrent consumers of one run wait for a single build. The rendered
# blocks must not depend on that. Trimmed and masked like the search
# smoke above. Each plan obtains its run once, so the memo counters of
# the footer must not depend on it either; the memo builds each of the
# 8 (app, refs) runs once, so the front end filters exactly 2.7M refs
# and a plan that filters privately by mistake fails here.
MEMO_IDS=(F5 F8 A2 A3 A5 M1)
"$REPRO" --quick --jobs 1 "${MEMO_IDS[@]}" > "$SMOKE_DIR/memo_j1_full.txt"
trim_search_run "$SMOKE_DIR/memo_j1_full.txt" > "$SMOKE_DIR/memo_j1.txt"
for id in "${MEMO_IDS[@]}"; do
  grep -q "^## $id " "$SMOKE_DIR/memo_j1.txt" \
    || { echo "memo run rendered no $id block"; exit 1; }
done
grep -q '^filtered-run memo: [1-9][0-9]* run(s) cached' "$SMOKE_DIR/memo_j1_full.txt" \
  || { echo "memoized experiments cached no filtered run"; exit 1; }
grep -q '^filtered-run memo: .* 2700000 front-end ref(s)$' "$SMOKE_DIR/memo_j1_full.txt" \
  || { echo "memoized experiments filtered a stream outside the memo"; exit 1; }
"$REPRO" --quick --jobs 2 "${MEMO_IDS[@]}" > "$SMOKE_DIR/memo_j2_full.txt"
trim_search_run "$SMOKE_DIR/memo_j2_full.txt" > "$SMOKE_DIR/memo_j2.txt"
diff -u "$SMOKE_DIR/memo_j1.txt" "$SMOKE_DIR/memo_j2.txt" \
  || { echo "memoized experiment output varies with --jobs"; exit 1; }
diff -u <(grep '^filtered-run memo:' "$SMOKE_DIR/memo_j1_full.txt") \
  <(grep '^filtered-run memo:' "$SMOKE_DIR/memo_j2_full.txt") \
  || { echo "filtered-run memo counters vary with --jobs"; exit 1; }
echo "filtered-run memo smoke passed"

echo "== co-scheduled mix smoke (A7 runs through the executor: --jobs determinism) =="
# A7 runs one unmemoized three-design plan per co-scheduled pair: each
# pair's 600k-ref quick mix stream is filtered once, however many
# designs replay it, and no run enters the memo. The rendered block
# must not depend on --jobs. Trimmed and masked like the search smoke.
"$REPRO" --quick --jobs 1 A7 > "$SMOKE_DIR/a7_j1_full.txt"
trim_search_run "$SMOKE_DIR/a7_j1_full.txt" > "$SMOKE_DIR/a7_j1.txt"
grep -q '^## A7 ' "$SMOKE_DIR/a7_j1.txt" \
  || { echo "mix run rendered no A7 block"; exit 1; }
grep -q ' 1800000 front-end ref(s)$' "$SMOKE_DIR/a7_j1_full.txt" \
  || { echo "A7 did not filter each mix stream exactly once"; exit 1; }
grep -q '^filtered-run memo: 0 run(s) cached, ' "$SMOKE_DIR/a7_j1_full.txt" \
  || { echo "A7's unmemoized mix runs entered the memo"; exit 1; }
"$REPRO" --quick --jobs 2 A7 > "$SMOKE_DIR/a7_j2_full.txt"
trim_search_run "$SMOKE_DIR/a7_j2_full.txt" > "$SMOKE_DIR/a7_j2.txt"
diff -u "$SMOKE_DIR/a7_j1.txt" "$SMOKE_DIR/a7_j2.txt" \
  || { echo "co-scheduled mix output varies with --jobs"; exit 1; }
echo "co-scheduled mix smoke passed"

echo "== trace corruption exit-code smoke (one distinct code per class) =="
# trace_corpus validate maps each corruption class to its own exit code
# (CorruptionClass::exit_code): 3 magic, 4 version, 5 payload checksum,
# 6 truncation, 1 other structural damage. Layout facts used below:
# magic at bytes 0..8, version (u16 LE) at byte 8, header checksum over
# bytes 0..44, chunk 0 payload from byte 68 onward, chunk directory =
# the file's last chunk_count*8+8 bytes (count is a u32 LE at byte 40).
flip_byte() { # FILE OFFSET — overwrite one byte with its value + 1 mod 256
  local orig
  orig=$(od -An -tu1 -j "$2" -N 1 "$1" | tr -d ' ')
  printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
    | dd of="$1" bs=1 seek="$2" conv=notrunc status=none
}
expect_validate_exit() { # EXPECTED FILE LABEL
  local code=0
  "$CORPUS_TOOL" validate "$2" > /dev/null 2>&1 || code=$?
  [ "$code" -eq "$1" ] \
    || { echo "validate $3: expected exit $1, got $code"; exit 1; }
}
TRC="$CORPUS_FILE"
cp "$TRC" "$SMOKE_DIR/bad_magic.mtrc";   flip_byte "$SMOKE_DIR/bad_magic.mtrc" 0
cp "$TRC" "$SMOKE_DIR/bad_version.mtrc"; flip_byte "$SMOKE_DIR/bad_version.mtrc" 8
cp "$TRC" "$SMOKE_DIR/bad_header.mtrc";  flip_byte "$SMOKE_DIR/bad_header.mtrc" 20
cp "$TRC" "$SMOKE_DIR/bad_payload.mtrc"; flip_byte "$SMOKE_DIR/bad_payload.mtrc" 60
# A truncation the reader can still open: keep the fixed header and the
# intact chunk directory but drop the payload between them, so chunk 0
# hits EOF (class: truncation) instead of a structural header error.
TRC_CHUNKS=$(od -An -tu4 -j 40 -N 4 "$TRC" | tr -d ' ')
TRC_DIR_LEN=$(( TRC_CHUNKS * 8 + 8 ))
head -c 68 "$TRC" > "$SMOKE_DIR/truncated.mtrc"
tail -c "$TRC_DIR_LEN" "$TRC" >> "$SMOKE_DIR/truncated.mtrc"
expect_validate_exit 0 "$TRC" "fresh file"
expect_validate_exit 3 "$SMOKE_DIR/bad_magic.mtrc" "flipped magic"
expect_validate_exit 4 "$SMOKE_DIR/bad_version.mtrc" "flipped version"
expect_validate_exit 1 "$SMOKE_DIR/bad_header.mtrc" "flipped header field"
expect_validate_exit 5 "$SMOKE_DIR/bad_payload.mtrc" "flipped payload byte"
expect_validate_exit 6 "$SMOKE_DIR/truncated.mtrc" "truncated payload"
echo "trace corruption exit-code smoke passed"

echo "== graceful-drain smoke (repro SIGTERM, exit 0, resume byte-identical) =="
# SIGTERM mid-suite must drain: finish the in-flight experiment, keep
# its checkpoint append, and exit 0. If the quick run beats the signal,
# both assertions still hold and the resume below replays everything.
"$REPRO" --quick --checkpoint "$SMOKE_DIR/drain_ckpt" "${SMOKE_IDS[@]}" \
  > "$SMOKE_DIR/drain_stdout.txt" 2> "$SMOKE_DIR/drain_stderr.txt" &
DRAIN_PID=$!
sleep 1
kill -TERM "$DRAIN_PID" 2>/dev/null || true
DRAIN_CODE=0
wait "$DRAIN_PID" || DRAIN_CODE=$?
[ "$DRAIN_CODE" -eq 0 ] \
  || { echo "repro exited $DRAIN_CODE after SIGTERM (want 0)"; exit 1; }
if grep -q 'shutdown requested' "$SMOKE_DIR/drain_stderr.txt"; then
  grep -q '^interrupted: drained cleanly' "$SMOKE_DIR/drain_stdout.txt" \
    || { echo "drain happened but the drain footer line is missing"; exit 1; }
fi
test -f "$SMOKE_DIR/drain_ckpt/journal.csv" \
  || { echo "drained run left no checkpoint journal"; exit 1; }
"$REPRO" --quick --resume "$SMOKE_DIR/drain_ckpt" "${SMOKE_IDS[@]}" \
  > "$SMOKE_DIR/drain_resumed_full.txt"
sed -n '/^---$/q;p' "$SMOKE_DIR/drain_resumed_full.txt" > "$SMOKE_DIR/drain_resumed.txt"
diff -u "$SMOKE_DIR/uninterrupted.txt" "$SMOKE_DIR/drain_resumed.txt" \
  || { echo "post-drain resume diverged from the uninterrupted run"; exit 1; }
# Torn tail: a kill mid-append can cut the last record inside a
# multi-byte character. Truncate the journal one byte into the last
# record's final `—`: the resume must skip that record, re-run its
# experiment, exit 0 and reproduce the uninterrupted body, and a second
# resume must then replay every experiment.
JOURNAL="$SMOKE_DIR/drain_ckpt/journal.csv"
LAST_START=$(( $(stat -c %s "$JOURNAL") - $(tail -n 1 "$JOURNAL" | wc -c) ))
DASH_AT=$(LC_ALL=C grep -boa $'\xe2\x80\x94' "$JOURNAL" | tail -n 1 | cut -d: -f1)
[ -n "$DASH_AT" ] && [ "$DASH_AT" -ge "$LAST_START" ] \
  || { echo "the journal's last record has no multi-byte dash to tear"; exit 1; }
truncate -s $(( DASH_AT + 1 )) "$JOURNAL"
"$REPRO" --quick --resume "$SMOKE_DIR/drain_ckpt" "${SMOKE_IDS[@]}" \
  > "$SMOKE_DIR/torn_resumed_full.txt" \
  || { echo "resume over a torn multi-byte tail failed"; exit 1; }
sed -n '/^---$/q;p' "$SMOKE_DIR/torn_resumed_full.txt" > "$SMOKE_DIR/torn_resumed.txt"
diff -u "$SMOKE_DIR/uninterrupted.txt" "$SMOKE_DIR/torn_resumed.txt" \
  || { echo "resume over a torn tail diverged from the uninterrupted run"; exit 1; }
"$REPRO" --quick --resume "$SMOKE_DIR/drain_ckpt" "${SMOKE_IDS[@]}" \
  > "$SMOKE_DIR/torn_replayed_full.txt"
grep -q "^checkpoint: ${#SMOKE_IDS[@]} replayed, 0 recorded" "$SMOKE_DIR/torn_replayed_full.txt" \
  || { echo "the record re-run after a torn tail was not journaled"; exit 1; }
echo "graceful-drain smoke passed"

echo "== bench smoke (1 iteration of the micro target, offline) =="
cargo bench -p moca-bench --offline -- --smoke

echo "== bench regression guard (micro vs BENCH_micro.json) =="
# Full 5-iteration run: the guard compares min_ns, and the fastest of 5
# iterations is stable on a busy host where a single --smoke iteration
# is not.
mkdir -p target
cargo bench -p moca-bench --offline --bench micro | tee target/bench_micro_current.txt
# The sweep-engine and memo benches must be present in the run (bench_guard
# fails on baseline benches missing from the current run, but only if
# they are in the baseline — keep this check in sync with BENCH_micro.json).
for bench in "sweep-lockstep/8-designs-100k" \
             "filtered-run/warm-replay" \
             "trace-gen/100k-refs" "trace-decode/100k-refs" \
             "trace-file/replay-100k" "mrc/profile-100k" \
             "sweep-lockstep/24-designs-100k" "sweep-pruned/24-designs-100k" \
             "search-generation/8-pop-20k"; do
  grep -q "\"bench\":\"$bench\"" target/bench_micro_current.txt \
    || { echo "missing micro bench: $bench"; exit 1; }
done
cargo run -q --release -p moca-bench --offline --bin bench_guard -- \
  BENCH_micro.json target/bench_micro_current.txt --max-regression 0.30

echo "== ci.sh: all gates passed =="
