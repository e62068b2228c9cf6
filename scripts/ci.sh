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
# binaries (repro/tracegen/trace_corpus) that the smoke tests below
# exercise stale or missing.
cargo build --release --offline --workspace

echo "== tests (workspace, offline) =="
cargo test -q --offline --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== fault-tolerance suite (panic isolation, checkpoint, i/o errors) =="
cargo test -q --offline -p moca-sim --test fault_tolerance

echo "== cross-engine differential suite (scalar vs broadcast vs executor) =="
cargo test -q --offline -p moca-sim --test lockstep_differential
cargo test -q --offline -p moca-sim --test lockstep_props

echo "== mrc differential suite (stack-distance profiler vs simulator, pruned sweeps) =="
cargo test -q --offline -p moca-cache --test mrc_differential
cargo test -q --offline -p moca-sim --test mrc_prune

echo "== kill/resume smoke (repro --checkpoint, SIGKILL, --resume) =="
REPRO=target/release/repro
SMOKE_IDS=(F3 F5 A2)
SMOKE_DIR=$(mktemp -d)
# Kill any background daemons the later gates leave behind on failure,
# then drop the scratch directory.
CLEANUP_PIDS=""
trap 'for p in $CLEANUP_PIDS; do kill -9 "$p" 2>/dev/null || true; done; rm -rf "$SMOKE_DIR"' EXIT
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
TELEM="$SMOKE_DIR/telemetry.jsonl"
"$REPRO" --quick --progress --telemetry "$TELEM" F3 A2 \
  > "$SMOKE_DIR/telemetry_stdout.txt" 2> "$SMOKE_DIR/telemetry_stderr.txt"
grep -q '^\[progress\] F3 (1/2)' "$SMOKE_DIR/telemetry_stderr.txt" \
  || { echo "missing --progress heartbeat on stderr"; exit 1; }
test -s "$TELEM" || { echo "telemetry stream is empty"; exit 1; }
# telemetry_report parses every line (exit 2 on the first malformed one)
# and must find the sweep points in its aggregate.
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

echo "== trace replay smoke (tracegen --emit, trace_corpus, repro --trace) =="
TRACEGEN=target/release/tracegen
CORPUS_TOOL=target/release/trace_corpus
# Compile one trace, validate it, and round-trip its identity.
"$TRACEGEN" browser 100000 "$SMOKE_DIR/browser.mtrc" --emit --seed 7 \
  2> "$SMOKE_DIR/tracegen_emit.txt"
grep -q 'compiled .* chunk(s)' "$SMOKE_DIR/tracegen_emit.txt" \
  || { echo "tracegen --emit reported no compile summary"; exit 1; }
"$CORPUS_TOOL" validate "$SMOKE_DIR/browser.mtrc" \
  || { echo "trace_corpus validate rejected a fresh file"; exit 1; }
"$CORPUS_TOOL" stat "$SMOKE_DIR/browser.mtrc" > "$SMOKE_DIR/corpus_stat.txt"
grep -q 'kernel share' "$SMOKE_DIR/corpus_stat.txt" \
  || { echo "trace_corpus stat produced no summary"; exit 1; }
# Record the quick-scale sweep corpus (default apps/refs/seed match the
# F3 search sweep) and validate the whole directory.
"$CORPUS_TOOL" record "$SMOKE_DIR/corpus" > /dev/null
"$CORPUS_TOOL" validate "$SMOKE_DIR/corpus" > /dev/null \
  || { echo "recorded corpus failed validation"; exit 1; }
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

echo "== search smoke (repro --search: --jobs determinism, kill/resume) =="
# --search with no ids runs exactly S1. The evolved front (and the whole
# rendered block) must be byte-identical across worker counts. The run
# header names the job count by design, so trim at the --- footer and
# drop the header's ", jobs N" suffix before diffing.
trim_search_run() { # FILE — report block with the jobs suffix masked
  sed -n '/^---$/q;p' "$1" | sed 's/^\(scale: .*\), jobs [0-9][0-9]*$/\1/'
}
"$REPRO" --quick --search --jobs 1 > "$SMOKE_DIR/s1_j1_full.txt"
trim_search_run "$SMOKE_DIR/s1_j1_full.txt" > "$SMOKE_DIR/s1_j1.txt"
grep -q '^## S1' "$SMOKE_DIR/s1_j1.txt" \
  || { echo "repro --search rendered no S1 block"; exit 1; }
"$REPRO" --quick --search --jobs 2 > "$SMOKE_DIR/s1_j2_full.txt"
trim_search_run "$SMOKE_DIR/s1_j2_full.txt" > "$SMOKE_DIR/s1_j2.txt"
diff -u "$SMOKE_DIR/s1_j1.txt" "$SMOKE_DIR/s1_j2.txt" \
  || { echo "search output varies with --jobs"; exit 1; }
# Kill the checkpointed search mid-flight; the resume must replay the
# finished generations and land on the identical block. (If the quick
# run beats the signal, the resume replays everything — same contract.)
"$REPRO" --quick --search --checkpoint "$SMOKE_DIR/s1_ckpt" > /dev/null 2>&1 &
S1_PID=$!
sleep 1
kill -9 "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true
test -f "$SMOKE_DIR/s1_ckpt/journal.csv" \
  || { echo "checkpointed search left no journal"; exit 1; }
"$REPRO" --quick --search --resume "$SMOKE_DIR/s1_ckpt" > "$SMOKE_DIR/s1_resumed_full.txt"
trim_search_run "$SMOKE_DIR/s1_resumed_full.txt" > "$SMOKE_DIR/s1_resumed.txt"
diff -u "$SMOKE_DIR/s1_j1.txt" "$SMOKE_DIR/s1_resumed.txt" \
  || { echo "search kill/resume diverged from the uninterrupted run"; exit 1; }
echo "search smoke passed"

echo "== design-matrix smoke (F1 F2 T2 F6 share one matrix: --jobs determinism) =="
# The four matrix experiments read one lock-step design matrix, sharded
# per app over the workers; the rendered blocks must not depend on how.
# Trimmed and masked like the search smoke above.
"$REPRO" --quick --jobs 1 F1 F2 T2 F6 > "$SMOKE_DIR/matrix_j1_full.txt"
trim_search_run "$SMOKE_DIR/matrix_j1_full.txt" > "$SMOKE_DIR/matrix_j1.txt"
for id in F1 F2 T2 F6; do
  grep -q "^## $id " "$SMOKE_DIR/matrix_j1.txt" \
    || { echo "matrix run rendered no $id block"; exit 1; }
done
"$REPRO" --quick --jobs 2 F1 F2 T2 F6 > "$SMOKE_DIR/matrix_j2_full.txt"
trim_search_run "$SMOKE_DIR/matrix_j2_full.txt" > "$SMOKE_DIR/matrix_j2.txt"
diff -u "$SMOKE_DIR/matrix_j1.txt" "$SMOKE_DIR/matrix_j2.txt" \
  || { echo "design-matrix output varies with --jobs"; exit 1; }
echo "design-matrix smoke passed"

echo "== filtered-run memo smoke (F5 F8 A2 A3 M1 replay memoized runs: --jobs determinism) =="
# Lock-step lane groups, the M1 profile and the A2/A3 custom runners all
# replay memoized filtered runs; under --jobs 2 concurrent consumers of
# one run wait for a single build. The rendered blocks must not depend
# on that. Trimmed and masked like the search smoke above.
"$REPRO" --quick --jobs 1 F5 F8 A2 A3 M1 > "$SMOKE_DIR/memo_j1_full.txt"
trim_search_run "$SMOKE_DIR/memo_j1_full.txt" > "$SMOKE_DIR/memo_j1.txt"
for id in F5 F8 A2 A3 M1; do
  grep -q "^## $id " "$SMOKE_DIR/memo_j1.txt" \
    || { echo "memo run rendered no $id block"; exit 1; }
done
grep -q '^filtered-run memo: [1-9][0-9]* run(s) cached' "$SMOKE_DIR/memo_j1_full.txt" \
  || { echo "memoized experiments cached no filtered run"; exit 1; }
"$REPRO" --quick --jobs 2 F5 F8 A2 A3 M1 > "$SMOKE_DIR/memo_j2_full.txt"
trim_search_run "$SMOKE_DIR/memo_j2_full.txt" > "$SMOKE_DIR/memo_j2.txt"
diff -u "$SMOKE_DIR/memo_j1.txt" "$SMOKE_DIR/memo_j2.txt" \
  || { echo "memoized experiment output varies with --jobs"; exit 1; }
echo "filtered-run memo smoke passed"

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
TRC="$SMOKE_DIR/browser.mtrc"
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
echo "graceful-drain smoke passed"

echo "== sweep service smoke (moca_serve: byte identity, drain, cache restart) =="
SERVE=target/release/moca_serve
SUBMIT=target/release/moca_submit
SOCK="$SMOKE_DIR/serve.sock"
SERVE_CKPT="$SMOKE_DIR/serve_ckpt"
SWEEP_ARGS=(sweep --app browser --seed 7 --refs 4000000
            baseline static dynamic sram:4 sram:8 sram-static:6:4)
wait_ready() { # SOCKET — poll ping until the daemon answers
  for _ in $(seq 1 100); do
    if "$SUBMIT" --socket "$1" ping > /dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "moca_serve did not become ready on $1"; exit 1
}
"$SERVE" --socket "$SOCK" --checkpoint "$SERVE_CKPT" --quick \
  2> "$SMOKE_DIR/serve1_log.txt" &
SERVE_PID=$!
CLEANUP_PIDS="$CLEANUP_PIDS $SERVE_PID"
wait_ready "$SOCK"
# A served experiment is byte-identical to the one-shot binary's block.
sed -n '/^## F3/,$p' "$SMOKE_DIR/f3_inprocess.txt" > "$SMOKE_DIR/f3_block.txt"
"$SUBMIT" --socket "$SOCK" exp F3 > "$SMOKE_DIR/f3_served.txt"
diff -u "$SMOKE_DIR/f3_block.txt" "$SMOKE_DIR/f3_served.txt" \
  || { echo "served F3 diverged from one-shot repro"; exit 1; }
# Resubmission is a pure journal replay: same bytes, no recompute.
"$SUBMIT" --socket "$SOCK" --events exp F3 \
  > "$SMOKE_DIR/f3_served2.txt" 2> "$SMOKE_DIR/f3_events.txt"
cmp -s "$SMOKE_DIR/f3_served.txt" "$SMOKE_DIR/f3_served2.txt" \
  || { echo "resubmitted F3 changed bytes"; exit 1; }
grep -q '"event":"replay"' "$SMOKE_DIR/f3_events.txt" \
  || { echo "resubmitted F3 was not served from the journal"; exit 1; }
# SIGTERM mid-batch: the accepted sweep still completes, is journaled,
# and its full CSV reaches the client; the daemon then exits 0.
"$SUBMIT" --socket "$SOCK" --client drainer "${SWEEP_ARGS[@]}" \
  > "$SMOKE_DIR/sweep_drained.csv" 2> /dev/null &
SUBMIT_PID=$!
sleep 0.3
kill -TERM "$SERVE_PID"
SUBMIT_CODE=0
wait "$SUBMIT_PID" || SUBMIT_CODE=$?
[ "$SUBMIT_CODE" -eq 0 ] \
  || { echo "accepted sweep lost during drain (submit exit $SUBMIT_CODE)"; exit 1; }
test -s "$SMOKE_DIR/sweep_drained.csv" \
  || { echo "drained sweep produced no CSV"; exit 1; }
SERVE_CODE=0
wait "$SERVE_PID" || SERVE_CODE=$?
[ "$SERVE_CODE" -eq 0 ] \
  || { echo "moca_serve exited $SERVE_CODE after SIGTERM (want 0)"; exit 1; }
grep -q 'drained cleanly' "$SMOKE_DIR/serve1_log.txt" \
  || { echo "missing drain summary in the server log"; exit 1; }
# Restart on the same checkpoint dir: the journal is the durable result
# cache, so the same sweep replays byte-identically with zero appends.
"$SERVE" --socket "$SOCK" --checkpoint "$SERVE_CKPT" --quick \
  2> "$SMOKE_DIR/serve2_log.txt" &
SERVE_PID=$!
CLEANUP_PIDS="$CLEANUP_PIDS $SERVE_PID"
wait_ready "$SOCK"
"$SUBMIT" --socket "$SOCK" --events --client drainer "${SWEEP_ARGS[@]}" \
  > "$SMOKE_DIR/sweep_replayed.csv" 2> "$SMOKE_DIR/sweep_events.txt"
cmp -s "$SMOKE_DIR/sweep_drained.csv" "$SMOKE_DIR/sweep_replayed.csv" \
  || { echo "journal-backed restart changed sweep bytes"; exit 1; }
grep -q '"event":"replay"' "$SMOKE_DIR/sweep_events.txt" \
  || { echo "restarted server did not replay from the journal"; exit 1; }
if grep -q '"event":"append"' "$SMOKE_DIR/sweep_events.txt"; then
  echo "restarted server recomputed journaled points"; exit 1
fi
# Served search: the first submission computes and journals the report;
# an identical resubmission is a byte-identical journal replay.
SEARCH_ARGS=(search --app game --seed 0x5EED --refs 100000 --pop 6 --gens 2)
"$SUBMIT" --socket "$SOCK" "${SEARCH_ARGS[@]}" > "$SMOKE_DIR/search_served.txt"
grep -q 'design-space search:' "$SMOKE_DIR/search_served.txt" \
  || { echo "served search rendered no report"; exit 1; }
"$SUBMIT" --socket "$SOCK" --events "${SEARCH_ARGS[@]}" \
  > "$SMOKE_DIR/search_served2.txt" 2> "$SMOKE_DIR/search_events.txt"
cmp -s "$SMOKE_DIR/search_served.txt" "$SMOKE_DIR/search_served2.txt" \
  || { echo "resubmitted search changed bytes"; exit 1; }
grep -q '"event":"replay"' "$SMOKE_DIR/search_events.txt" \
  || { echo "resubmitted search was not served from the journal"; exit 1; }
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "restarted server failed to drain"; exit 1; }
# The served CSV must not depend on the worker count: fresh journals at
# --jobs 1/2/8 produce identical bytes.
for J in 1 2 8; do
  JSOCK="$SMOKE_DIR/serve_j$J.sock"
  "$SERVE" --socket "$JSOCK" --checkpoint "$SMOKE_DIR/serve_ckpt_j$J" --quick --jobs "$J" \
    2> "$SMOKE_DIR/serve_j${J}_log.txt" &
  JPID=$!
  CLEANUP_PIDS="$CLEANUP_PIDS $JPID"
  wait_ready "$JSOCK"
  "$SUBMIT" --socket "$JSOCK" "${SWEEP_ARGS[@]}" > "$SMOKE_DIR/sweep_j$J.csv"
  kill -TERM "$JPID"
  wait "$JPID" || { echo "--jobs $J server failed to drain"; exit 1; }
done
cmp -s "$SMOKE_DIR/sweep_j1.csv" "$SMOKE_DIR/sweep_j2.csv" \
  && cmp -s "$SMOKE_DIR/sweep_j1.csv" "$SMOKE_DIR/sweep_j8.csv" \
  || { echo "sweep bytes vary with --jobs"; exit 1; }
echo "sweep service smoke passed"

echo "== bench smoke (1 iteration per target, offline) =="
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
for bench in "sweep-fanout/8-designs-100k" "sweep-lockstep/8-designs-100k" \
             "lockstep/lane-group-width" "filtered-run/warm-replay" \
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
