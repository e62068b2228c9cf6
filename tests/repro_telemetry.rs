//! End-to-end contract of the `repro --telemetry` JSONL stream.
//!
//! The determinism promise under test (see `DESIGN.md` § Telemetry &
//! profiling): with timing fields (`*_ns`) masked and the
//! scheduling-dependent kinds (`worker_start`, `worker_stop`, `memo`)
//! filtered out, the stream is **byte-identical for every `--jobs`
//! value**, and every sweep point appears exactly once.
//!
//! The tests drive the `repro` binary as a subprocess: the recorder
//! installed by `--telemetry` is process-global, so exercising it
//! in-process would let concurrently running tests pollute each other's
//! streams.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use moca_sim::telemetry::{is_scheduling_kind, mask_timing, parse_line, JsonValue};

/// Experiments used by the tests: A2 fans out per-app design pairs
/// (multi-point sweeps) and F3 runs standalone single-point sweeps, so
/// both `point` shapes appear in the stream.
const IDS: [&str; 2] = ["F3", "A2"];

/// Runs `repro --quick --jobs N --progress --telemetry <tmp>` and
/// returns `(jsonl stream, stderr)`.
fn repro_stream(jobs: usize) -> (String, String) {
    let path = std::env::temp_dir().join(format!(
        "moca-telemetry-{}-jobs{jobs}.jsonl",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--progress", "--jobs", &jobs.to_string()])
        .arg("--telemetry")
        .arg(&path)
        .args(IDS)
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stream = std::fs::read_to_string(&path).expect("telemetry stream written");
    let _ = std::fs::remove_file(&path);
    (stream, String::from_utf8_lossy(&output.stderr).into_owned())
}

/// Extracts a field, asserting it is a string.
fn str_field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> &'a str {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => s,
        other => panic!("field {key:?} missing or not a string: {other:?}"),
    }
}

/// Extracts a field, asserting it is a number.
fn num_field(fields: &[(String, JsonValue)], key: &str) -> u64 {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Num(n))) => *n,
        other => panic!("field {key:?} missing or not a number: {other:?}"),
    }
}

/// The canonical form compared across job counts: every line parses,
/// timing is masked, scheduling-dependent kinds are dropped.
fn canonical(stream: &str) -> String {
    stream
        .lines()
        .filter_map(|line| {
            let masked = mask_timing(line)
                .unwrap_or_else(|e| panic!("line does not parse: {e}\n  {line}"));
            let fields = parse_line(&masked).expect("masked line still parses");
            let kind = str_field(&fields, "kind").to_string();
            (!is_scheduling_kind(&kind)).then_some(masked)
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn stream_is_deterministic_across_job_counts_and_covers_every_point() {
    let (reference_raw, stderr) = repro_stream(1);
    let reference = canonical(&reference_raw);
    assert!(
        !reference.is_empty(),
        "a telemetry run must produce deterministic events"
    );

    // --progress heartbeats go to stderr, one per experiment, stdout
    // untouched (stdout is the report; its byte-identity across job
    // counts is covered by the determinism suite).
    for (i, id) in IDS.iter().enumerate() {
        let needle = format!("[progress] {id} ({}/{})", i + 1, IDS.len());
        assert!(
            stderr.contains(&needle),
            "missing heartbeat {needle:?} in stderr:\n{stderr}"
        );
    }

    for jobs in [2, 8] {
        let (raw, _) = repro_stream(jobs);
        assert_eq!(
            canonical(&raw),
            reference,
            "canonical telemetry stream differs between --jobs 1 and --jobs {jobs}"
        );
    }

    // Exactly-once coverage, checked on the reference stream (the
    // byte-equality above extends it to every job count): no duplicate
    // sweep points, and each multi-point sweep covers 0..total.
    let mut seen = BTreeMap::<(String, String, String, u64, u64), u64>::new();
    let mut groups = BTreeMap::<(String, String, u64), Vec<u64>>::new();
    for line in reference.lines() {
        let fields = parse_line(line).expect("canonical line parses");
        if str_field(&fields, "kind") != "point" {
            continue;
        }
        let scope = str_field(&fields, "scope").to_string();
        let app = str_field(&fields, "app").to_string();
        let design = str_field(&fields, "design").to_string();
        let (index, total) = (num_field(&fields, "index"), num_field(&fields, "total"));
        assert!(index < total, "point index {index} out of range 0..{total}");
        *seen.entry((scope.clone(), app.clone(), design, index, total)).or_default() += 1;
        if total > 1 {
            groups.entry((scope, app, total)).or_default().push(index);
        }
    }
    for (key, count) in &seen {
        assert_eq!(*count, 1, "sweep point emitted {count} times: {key:?}");
    }

    // The lock-step engine replays filtered events instead of stepping
    // per reference, but it must keep feeding the same counters the
    // scalar batch loop did: both totals present, nonzero, and every
    // batch accounts for at least one and at most ~8192 references
    // (the scalar loop's batch size; lock-step lanes bump per 1024-ref
    // chunk, well inside the bound). Cross-job equality of the totals
    // is already covered by the byte-equality above — counter events
    // survive canonicalization.
    let mut counters = BTreeMap::<String, u64>::new();
    for line in reference.lines() {
        let fields = parse_line(line).expect("canonical line parses");
        if str_field(&fields, "kind") == "counter" {
            counters.insert(
                str_field(&fields, "name").to_string(),
                num_field(&fields, "value"),
            );
        }
    }
    let batches = counters.get("sim_batches").copied().unwrap_or(0);
    let refs = counters.get("sim_refs").copied().unwrap_or(0);
    assert!(batches > 0, "sim_batches counter missing: {counters:?}");
    assert!(refs > 0, "sim_refs counter missing: {counters:?}");
    assert!(
        batches <= refs && refs <= batches * 8192,
        "counter totals violate the batch accounting invariant: \
         sim_batches={batches} sim_refs={refs}"
    );
    assert!(
        !groups.is_empty(),
        "the chosen experiments must include a multi-point sweep"
    );
    for ((scope, app, total), mut indices) in groups {
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..total).collect::<Vec<_>>(),
            "sweep ({scope}, {app}) does not cover 0..{total} exactly once"
        );
    }
}

#[test]
fn no_telemetry_flag_means_no_stream_and_identical_report() {
    // Without --telemetry the recorder stays uninstalled: same report on
    // stdout, no stray file, no "telemetry:" trailer on stderr.
    let path: PathBuf = std::env::temp_dir().join(format!(
        "moca-telemetry-{}-absent.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--jobs", "2", "F3"])
        .output()
        .expect("repro binary runs");
    assert!(output.status.success());
    assert!(!path.exists());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("telemetry:"),
        "disabled run must not mention telemetry: {stderr}"
    );
}
