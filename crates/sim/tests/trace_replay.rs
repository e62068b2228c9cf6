//! File-backed trace replay: byte-identity, fallback, and memo
//! namespacing.
//!
//! Each test uses a unique `(app, seed)` identity: the registry and
//! filtered-run memo are process-global, and unique seeds keep
//! concurrently running tests from serving each other's runs.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;

use moca_core::L2Design;
use moca_sim::{
    csv_row, execute, run_app, FileTraceSource, Jobs, Plan, RunMemo, SimReport, TraceRegistry,
    TraceStream, MEMO_CAP_BYTES,
};
use moca_trace::binfmt::{self, TraceReader, CHUNK_REFS};
use moca_trace::AppProfile;

/// Compiles `(app, seed, refs)` into a uniquely named temp file and
/// returns its path.
fn compile_to_temp(app: &AppProfile, seed: u64, refs: usize, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("moca-replay-it-{}-{tag}.mtrc", std::process::id()));
    let file = File::create(&path).expect("create temp trace");
    binfmt::compile(BufWriter::new(file), app, seed, refs).expect("compile");
    path
}

#[test]
fn file_stream_serves_generator_identical_chunks_from_disk() {
    let app = AppProfile::browser();
    let seed = 0xF11E_0001u64;
    let refs = 3 * CHUNK_REFS;
    let path = compile_to_temp(&app, seed, refs, "stream");
    let source = Arc::new(FileTraceSource::open(&path).expect("open source"));
    assert_ne!(
        source.source_fingerprint(),
        app.fingerprint(),
        "file-backed streams must live in their own namespace"
    );

    // Every chunk is decoded (left) or generated (right).
    let mut from_file = TraceStream::with_source(&app, seed, source);
    let mut from_gen = TraceStream::new(&app, seed);
    assert!(from_file.is_file_backed());
    assert!(!from_gen.is_file_backed());
    for chunk in 0..4 {
        // Chunk 3 is past the file; the stream must fall through to
        // generation seamlessly.
        let decoded = from_file.next_chunk().to_vec();
        assert_eq!(decoded, from_gen.next_chunk(), "chunk {chunk} diverged");
    }
    std::fs::remove_file(&path).ok();
}

/// The reports of a plan every design of which is valid.
fn reports(plan: Plan<'_>, jobs: Jobs) -> Vec<SimReport> {
    execute(&plan, jobs)
        .into_iter()
        .map(|p| p.expect("valid design").report)
        .collect()
}

#[test]
fn registered_corpus_replays_byte_identically_at_every_job_count() {
    let app = AppProfile::game();
    let seed = 0xF11E_0002u64;
    let refs = 2 * CHUNK_REFS + 1000;
    let designs = [L2Design::baseline(), L2Design::static_default()];

    // In-process baseline, computed before the corpus exists. Reports
    // are compared through their full CSV rendering (SimReport carries
    // floats and exposes no structural equality).
    let baseline: Vec<String> = designs
        .iter()
        .map(|&d| csv_row(&run_app(&app, d, refs, seed), 0))
        .collect();

    let path = compile_to_temp(&app, seed, refs, "corpus");
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open"));
    let before = TraceRegistry::global().stats();

    for jobs in [1usize, 2, 8] {
        let reports: Vec<String> = reports(Plan::new(&app, seed, refs, &designs), Jobs::new(jobs))
            .iter()
            .map(|r| csv_row(r, 0))
            .collect();
        assert_eq!(reports, baseline, "fan-out diverged at jobs={jobs}");
    }

    let after = TraceRegistry::global().stats();
    assert!(
        after.chunks_decoded > before.chunks_decoded,
        "the corpus was registered but nothing was decoded from it"
    );
    assert_eq!(after.decode_errors, before.decode_errors);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_corpus_falls_back_to_generation_byte_identically() {
    let app = AppProfile::video();
    let seed = 0xF11E_0003u64;
    let refs = 2 * CHUNK_REFS;
    let design = L2Design::baseline();
    let baseline = csv_row(&run_app(&app, design, refs, seed), 0);

    let path = compile_to_temp(&app, seed, refs, "corrupt");
    // Flip one byte in chunk 0's payload; the checksum now fails.
    let mut bytes = std::fs::read(&path).expect("read");
    let offset = {
        let reader = TraceReader::open(&path).expect("parse");
        reader.header().chunks[0].offset as usize + 5
    };
    bytes[offset] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite");

    // The header (and directory) still parse, so registration succeeds;
    // the corruption only surfaces at replay time.
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open"));
    let before = TraceRegistry::global().stats();
    let reports = reports(Plan::new(&app, seed, refs, &[design]), Jobs::SERIAL);
    assert_eq!(
        csv_row(&reports[0], 0),
        baseline,
        "fallback must preserve byte-identity"
    );
    let after = TraceRegistry::global().stats();
    assert!(
        after.decode_errors > before.decode_errors,
        "the checksum failure must be counted"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_backed_and_generated_streams_are_memoized_apart() {
    let app = AppProfile::camera();
    let seed = 0xF11E_0005u64;
    let refs = 2 * CHUNK_REFS + 321;
    let designs = [L2Design::baseline(), L2Design::static_default()];
    let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
    let plan = Plan::new(&app, seed, refs, &designs).with_memo(&memo);
    let generated = reports(plan.clone(), Jobs::SERIAL);
    assert_eq!((memo.stats().runs, memo.stats().misses), (1, 1));

    // Registering a corpus for the identity moves the stream into the
    // file's namespace: the next replay misses and decodes instead of
    // reusing the generated run, with identical reports.
    let path = compile_to_temp(&app, seed, refs, "memo-key");
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open"));
    let decoded_before = TraceRegistry::global().stats().chunks_decoded;
    let decoded = reports(plan.clone(), Jobs::SERIAL);
    let stats = memo.stats();
    assert_eq!((stats.runs, stats.hits, stats.misses), (2, 0, 2));
    assert!(TraceRegistry::global().stats().chunks_decoded >= decoded_before + 2);
    for ((g, d), design) in generated.iter().zip(&decoded).zip(&designs) {
        assert_eq!(format!("{g:?}"), format!("{d:?}"));
        assert_eq!(
            format!("{d:?}"),
            format!("{:?}", run_app(&app, *design, refs, seed))
        );
    }
    // The decoded run is cached under the file's key from now on.
    reports(plan, Jobs::SERIAL);
    assert_eq!(memo.stats().hits, 1);
    std::fs::remove_file(&path).ok();
}
