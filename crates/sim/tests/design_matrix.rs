//! The shared design matrix: every cell equals the scalar oracle, and
//! its unmemoized lock-step streams put no run in the global memo.
//!
//! No test in this binary replays through the global filtered-run memo,
//! so its counters only move if the matrix path touches it.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use moca_sim::experiments::matrix::{column_order, run_matrix};
use moca_sim::lockstep::{execute, Plan};
use moca_sim::EXPERIMENT_SEED;
use moca_sim::{
    front_end_refs, run_app, FileTraceSource, Jobs, RunMemo, Scale, TraceRegistry, TraceStream,
};
use moca_trace::binfmt::{self, TraceReader, CHUNK_REFS};
use moca_trace::{AppProfile, TraceGenerator};

/// Compiles `(app, seed, refs)` into a uniquely named temp file.
fn compile_to_temp(app: &AppProfile, seed: u64, refs: usize, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("moca-matrix-it-{}-{tag}.mtrc", std::process::id()));
    let file = File::create(&path).expect("create temp trace");
    binfmt::compile(BufWriter::new(file), app, seed, refs).expect("compile");
    path
}

#[test]
fn every_matrix_cell_equals_scalar_run_app_at_every_job_count() {
    let designs = column_order();
    assert_eq!(designs.len(), 5);
    let want: Vec<Vec<String>> = AppProfile::suite()
        .iter()
        .map(|app| {
            designs
                .iter()
                .map(|d| run_app(app, *d, Scale::Smoke.refs(), EXPERIMENT_SEED))
                .map(|r| format!("{r:?}"))
                .collect()
        })
        .collect();
    for jobs in [1, 2, 8] {
        let m = run_matrix(&designs, Scale::Smoke, Jobs::new(jobs));
        assert_eq!(m.designs, designs);
        assert_eq!(m.rows.len(), want.len());
        for (row, want_row) in m.rows.iter().zip(&want) {
            assert_eq!(row.len(), designs.len());
            for (d, (cell, want_cell)) in row.iter().zip(want_row).enumerate() {
                assert_eq!(
                    &format!("{cell:?}"),
                    want_cell,
                    "jobs = {jobs}, app {}, design {}",
                    cell.app,
                    designs[d].label()
                );
            }
        }
    }
}

#[test]
fn running_the_matrix_builds_no_run() {
    let before = RunMemo::global().stats();
    let filtered = front_end_refs();
    let m = run_matrix(&column_order(), Scale::Smoke, Jobs::new(2));
    assert_eq!(m.rows.len(), AppProfile::suite().len());
    assert_eq!(RunMemo::global().stats(), before);
    // The matrix still filtered its streams, once per app, into runs
    // that lived only while each app's plan ran.
    assert!(
        front_end_refs() >= filtered + (AppProfile::suite().len() * Scale::Smoke.refs()) as u64
    );
}

#[test]
fn stream_decodes_a_registered_file_then_generates() {
    let app = AppProfile::maps();
    let seed = 0x3A7_0001u64;
    let path = compile_to_temp(&app, seed, 2 * CHUNK_REFS, "decode");
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open"));
    let decoded = TraceRegistry::global().stats().chunks_decoded;

    let mut stream = TraceStream::new(&app, seed);
    assert!(stream.is_file_backed());
    let mut gen = TraceGenerator::new(&app, seed);
    let mut want = Vec::with_capacity(CHUNK_REFS);
    // Chunks 0 and 1 come from the file, chunk 2 is past its end.
    for chunk in 0..3 {
        gen.fill(&mut want);
        assert_eq!(stream.next_chunk(), &want[..], "chunk {chunk} diverged");
    }
    assert!(TraceRegistry::global().stats().chunks_decoded >= decoded + 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unmemoized_lockstep_falls_back_past_a_corrupt_chunk_byte_identically() {
    let app = AppProfile::social();
    let seed = 0x3A7_0002u64;
    let refs = 3 * CHUNK_REFS;
    let path = compile_to_temp(&app, seed, refs, "corrupt");
    // Corrupt chunk 1: chunk 0 decodes, then the stream must catch its
    // generator up over the decoded prefix.
    let mut bytes = std::fs::read(&path).expect("read");
    let offset = TraceReader::open(&path).expect("parse").header().chunks[1].offset as usize + 5;
    bytes[offset] ^= 0x20;
    std::fs::write(&path, &bytes).expect("rewrite");
    TraceRegistry::global().register(FileTraceSource::open(&path).expect("open"));

    let designs = column_order();
    let plan = Plan::new(&app, seed, refs, &designs).unmemoized();
    let points = execute(&plan, Jobs::SERIAL);
    for (design, got) in designs.iter().zip(&points) {
        let got = &got.as_ref().expect("valid design").report;
        let want = run_app(&app, *design, refs, seed);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{}",
            design.label()
        );
    }
    assert!(TraceRegistry::global().stats().decode_errors > 0);
    std::fs::remove_file(&path).ok();
}
