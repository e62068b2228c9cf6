//! Determinism properties of the seeded NSGA-II search.
//!
//! The contract under test: for a fixed [`SearchConfig`], the final
//! front, the rendered report, and the checkpoint journal are all
//! byte-identical regardless of `--jobs`, and a run resumed from a
//! journal truncated at any generation boundary (the state a SIGKILL
//! leaves behind — records are flushed per generation) finishes
//! byte-identical to an uninterrupted run.

use std::path::PathBuf;

use moca_search::{run_search, SearchConfig, SearchOutcome};
use moca_sim::checkpoint::Journal;
use moca_sim::parallel::Jobs;

fn tiny() -> SearchConfig {
    SearchConfig {
        app: "game".to_string(),
        seed: 0xD0_0DAD,
        refs: 6_000,
        population: 6,
        generations: 3,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "moca-search-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn front_labels(outcome: &SearchOutcome) -> Vec<&str> {
    outcome
        .front
        .iter()
        .map(|&i| outcome.archive[i].label.as_str())
        .collect()
}

fn journal_bytes(dir: &std::path::Path) -> Vec<u8> {
    std::fs::read(dir.join(Journal::FILE_NAME)).expect("journal file")
}

#[test]
fn final_front_and_render_are_identical_across_jobs() {
    let cfg = tiny();
    let reference = run_search(&cfg, Jobs::new(1), None).expect("search runs");
    for jobs in [2usize, 8] {
        let outcome = run_search(&cfg, Jobs::new(jobs), None).expect("search runs");
        assert_eq!(
            outcome.render(),
            reference.render(),
            "rendered report diverged at jobs={jobs}"
        );
        assert_eq!(
            front_labels(&outcome),
            front_labels(&reference),
            "front membership diverged at jobs={jobs}"
        );
    }
}

#[test]
fn checkpoint_journals_are_byte_identical_across_jobs() {
    let cfg = tiny();
    let mut journals = Vec::new();
    for jobs in [1usize, 2, 8] {
        let dir = temp_dir(&format!("jobs-{jobs}"));
        let mut journal = Journal::open(&dir).expect("journal");
        run_search(&cfg, Jobs::new(jobs), Some(&mut journal)).expect("search runs");
        journals.push((jobs, journal_bytes(&dir)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    let (_, reference) = &journals[0];
    assert!(!reference.is_empty(), "checkpoints were written");
    for (jobs, bytes) in &journals[1..] {
        assert_eq!(bytes, reference, "journal bytes diverged at jobs={jobs}");
    }
}

#[test]
fn kill_at_any_generation_boundary_resumes_byte_identically() {
    let cfg = tiny();

    // Uninterrupted reference run (jobs 2), journaled.
    let full_dir = temp_dir("full");
    let mut journal = Journal::open(&full_dir).expect("journal");
    let reference = run_search(&cfg, Jobs::new(2), Some(&mut journal)).expect("search runs");
    drop(journal);
    let full_bytes = journal_bytes(&full_dir);
    let lines: Vec<&[u8]> = full_bytes.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(
        lines.len(),
        cfg.generations as usize,
        "one checkpoint record per generation"
    );

    // A SIGKILL after generation k leaves exactly the first k records
    // (records are flushed one per finished generation). Resume from
    // every such prefix — with a *different* jobs count — and demand
    // the identical outcome and the identical final journal.
    for k in 1..cfg.generations as usize {
        let dir = temp_dir(&format!("resume-{k}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(Journal::FILE_NAME), lines[..k].concat()).expect("seed journal");
        let mut journal = Journal::open(&dir).expect("journal");
        let resumed = run_search(&cfg, Jobs::new(1), Some(&mut journal)).expect("search resumes");
        drop(journal);
        assert_eq!(
            resumed.render(),
            reference.render(),
            "resume from generation {k} diverged"
        );
        assert_eq!(
            journal_bytes(&dir),
            full_bytes,
            "journal after resume from generation {k} diverged"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&full_dir).expect("cleanup");
}

#[test]
fn a_fully_journaled_search_is_a_pure_replay() {
    let cfg = tiny();
    let dir = temp_dir("replay");
    let mut journal = Journal::open(&dir).expect("journal");
    let first = run_search(&cfg, Jobs::new(2), Some(&mut journal)).expect("search runs");
    let bytes_after_first = journal_bytes(&dir);

    // Second run over the same journal: every generation replays, no
    // new records are appended, and the outcome is byte-identical.
    let second = run_search(&cfg, Jobs::new(1), Some(&mut journal)).expect("search replays");
    assert_eq!(second.render(), first.render());
    assert_eq!(
        journal_bytes(&dir),
        bytes_after_first,
        "replay appended nothing"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
