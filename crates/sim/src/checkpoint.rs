//! Checkpoint/resume for long sweeps and `repro` runs.
//!
//! A full `repro` pass costs minutes; a killed run used to lose all of
//! it. This module provides an append-only, crash-tolerant **journal**
//! of completed work keyed by content fingerprints, so a restarted run
//! replays finished results verbatim and only simulates what is
//! missing:
//!
//! * **sweep points** are keyed by `(AppProfile::fingerprint, design
//!   fingerprint, seed, refs)` — the exact identity of one deterministic
//!   simulation — and store their CSV row ([`crate::sweep::csv_row`]
//!   with the run-local `wall_ns` column blanked, since wall time is
//!   measurement noise, not simulation output);
//! * **experiments** (the `repro` binary) are keyed by
//!   `(experiment id, scale, seed)` and store the fully rendered block,
//!   so resumed output is byte-identical to an uninterrupted run.
//!
//! # Journal format
//!
//! One record per line, CSV-shaped:
//!
//! ```text
//! <key>,<checksum>,<payload>
//! ```
//!
//! The key contains no commas, the checksum is the fixed-seed
//! [`moca_trace::fxhash`] of the escaped payload (16 hex digits), and
//! the payload — the *final* field, so embedded commas stay raw — has
//! newlines, carriage returns, and backslashes escaped. Records are
//! flushed as soon as the work completes; a process killed mid-write
//! leaves at most one torn final line, which fails the
//! checksum/format check and is ignored on reload. Corruption never
//! aborts a resume — an unreadable record is simply re-simulated.

use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use moca_core::L2Design;
use moca_trace::fxhash::{FxHashMap, FxHasher};
use moca_trace::AppProfile;

use crate::cancel::{CancelToken, Cancelled};
use crate::parallel::Jobs;
use crate::replay::TraceRegistry;
use crate::sweep::{csv_row, execute_subset, SweepPoint, CSV_HEADER};
use crate::telemetry::{self, Event};

/// Fixed-seed fingerprint of a byte string (journal checksums and
/// design identities).
fn fxhash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// A stable 64-bit identity for a design point, derived from its label
/// (the label encodes every design parameter; see
/// [`L2Design::label`]).
pub fn design_fingerprint(design: &L2Design) -> u64 {
    fxhash_bytes(design.label().as_bytes())
}

/// The journal key of one sweep point:
/// `(app fingerprint, design fingerprint, seed, refs)`.
pub fn point_key(app: &AppProfile, design: &L2Design, seed: u64, refs: usize) -> String {
    point_key_with_source(app.fingerprint(), design, seed, refs)
}

/// [`point_key`] with an explicit trace-source fingerprint.
///
/// For in-process generation the source fingerprint *is* the app
/// fingerprint, so the key is unchanged; a sweep replaying a registered
/// compiled trace keys by the file's
/// [`source fingerprint`](moca_trace::binfmt::TraceHeader::source_fingerprint)
/// instead — the same namespacing the filtered-run memo applies — so
/// file-backed points memoize and resume in their own identity space.
pub fn point_key_with_source(
    source_fingerprint: u64,
    design: &L2Design,
    seed: u64,
    refs: usize,
) -> String {
    format!(
        "pt:{source_fingerprint:016x}:{:016x}:{seed:016x}:{refs}",
        design_fingerprint(design),
    )
}

/// The journal key of one `repro` experiment at a given scale/seed.
pub fn experiment_key(id: &str, scale: &str, seed: u64) -> String {
    format!("exp:{id}:{scale}:{seed:016x}")
}

/// Escapes a payload into a single journal-line field (backslash,
/// newline, and carriage return become two-character escapes).
fn escape(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for c in payload.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a malformed escape sequence (a sign
/// of a torn or corrupted record).
fn unescape(field: &str) -> Option<String> {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// An append-only, crash-tolerant journal of completed work.
///
/// See the [module docs](self) for the record format. Lookups are
/// in-memory ([`Journal::open`] loads every valid record); writes are
/// appended and flushed immediately so a `SIGKILL` loses at most the
/// record being written.
///
/// # Examples
///
/// ```
/// let dir = std::env::temp_dir().join(format!("moca-journal-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut journal = moca_sim::checkpoint::Journal::open(&dir)?;
/// journal.record("exp:F3:Quick:0", "rendered block\nwith, commas")?;
///
/// // A fresh handle sees the flushed record.
/// let reopened = moca_sim::checkpoint::Journal::open(&dir)?;
/// assert_eq!(reopened.get("exp:F3:Quick:0"), Some("rendered block\nwith, commas"));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    entries: FxHashMap<String, String>,
    file: File,
}

impl Journal {
    /// File name of the journal inside its checkpoint directory.
    pub const FILE_NAME: &'static str = "journal.csv";

    /// Opens (creating if needed) the journal under `dir`, loading every
    /// valid existing record. Torn or corrupt lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the directory or opening/reading
    /// the journal file.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::FILE_NAME);
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let mut entries = FxHashMap::default();
        for line in text.split_inclusive('\n') {
            // A record is only durable once its newline landed; the
            // final line of a killed process may be torn — skip it.
            let Some(line) = line.strip_suffix('\n') else {
                continue;
            };
            let Some((key, checksum, payload)) = parse_record(line) else {
                continue;
            };
            if fxhash_bytes(payload.as_bytes()) != checksum {
                continue;
            }
            let Some(payload) = unescape(payload) else {
                continue;
            };
            entries.insert(key.to_string(), payload);
        }
        Ok(Self { path, entries, file })
    }

    /// Opens an existing journal for resumption.
    ///
    /// # Errors
    ///
    /// Unlike [`Journal::open`], fails with [`io::ErrorKind::NotFound`]
    /// when no journal file exists under `dir` — resuming from nothing
    /// is almost always a mistyped directory.
    pub fn resume(dir: &Path) -> io::Result<Self> {
        if !dir.join(Self::FILE_NAME).is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no checkpoint journal at {}", dir.join(Self::FILE_NAME).display()),
            ));
        }
        Self::open(dir)
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded + recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded payload for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// `true` when `key` has a recorded payload.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Appends a record and flushes it to disk before returning, so a
    /// kill after `record` never loses the entry.
    ///
    /// Re-recording an existing key overwrites the in-memory entry and
    /// appends a superseding line (last record wins on reload) — with
    /// deterministic payloads both lines are identical anyway.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. full disk); the key is not
    /// added to the in-memory map in that case.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains a comma, newline, or carriage return —
    /// keys are caller-controlled identifiers, never data.
    pub fn record(&mut self, key: &str, payload: &str) -> io::Result<()> {
        assert!(
            !key.contains([',', '\n', '\r']),
            "journal keys must be comma- and newline-free: {key:?}"
        );
        let escaped = escape(payload);
        let line = format!("{key},{:016x},{escaped}\n", fxhash_bytes(escaped.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.entries.insert(key.to_string(), payload.to_string());
        if telemetry::enabled() {
            telemetry::record(Event::Checkpoint {
                event: "append",
                key: key.to_string(),
            });
            telemetry::add("checkpoint_appends", 1);
        }
        Ok(())
    }

    /// Emits a telemetry `replay` event for `key` (no-op when telemetry
    /// is disabled). Callers invoke this at the point they serve a
    /// journal entry instead of simulating — [`Journal::get`] itself
    /// stays silent because it is also used for existence probes.
    pub fn note_replay(&self, key: &str) {
        if telemetry::enabled() {
            telemetry::record(Event::Checkpoint {
                event: "replay",
                key: key.to_string(),
            });
            telemetry::add("checkpoint_replays", 1);
        }
    }
}

/// Splits a journal line into `(key, checksum, escaped payload)`.
fn parse_record(line: &str) -> Option<(&str, u64, &str)> {
    let (key, rest) = line.split_once(',')?;
    let (checksum, payload) = rest.split_once(',')?;
    if key.is_empty() || checksum.len() != 16 {
        return None;
    }
    let checksum = u64::from_str_radix(checksum, 16).ok()?;
    Some((key, checksum, payload))
}

/// One point of a checkpointed sweep: either freshly simulated in this
/// run, or replayed verbatim from the journal.
#[derive(Debug, Clone)]
pub enum CheckpointedPoint<P> {
    /// Simulated by this run (and recorded to the journal). Boxed: a
    /// [`SweepPoint`] carries a full report (hundreds of bytes), which
    /// would otherwise dominate the size of every `Replayed` value too.
    Fresh(Box<SweepPoint<P>>),
    /// Completed by an earlier run; only the recorded CSV row is
    /// available (reconstructing a full [`SimReport`] is not needed to
    /// export results — and `row` is byte-identical to what this run
    /// would have produced).
    ///
    /// [`SimReport`]: crate::metrics::SimReport
    Replayed {
        /// The swept parameter value.
        param: P,
        /// The recorded CSV row (fields per [`CSV_HEADER`], `wall_ns`
        /// blanked).
        row: String,
    },
}

impl<P> CheckpointedPoint<P> {
    /// The swept parameter value.
    pub fn param(&self) -> &P {
        match self {
            CheckpointedPoint::Fresh(p) => &p.param,
            CheckpointedPoint::Replayed { param, .. } => param,
        }
    }

    /// The point's CSV row with the `wall_ns` column blanked — the
    /// checkpoint-stable rendering (wall time varies run to run; every
    /// other field is deterministic).
    pub fn row(&self) -> String {
        match self {
            CheckpointedPoint::Fresh(p) => csv_row(&p.report, 0),
            CheckpointedPoint::Replayed { row, .. } => row.clone(),
        }
    }

    /// `true` when the point was replayed from the journal.
    pub fn is_replayed(&self) -> bool {
        matches!(self, CheckpointedPoint::Replayed { .. })
    }
}

/// [`crate::sweep::sweep`] with journal-backed checkpointing: points
/// already recorded under this `(app, design, seed, refs)` identity are
/// skipped and replayed verbatim; the rest are simulated as one smaller
/// plan (sharded over `jobs`) and recorded.
///
/// The concatenation of [`CheckpointedPoint::row`]s is **byte-identical
/// between an uninterrupted run and any kill/resume sequence** — rows
/// are deterministic once `wall_ns` is blanked, and the journal stores
/// exactly that rendering. See [`write_checkpoint_csv`].
///
/// Journaled points are always served (a cache hit never simulates, so
/// a call whose results are all cached succeeds even with a tripped
/// token). If any point is missing and `cancel` trips before — or at a
/// chunk boundary during — the simulation of the missing set, the call
/// returns `Ok(Err(Cancelled))` and journals nothing: cancellation is
/// all-or-nothing at the granularity of one call, so a later retry
/// resumes from exactly the pre-call journal state.
///
/// # Errors
///
/// Returns any journal I/O error. A design point that fails to build or
/// panics fails the call with an [`io::Error`] wrapping its
/// [`SweepPointError`](crate::error::SweepPointError), after the points
/// before it were journaled, so a rerun resumes past them.
///
/// # Examples
///
/// ```
/// use moca_sim::checkpoint::{sweep_checkpointed, Journal};
/// use moca_sim::parallel::Jobs;
/// use moca_core::L2Design;
/// use moca_trace::AppProfile;
///
/// let dir = std::env::temp_dir().join(format!("moca-ckpt-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let app = AppProfile::music();
/// let to_design = |&ways: &u32| L2Design::SharedSram { ways };
///
/// let mut journal = Journal::open(&dir)?;
/// let first = sweep_checkpointed(&mut journal, &[4u32, 8], to_design, &app, 10_000, 1, Jobs::SERIAL, None)?
///     .expect("no cancel token");
/// assert!(first.iter().all(|p| !p.is_replayed()));
///
/// // A second run (fresh process in real life) replays both points.
/// let mut journal = Journal::open(&dir)?;
/// let second = sweep_checkpointed(&mut journal, &[4u32, 8], to_design, &app, 10_000, 1, Jobs::SERIAL, None)?
///     .expect("no cancel token");
/// assert!(second.iter().all(|p| p.is_replayed()));
/// assert_eq!(first[0].row(), second[0].row());
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn sweep_checkpointed<P, F>(
    journal: &mut Journal,
    params: &[P],
    to_design: F,
    app: &AppProfile,
    refs: usize,
    seed: u64,
    jobs: Jobs,
    cancel: Option<&CancelToken>,
) -> io::Result<Result<Vec<CheckpointedPoint<P>>, Cancelled>>
where
    P: Clone,
    F: FnMut(&P) -> L2Design,
{
    let designs: Vec<L2Design> = params.iter().map(to_design).collect();
    let source_fp = TraceRegistry::global().fingerprint_for(app, seed);
    let keys: Vec<String> = designs
        .iter()
        .map(|d| point_key_with_source(source_fp, d, seed, refs))
        .collect();
    let missing: Vec<usize> = (0..designs.len())
        .filter(|&i| !journal.contains(&keys[i]))
        .collect();
    let mut outcomes = match execute_subset(app, seed, refs, &designs, &missing, jobs, cancel) {
        Ok(outcomes) => outcomes.into_iter(),
        Err(Cancelled) => return Ok(Err(Cancelled)),
    };

    let mut points = Vec::with_capacity(designs.len());
    for (i, key) in keys.iter().enumerate() {
        let param = params[i].clone();
        if missing.binary_search(&i).is_ok() {
            let point = outcomes
                .next()
                .expect("one outcome per missing point")
                .map_err(io::Error::other)?;
            journal.record(key, &csv_row(&point.report, 0))?;
            points.push(CheckpointedPoint::Fresh(Box::new(SweepPoint::new(param, point))));
        } else {
            journal.note_replay(key);
            let row = journal.get(key).expect("non-missing point has a journal entry");
            points.push(CheckpointedPoint::Replayed {
                param,
                row: row.to_string(),
            });
        }
    }
    Ok(Ok(points))
}

/// Writes checkpointed sweep points as CSV (header + one
/// [`CheckpointedPoint::row`] per point).
///
/// Because rows blank `wall_ns`, the output is byte-identical whether
/// the sweep ran uninterrupted or was killed and resumed any number of
/// times.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_checkpoint_csv<P, W: Write>(
    mut writer: W,
    points: &[CheckpointedPoint<P>],
) -> io::Result<()> {
    writeln!(writer, "{CSV_HEADER}")?;
    for p in points {
        writeln!(writer, "{}", p.row())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "moca-checkpoint-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn escape_roundtrips_awkward_payloads() {
        for payload in [
            "plain",
            "with,commas,kept",
            "multi\nline\nblock",
            "back\\slash \\n literal",
            "\r\n mixed \\ everything, here\n",
            "",
        ] {
            let esc = escape(payload);
            assert!(!esc.contains('\n') && !esc.contains('\r'), "{esc:?}");
            assert_eq!(unescape(&esc).as_deref(), Some(payload));
        }
        assert_eq!(unescape("bad \\x escape"), None);
        assert_eq!(unescape("trailing \\"), None);
    }

    #[test]
    fn journal_roundtrips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let mut j = Journal::open(&dir).expect("open");
        assert!(j.is_empty());
        j.record("k1", "payload one").expect("record");
        j.record("k2", "line1\nline2, with comma").expect("record");
        assert_eq!(j.len(), 2);

        let j2 = Journal::open(&dir).expect("reopen");
        assert_eq!(j2.len(), 2);
        assert_eq!(j2.get("k1"), Some("payload one"));
        assert_eq!(j2.get("k2"), Some("line1\nline2, with comma"));
        assert!(!j2.contains("k3"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped() {
        let dir = temp_dir("torn");
        let mut j = Journal::open(&dir).expect("open");
        j.record("good", "kept").expect("record");
        let path = j.path().to_path_buf();
        drop(j);

        // Simulate a SIGKILL mid-write (torn final line, no newline) plus
        // assorted corruption.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        f.write_all(b"not-a-record\n").expect("write");
        f.write_all(b"badsum,0000000000000000,payload\n").expect("write");
        f.write_all(b"torn,00000000").expect("write");
        drop(f);

        let j = Journal::open(&dir).expect("reopen");
        assert_eq!(j.len(), 1);
        assert_eq!(j.get("good"), Some("kept"));

        // The journal stays appendable after corruption.
        let mut j = Journal::open(&dir).expect("reopen again");
        j.record("after", "still works").expect("record");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn resume_requires_an_existing_journal() {
        let dir = temp_dir("resume-missing");
        let err = Journal::resume(&dir).expect_err("missing journal");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = Journal::open(&dir).expect("open creates");
        Journal::resume(&dir).expect("resume after create");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    #[should_panic(expected = "comma- and newline-free")]
    fn keys_with_commas_are_rejected() {
        let dir = temp_dir("badkey");
        let mut j = Journal::open(&dir).expect("open");
        let _ = j.record("a,b", "x");
    }

    #[test]
    fn point_keys_separate_every_identity_component() {
        let app = AppProfile::music();
        let other_app = AppProfile::game();
        let d1 = L2Design::baseline();
        let d2 = L2Design::static_default();
        let base = point_key(&app, &d1, 1, 1000);
        assert_ne!(base, point_key(&other_app, &d1, 1, 1000), "app");
        assert_ne!(base, point_key(&app, &d2, 1, 1000), "design");
        assert_ne!(base, point_key(&app, &d1, 2, 1000), "seed");
        assert_ne!(base, point_key(&app, &d1, 1, 2000), "refs");
        assert_eq!(base, point_key(&app, &d1, 1, 1000), "stable");
    }

    #[test]
    fn checkpointed_sweep_resumes_byte_identically() {
        let app = AppProfile::game();
        let to_design = |&w: &u32| L2Design::SharedSram { ways: w };
        let params = [2u32, 4, 8];
        let refs = 12_000;

        // Uninterrupted reference run.
        let dir_a = temp_dir("sweep-a");
        let mut ja = Journal::open(&dir_a).expect("open");
        let full =
            sweep_checkpointed(&mut ja, &params, to_design, &app, refs, 3, Jobs::SERIAL, None)
                .expect("run")
                .expect("no cancel token");
        let mut csv_full = Vec::new();
        write_checkpoint_csv(&mut csv_full, &full).expect("csv");

        // "Killed" run: only the first point completed before the kill.
        let dir_b = temp_dir("sweep-b");
        let mut jb = Journal::open(&dir_b).expect("open");
        let partial = sweep_checkpointed(
            &mut jb,
            &params[..1],
            to_design,
            &app,
            refs,
            3,
            Jobs::SERIAL,
            None,
        )
        .expect("partial")
        .expect("no cancel token");
        assert_eq!(partial.len(), 1);
        drop(jb);

        // Resume with the full parameter list: point 0 replays, 1..2 run.
        let mut jb = Journal::resume(&dir_b).expect("resume");
        let resumed =
            sweep_checkpointed(&mut jb, &params, to_design, &app, refs, 3, Jobs::new(2), None)
                .expect("resumed")
                .expect("no cancel token");
        assert!(resumed[0].is_replayed());
        assert!(!resumed[1].is_replayed() && !resumed[2].is_replayed());
        let mut csv_resumed = Vec::new();
        write_checkpoint_csv(&mut csv_resumed, &resumed).expect("csv");

        assert_eq!(
            csv_full, csv_resumed,
            "kill/resume must reproduce the uninterrupted CSV byte-for-byte"
        );

        // A third run replays everything without simulating.
        let mut jb = Journal::resume(&dir_b).expect("resume");
        let replayed =
            sweep_checkpointed(&mut jb, &params, to_design, &app, refs, 3, Jobs::SERIAL, None)
                .expect("replay")
                .expect("no cancel token");
        assert!(replayed.iter().all(CheckpointedPoint::is_replayed));

        std::fs::remove_dir_all(&dir_a).expect("cleanup");
        std::fs::remove_dir_all(&dir_b).expect("cleanup");
    }

    #[test]
    fn record_failure_surfaces_io_error() {
        let dir = temp_dir("io-error");
        let mut j = Journal::open(&dir).expect("open");
        j.record("k", "v").expect("record");
        // Reopen the handle read-only behind the journal's back by
        // swapping the file for a directory is platform-dependent;
        // instead exercise the error path through a full write to a
        // closed pipe-like sink at the csv layer.
        let mut sink = moca_testkit::ShortWriter::new(4);
        let err = write_checkpoint_csv(
            &mut sink,
            &[CheckpointedPoint::Replayed {
                param: 1u32,
                row: "x".repeat(64),
            }],
        )
        .expect_err("short write must error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
