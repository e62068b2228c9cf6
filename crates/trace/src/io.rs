//! Trace decoding errors and the record encoding helpers shared by the
//! one on-disk trace format, the chunked `.mtrc` container of
//! [`crate::binfmt`].

use std::io;

use crate::access::{AccessKind, Mode};

/// Errors produced when decoding a chunked trace file ([`crate::binfmt`]).
///
/// Chunk-level variants carry the index of the failing chunk so a
/// corrupt corpus file can be reported (and repaired) precisely. All of
/// them flow into the workspace `MocaError::Trace` through its existing
/// `From` impl.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A chunked trace file does not start with the `MOCATRC` magic.
    BadFileMagic([u8; 8]),
    /// Unsupported chunked trace file version.
    BadFileVersion(u16),
    /// The fixed header or chunk directory of a chunked trace file is
    /// inconsistent (truncated, checksum mismatch, impossible counts).
    HeaderCorrupt(&'static str),
    /// The file ended before chunk `chunk`'s payload (directory intact,
    /// payload truncated — e.g. a recording cut short after the fact).
    ChunkTruncated {
        /// Index of the chunk whose payload could not be read in full.
        chunk: u32,
    },
    /// Chunk `chunk`'s payload does not match its recorded checksum.
    ChunkChecksum {
        /// Index of the chunk whose checksum failed.
        chunk: u32,
    },
    /// Chunk `chunk`'s payload decoded to something structurally invalid
    /// even though its checksum matched (encoder bug or crafted file).
    ChunkCorrupt {
        /// Index of the malformed chunk.
        chunk: u32,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadFileMagic(m) => write!(f, "bad trace file magic {m:?}"),
            ReadTraceError::BadFileVersion(v) => {
                write!(f, "unsupported trace file version {v}")
            }
            ReadTraceError::HeaderCorrupt(what) => {
                write!(f, "corrupt trace file header: {what}")
            }
            ReadTraceError::ChunkTruncated { chunk } => {
                write!(f, "trace file truncated reading chunk {chunk}")
            }
            ReadTraceError::ChunkChecksum { chunk } => {
                write!(f, "checksum mismatch in trace chunk {chunk}")
            }
            ReadTraceError::ChunkCorrupt { chunk, what } => {
                write!(f, "corrupt trace chunk {chunk}: {what}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// The coarse corruption class of a [`ReadTraceError`], for scripted
/// corpus admission (`trace_corpus validate` exits with
/// [`CorruptionClass::exit_code`], so a shell script can tell a stale
/// format from bit rot from a short copy without parsing stderr).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionClass {
    /// The magic bytes are wrong — not a trace file at all
    /// ([`ReadTraceError::BadFileMagic`]).
    Magic,
    /// A trace file, but an unsupported format version
    /// ([`ReadTraceError::BadFileVersion`]).
    Version,
    /// A payload checksum mismatch — bit rot or tampering
    /// ([`ReadTraceError::ChunkChecksum`]).
    Checksum,
    /// The file ends early — an interrupted recording or short copy
    /// ([`ReadTraceError::ChunkTruncated`]).
    Truncation,
    /// Anything else: I/O errors and structural corruption that is none
    /// of the scriptable classes above.
    Other,
}

impl CorruptionClass {
    /// The process exit code `trace_corpus validate` maps this class to.
    ///
    /// `3` magic, `4` version, `5` checksum, `6` truncation, `1` other
    /// (`0` is success and `2` is reserved for usage errors, matching
    /// the rest of the tool family).
    pub fn exit_code(self) -> u8 {
        match self {
            CorruptionClass::Magic => 3,
            CorruptionClass::Version => 4,
            CorruptionClass::Checksum => 5,
            CorruptionClass::Truncation => 6,
            CorruptionClass::Other => 1,
        }
    }
}

impl std::fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorruptionClass::Magic => "magic",
            CorruptionClass::Version => "version",
            CorruptionClass::Checksum => "checksum",
            CorruptionClass::Truncation => "truncation",
            CorruptionClass::Other => "other",
        })
    }
}

impl ReadTraceError {
    /// This error's [`CorruptionClass`].
    pub fn corruption_class(&self) -> CorruptionClass {
        match self {
            ReadTraceError::BadFileMagic(_) => CorruptionClass::Magic,
            ReadTraceError::BadFileVersion(_) => CorruptionClass::Version,
            ReadTraceError::ChunkChecksum { .. } => CorruptionClass::Checksum,
            ReadTraceError::ChunkTruncated { .. } => CorruptionClass::Truncation,
            ReadTraceError::Io(_)
            | ReadTraceError::HeaderCorrupt(_)
            | ReadTraceError::ChunkCorrupt { .. } => CorruptionClass::Other,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// ZigZag encoding maps signed deltas onto small unsigned varints.
pub(crate) fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn tag(kind: AccessKind, mode: Mode) -> u8 {
    (kind.index() as u8) | ((mode.index() as u8) << 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ReadTraceError::ChunkCorrupt {
            chunk: 7,
            what: "bad mode field",
        };
        assert!(e.to_string().contains("chunk 7: bad mode field"));
    }

    #[test]
    fn corruption_classes_and_exit_codes_are_distinct() {
        let cases = [
            (
                ReadTraceError::BadFileMagic(*b"XXXXXXXX"),
                CorruptionClass::Magic,
            ),
            (ReadTraceError::BadFileVersion(9), CorruptionClass::Version),
            (
                ReadTraceError::ChunkChecksum { chunk: 3 },
                CorruptionClass::Checksum,
            ),
            (
                ReadTraceError::ChunkTruncated { chunk: 3 },
                CorruptionClass::Truncation,
            ),
            (
                ReadTraceError::HeaderCorrupt("bad count"),
                CorruptionClass::Other,
            ),
        ];
        for (err, class) in cases {
            assert_eq!(err.corruption_class(), class, "{err}");
        }
        // The four scriptable classes map to four distinct exit codes,
        // none of which collide with success (0) or usage errors (2).
        let codes: Vec<u8> = [
            CorruptionClass::Magic,
            CorruptionClass::Version,
            CorruptionClass::Checksum,
            CorruptionClass::Truncation,
            CorruptionClass::Other,
        ]
        .iter()
        .map(|c| c.exit_code())
        .collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
        assert!(!codes.contains(&0) && !codes.contains(&2));
    }
}
