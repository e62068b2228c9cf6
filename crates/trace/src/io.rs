//! Trace serialization.
//!
//! Two interchange formats are provided:
//!
//! * a compact **binary** format (`MOCA` magic, version byte, LEB128
//!   varint-encoded records with address/PC delta compression), suitable
//!   for storing long traces, and
//! * a one-record-per-line **text** format for eyeballing and diffing.
//!
//! Both round-trip exactly; see the property tests at the bottom.

use std::io::{self, BufRead, Read, Write};

use crate::access::{AccessKind, MemoryAccess, Mode};

/// Binary format magic bytes.
pub const MAGIC: [u8; 4] = *b"MOCA";
/// Binary format version.
pub const VERSION: u8 = 1;

/// Errors produced when decoding a trace.
///
/// The first four variants belong to the legacy stream format of this
/// module; the `File*`/`Header*`/`Chunk*` variants are produced by the
/// chunked container in [`crate::binfmt`]. Chunk-level variants carry
/// the index of the failing chunk so a corrupt corpus file can be
/// reported (and repaired) precisely. All of them flow into the
/// workspace `MocaError::Trace` through its existing `From` impl.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `MOCA` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u8),
    /// A record field had an invalid encoding.
    Corrupt(&'static str),
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
            ReadTraceError::BadMagic(m) => write!(f, "bad trace magic {m:?}"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::Corrupt(what) => write!(f, "corrupt trace record: {what}"),
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
    /// ([`ReadTraceError::BadMagic`] / [`ReadTraceError::BadFileMagic`]).
    Magic,
    /// A trace file, but an unsupported format version
    /// ([`ReadTraceError::BadVersion`] / [`ReadTraceError::BadFileVersion`]).
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
            ReadTraceError::BadMagic(_) | ReadTraceError::BadFileMagic(_) => CorruptionClass::Magic,
            ReadTraceError::BadVersion(_) | ReadTraceError::BadFileVersion(_) => {
                CorruptionClass::Version
            }
            ReadTraceError::ChunkChecksum { .. } => CorruptionClass::Checksum,
            ReadTraceError::ChunkTruncated { .. } => CorruptionClass::Truncation,
            ReadTraceError::Io(_)
            | ReadTraceError::Corrupt(_)
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

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, ReadTraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(ReadTraceError::Corrupt("varint overflows u64"));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
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

fn untag(byte: u8) -> Result<(AccessKind, Mode), ReadTraceError> {
    let kind = match byte & 0x3 {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::Load,
        2 => AccessKind::Store,
        _ => return Err(ReadTraceError::Corrupt("unknown access kind")),
    };
    let mode = match (byte >> 2) & 0x1 {
        0 => Mode::User,
        _ => Mode::Kernel,
    };
    if byte & !0x7 != 0 {
        return Err(ReadTraceError::Corrupt("reserved tag bits set"));
    }
    Ok((kind, mode))
}

/// Writes a trace in the binary format.
///
/// A mutable reference to any [`Write`] can be passed (e.g. `&mut file`).
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// # fn main() -> std::io::Result<()> {
/// use moca_trace::{io::{write_binary, read_binary}, AccessKind, MemoryAccess, Mode};
///
/// let trace = vec![MemoryAccess::new(64, 4, AccessKind::Load, Mode::User)];
/// let mut buf = Vec::new();
/// write_binary(&mut buf, trace.iter().copied())?;
/// let back = read_binary(&mut buf.as_slice()).expect("roundtrip");
/// assert_eq!(back, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_binary<W, I>(mut writer: W, trace: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = MemoryAccess>,
{
    writer.write_all(&MAGIC)?;
    writer.write_all(&[VERSION])?;
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    for a in trace {
        writer.write_all(&[tag(a.kind, a.mode)])?;
        // Wrapping deltas: correct for the full u64 address space, and
        // small (hence short varints) on locality-rich traces.
        write_varint(&mut writer, zigzag(a.addr.wrapping_sub(prev_addr) as i64))?;
        write_varint(&mut writer, zigzag(a.pc.wrapping_sub(prev_pc) as i64))?;
        prev_addr = a.addr;
        prev_pc = a.pc;
    }
    Ok(())
}

/// Reads a complete binary trace.
///
/// # Errors
///
/// Returns [`ReadTraceError`] on malformed input or I/O failure.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Vec<MemoryAccess>, ReadTraceError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(ReadTraceError::BadMagic(magic));
    }
    let mut version = [0u8; 1];
    reader.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(ReadTraceError::BadVersion(version[0]));
    }
    let mut out = Vec::new();
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    loop {
        let mut tag_byte = [0u8; 1];
        match reader.read_exact(&mut tag_byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let (kind, mode) = untag(tag_byte[0])?;
        let addr = prev_addr.wrapping_add(unzigzag(read_varint(&mut reader)?) as u64);
        let pc = prev_pc.wrapping_add(unzigzag(read_varint(&mut reader)?) as u64);
        prev_addr = addr;
        prev_pc = pc;
        out.push(MemoryAccess::new(addr, pc, kind, mode));
    }
    Ok(out)
}

/// Writes a trace in the line-oriented text format:
/// `<U|K> <I|L|S> <addr-hex> <pc-hex>`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_text<W, I>(mut writer: W, trace: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = MemoryAccess>,
{
    for a in trace {
        let m = match a.mode {
            Mode::User => 'U',
            Mode::Kernel => 'K',
        };
        let k = match a.kind {
            AccessKind::InstrFetch => 'I',
            AccessKind::Load => 'L',
            AccessKind::Store => 'S',
        };
        writeln!(writer, "{m} {k} {:x} {:x}", a.addr, a.pc)?;
    }
    Ok(())
}

/// Reads the text format produced by [`write_text`].
///
/// Blank lines and lines starting with `#` are ignored.
///
/// # Errors
///
/// Returns [`ReadTraceError::Corrupt`] on malformed lines.
pub fn read_text<R: BufRead>(reader: R) -> Result<Vec<MemoryAccess>, ReadTraceError> {
    let mut out = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_ascii_whitespace();
        let mode = match parts.next() {
            Some("U") => Mode::User,
            Some("K") => Mode::Kernel,
            _ => return Err(ReadTraceError::Corrupt("bad mode field")),
        };
        let kind = match parts.next() {
            Some("I") => AccessKind::InstrFetch,
            Some("L") => AccessKind::Load,
            Some("S") => AccessKind::Store,
            _ => return Err(ReadTraceError::Corrupt("bad kind field")),
        };
        let addr = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(ReadTraceError::Corrupt("bad address field"))?;
        let pc = parts
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or(ReadTraceError::Corrupt("bad pc field"))?;
        if parts.next().is_some() {
            return Err(ReadTraceError::Corrupt("trailing fields"));
        }
        out.push(MemoryAccess::new(addr, pc, kind, mode));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppProfile;
    use crate::generator::TraceGenerator;

    fn sample_trace(n: usize) -> Vec<MemoryAccess> {
        TraceGenerator::new(&AppProfile::browser(), 3)
            .take(n)
            .collect()
    }

    #[test]
    fn binary_roundtrip() {
        let trace = sample_trace(10_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, trace.iter().copied()).expect("write");
        let back = read_binary(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_is_compact() {
        let trace = sample_trace(10_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, trace.iter().copied()).expect("write");
        // Naive encoding would be 17+ bytes/record; delta varints should
        // be well under that on locality-rich traces.
        let per_record = buf.len() as f64 / trace.len() as f64;
        assert!(per_record < 14.0, "encoding too large: {per_record} B/rec");
    }

    #[test]
    fn empty_trace_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, std::iter::empty()).expect("write");
        assert_eq!(buf.len(), 5);
        let back = read_binary(buf.as_slice()).expect("read");
        assert!(back.is_empty());
    }

    #[test]
    fn text_roundtrip() {
        let trace = sample_trace(2000);
        let mut buf = Vec::new();
        write_text(&mut buf, trace.iter().copied()).expect("write");
        let back = read_text(buf.as_slice()).expect("read");
        assert_eq!(back, trace);
    }

    #[test]
    fn text_ignores_comments_and_blanks() {
        let input = "# comment\n\nU L 40 8\n";
        let trace = read_text(input.as_bytes()).expect("read");
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].addr, 0x40);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_binary(&b"NOPE\x01"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic(_)));
    }

    #[test]
    fn bad_version_is_rejected() {
        let err = read_binary(&b"MOCA\xff"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadVersion(0xff)));
    }

    #[test]
    fn corrupt_text_is_rejected() {
        assert!(read_text(&b"X L 40 8\n"[..]).is_err());
        assert!(read_text(&b"U Q 40 8\n"[..]).is_err());
        assert!(read_text(&b"U L zz 8\n"[..]).is_err());
        assert!(read_text(&b"U L 40\n"[..]).is_err());
        assert!(read_text(&b"U L 40 8 9\n"[..]).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).expect("write");
            let back = read_varint(&mut buf.as_slice()).expect("read");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = ReadTraceError::Corrupt("bad mode field");
        assert!(e.to_string().contains("bad mode field"));
    }

    #[test]
    fn corruption_classes_and_exit_codes_are_distinct() {
        let cases = [
            (ReadTraceError::BadMagic(*b"XXXX"), CorruptionClass::Magic),
            (
                ReadTraceError::BadFileMagic(*b"XXXXXXXX"),
                CorruptionClass::Magic,
            ),
            (ReadTraceError::BadVersion(9), CorruptionClass::Version),
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
                ReadTraceError::Io(io::Error::other("boom")),
                CorruptionClass::Other,
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
