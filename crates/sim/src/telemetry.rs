//! Zero-dependency observability for the sweep engine.
//!
//! The engine runs for seconds (`repro --quick`) to minutes (a full
//! claims run) and, without this module, is a black box: the only
//! introspection is the one-line memo footer. Telemetry makes the hot
//! pipeline attributable — per sweep point, where did the time go
//! (trace generation vs cache simulation vs energy accounting)? how
//! busy were the workers? did the filtered-run memo help? — the same
//! per-phase profiling DVFS/reconfiguration studies rely on before
//! optimizing anything.
//!
//! # Model
//!
//! Every record has one shape: an [`Event`] is a [`Kind`] plus an
//! ordered list of named [`JsonValue`] fields, built at its single
//! emitter with [`Event::new`], [`Event::str`] and [`Event::num`]. The
//! [`Kind`] table holds each kind's name, drain rank, and whether its
//! lines carry a `scope` and depend on thread scheduling; the emitters
//! document their fields.
//!
//! The process-global [`JsonlRecorder`] is installed once by a binary
//! via [`install`]. Until then [`enabled`] is `false` (a single relaxed
//! atomic load), and hot paths guard event *construction* behind it,
//! so the disabled pipeline stays branch-predictable and
//! allocation-free. The `bench_guard` thresholds in CI prove the
//! compiled-in-but-disabled cost is below measurement noise.
//!
//! # Wire format
//!
//! Every line is a flat JSON object: `"v":1`, `"kind"`, `"scope"` for
//! the scoped kinds, then the event's fields in emission order.
//!
//! # Determinism contract
//!
//! With timing fields (every number under a key ending in `_ns`, see
//! [`mask_timing`]) masked and scheduling-dependent kinds
//! ([`Kind::is_scheduling`]) filtered out, the drained stream is
//! **byte-identical for every `--jobs` value** — the same discipline
//! the engine applies to report output. Two mechanisms make that hold:
//!
//! * events carry stable identities (sweep-order point index, journal
//!   key), never worker or arrival order;
//! * [`JsonlRecorder::write_jsonl`] sorts the buffer by
//!   `(scope epoch, kind, masked rendering)` before writing, so the
//!   arrival interleaving of parallel workers cannot leak into the
//!   output.
//!
//! Scheduling-dependent kinds are emitted for humans and profilers,
//! not for diffing: the number of workers, the memo hit pattern, and
//! the grouping of designs over threads legitimately change with
//! `--jobs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The kind of an [`Event`]. Declaration order is the drain rank that
/// groups kinds within one scope epoch (see [`JsonlRecorder::write_jsonl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// One sweep point's per-stage wall-time split (lock-step executor).
    Point,
    /// A checkpoint-journal append or replay ([`crate::Journal`]).
    Checkpoint,
    /// End-of-run snapshot of [`crate::RunMemo`] counters (`repro`).
    Memo,
    /// End-of-run snapshot of [`crate::TraceRegistry`] replay counters
    /// ([`crate::TraceIoStats::to_event`]). How many chunks are decoded
    /// from file depends on which stream reaches each chunk first.
    TraceIo,
    /// A worker thread entered a [`crate::parallel_map`] pool.
    WorkerStart,
    /// A worker thread left a [`crate::parallel_map`] pool.
    WorkerStop,
    /// A named counter total, synthesized at drain time from
    /// [`JsonlRecorder::add`] accumulations.
    Counter,
    /// One MRC-based sweep-pruning decision ([`crate::sweep_pruned`]).
    Mrc,
    /// One generation of the `moca-search` design-space search.
    Search,
}

impl Kind {
    /// Every kind, in drain order.
    const ALL: [Kind; 9] = [
        Kind::Point,
        Kind::Checkpoint,
        Kind::Memo,
        Kind::TraceIo,
        Kind::WorkerStart,
        Kind::WorkerStop,
        Kind::Counter,
        Kind::Mrc,
        Kind::Search,
    ];

    /// Each kind's facts, in one place: `(name, carries scope,
    /// scheduling-dependent)`.
    const fn facts(self) -> (&'static str, bool, bool) {
        match self {
            Kind::Point => ("point", true, false),
            Kind::Checkpoint => ("checkpoint", true, false),
            Kind::Memo => ("memo", false, true),
            Kind::TraceIo => ("trace_io", false, true),
            Kind::WorkerStart => ("worker_start", true, true),
            Kind::WorkerStop => ("worker_stop", true, true),
            Kind::Counter => ("counter", false, false),
            Kind::Mrc => ("mrc", true, false),
            Kind::Search => ("search", true, false),
        }
    }

    /// The `kind` string as rendered.
    pub const fn name(self) -> &'static str {
        self.facts().0
    }

    /// `true` when the kind's lines carry the `scope` field.
    const fn scoped(self) -> bool {
        self.facts().1
    }

    /// `true` for kinds whose presence or payload legitimately depends
    /// on thread scheduling — the determinism suite filters these
    /// before comparing streams across job counts.
    pub const fn is_scheduling(self) -> bool {
        self.facts().2
    }

    /// The kind rendered as `name`, if any.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One telemetry event, before scope-stamping and rendering: a kind
/// and its fields in wire order.
///
/// # Examples
///
/// ```
/// use moca_sim::telemetry::{Event, Kind};
///
/// let ev = Event::new(Kind::Counter).str("name", "sim_refs").num("value", 8192);
/// assert_eq!(ev.kind.name(), "counter");
/// assert_eq!(ev.fields.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What the event records.
    pub kind: Kind,
    /// Named values, rendered in this order after `v`, `kind` and
    /// (for scoped kinds) `scope`.
    pub fields: Vec<(&'static str, JsonValue)>,
}

impl Event {
    /// An event of `kind` with no fields yet.
    pub fn new(kind: Kind) -> Self {
        Event {
            kind,
            fields: Vec::with_capacity(8),
        }
    }

    /// Appends a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, JsonValue::Str(value.into())));
        self
    }

    /// Appends a number field. Keys ending in `_ns` are wall times,
    /// masked in the canonical form.
    pub fn num(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, JsonValue::Num(value)));
        self
    }

    /// Renders the event as one JSON line (no trailing newline); with
    /// `mask`, in the canonical form compared by the determinism suite.
    fn render(&self, scope: &str, mask: bool) -> String {
        let head = [
            ("v", JsonValue::Num(1)),
            ("kind", JsonValue::Str(self.kind.name().to_string())),
            ("scope", JsonValue::Str(scope.to_string())),
        ];
        let head = &head[..if self.kind.scoped() { 3 } else { 2 }];
        let fields = head.iter().chain(&self.fields);
        render_object(fields.map(|(k, v)| (*k, v)), mask)
    }
}

/// Renders `fields` as one flat JSON object. With `mask`, every number
/// under a key ending in `_ns` renders as `0`.
fn render_object<'a>(fields: impl Iterator<Item = (&'a str, &'a JsonValue)>, mask: bool) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    for (i, (key, value)) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, key);
        out.push(':');
        match value {
            JsonValue::Str(s) => push_json_str(&mut out, s),
            JsonValue::Num(n) => {
                let n = if mask && key.ends_with("_ns") { 0 } else { *n };
                let _ = write!(out, "{n}");
            }
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    out
}

/// Appends `value` to `s` as a quoted, escaped JSON string.
fn push_json_str(s: &mut String, value: &str) {
    s.push('"');
    for c in value.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// An event stamped with the scope that was current when it arrived.
#[derive(Debug, Clone)]
struct Stamped {
    /// Monotone per-recorder scope generation (bumped by
    /// [`JsonlRecorder::set_scope`]); major sort key, so events group by
    /// the serial phase that produced them regardless of worker arrival
    /// order.
    epoch: u32,
    scope: String,
    event: Event,
}

#[derive(Debug, Default)]
struct JsonlInner {
    epoch: u32,
    scope: String,
    events: Vec<Stamped>,
    counters: BTreeMap<&'static str, u64>,
}

/// A buffered recorder that drains to JSON-lines.
///
/// Events accumulate in memory; [`JsonlRecorder::write_jsonl`] sorts
/// them into the canonical deterministic order and writes one JSON
/// object per line. Buffering (rather than streaming) is what lets the
/// drained stream be independent of worker arrival order. All methods
/// take `&self`: the recorder is shared across worker threads.
///
/// # Examples
///
/// ```
/// use moca_sim::telemetry::{Event, JsonlRecorder, Kind};
///
/// let rec = JsonlRecorder::new();
/// rec.set_scope("F3");
/// rec.record(Event::new(Kind::Checkpoint).str("event", "append").str("key", "exp:F3"));
/// rec.add("sim_refs", 8192);
///
/// let mut out = Vec::new();
/// rec.write_jsonl(&mut out).unwrap();
/// assert_eq!(
///     String::from_utf8(out).unwrap(),
///     "{\"v\":1,\"kind\":\"checkpoint\",\"scope\":\"F3\",\"event\":\"append\",\"key\":\"exp:F3\"}\n\
///      {\"v\":1,\"kind\":\"counter\",\"name\":\"sim_refs\",\"value\":8192}\n"
/// );
/// ```
#[derive(Debug, Default)]
pub struct JsonlRecorder {
    inner: Mutex<JsonlInner>,
}

impl JsonlRecorder {
    /// An empty recorder with scope `""`.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, JsonlInner> {
        // Buffer mutations are single push/assign operations that leave
        // the state consistent even if a panicking thread held the lock.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event, stamped with the current scope.
    pub fn record(&self, event: Event) {
        let mut inner = self.lock();
        let epoch = inner.epoch;
        let scope = inner.scope.clone();
        inner.events.push(Stamped {
            epoch,
            scope,
            event,
        });
    }

    /// Adds `delta` to the named counter (totals are emitted as
    /// `counter` events at drain time).
    pub fn add(&self, counter: &'static str, delta: u64) {
        *self.lock().counters.entry(counter).or_insert(0) += delta;
    }

    /// Sets the current scope label (e.g. the running experiment id);
    /// subsequent events are stamped with it.
    pub fn set_scope(&self, scope: &str) {
        let mut inner = self.lock();
        inner.epoch += 1;
        inner.scope.clear();
        inner.scope.push_str(scope);
    }

    /// Writes the buffered stream as JSON lines in canonical order:
    /// sorted by `(scope epoch, kind, masked rendering)`, with counter
    /// totals appended last. The buffer is left intact (draining twice
    /// writes the same bytes).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<usize> {
        let mut lines: Vec<(u32, Kind, String, String)> = {
            let inner = self.lock();
            let counters: Vec<Stamped> = (inner.counters.iter())
                .map(|(name, value)| Stamped {
                    epoch: u32::MAX,
                    scope: String::new(),
                    // Counter name and its accumulated total.
                    event: Event::new(Kind::Counter)
                        .str("name", *name)
                        .num("value", *value),
                })
                .collect();
            (inner.events.iter().chain(&counters))
                .map(|st| {
                    (
                        st.epoch,
                        st.event.kind,
                        st.event.render(&st.scope, true),
                        st.event.render(&st.scope, false),
                    )
                })
                .collect()
        };
        lines.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        let n = lines.len();
        for (_, _, _, rendered) in lines {
            writeln!(w, "{rendered}")?;
        }
        Ok(n)
    }
}

/// The process-global recorder, and whether [`install`] ran.
static GLOBAL: OnceLock<JsonlRecorder> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Installs (idempotently) the process-global [`JsonlRecorder`] and
/// returns it. Before the first call, every global hook is a no-op.
pub fn install() -> &'static JsonlRecorder {
    let rec = GLOBAL.get_or_init(JsonlRecorder::default);
    ENABLED.store(true, Ordering::Release);
    rec
}

/// The installed global recorder, if [`install`] ran.
pub fn global() -> Option<&'static JsonlRecorder> {
    if enabled() {
        GLOBAL.get()
    } else {
        None
    }
}

/// `true` once [`install`] ran. This is the only cost telemetry adds
/// to a disabled hot path: one relaxed atomic load and a
/// well-predicted branch, no allocation.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records `event` on the global recorder (no-op when disabled).
///
/// Callers on hot paths should guard event construction with
/// [`enabled`] so the disabled path never allocates the event.
#[inline]
pub fn record(event: Event) {
    if let Some(rec) = global() {
        rec.record(event);
    }
}

/// Adds to a named global counter (no-op when disabled).
#[inline]
pub fn add(counter: &'static str, delta: u64) {
    if let Some(rec) = global() {
        rec.add(counter, delta);
    }
}

/// Sets the global scope label (no-op when disabled).
pub fn set_scope(scope: &str) {
    if let Some(rec) = global() {
        rec.set_scope(scope);
    }
}

/// A JSON scalar: one field value of a telemetry line, as emitted and
/// as parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A non-negative integer (the only numbers telemetry emits).
    Num(u64),
    /// A JSON boolean.
    Bool(bool),
}

/// Parses one telemetry line as a flat JSON object, preserving field
/// order.
///
/// This is deliberately a *validator*, not a general JSON parser: it
/// accepts exactly the subset the emitter produces (one flat object of
/// string / unsigned-integer / boolean fields) and rejects everything
/// else — which is what the CI gate wants from "every emitted line
/// parses".
///
/// # Errors
///
/// Returns a human-readable description of the first syntax violation.
///
/// # Examples
///
/// ```
/// use moca_sim::telemetry::{parse_line, JsonValue};
///
/// let fields = parse_line(r#"{"v":1,"kind":"counter","name":"sim_refs","value":42}"#).unwrap();
/// assert_eq!(fields[0], ("v".to_string(), JsonValue::Num(1)));
/// assert_eq!(fields[3], ("value".to_string(), JsonValue::Num(42)));
/// assert!(parse_line("not json").is_err());
/// ```
pub fn parse_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let fields = p.object()?;
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
                text.parse::<u64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number at offset {start}: {e}"))
            }
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            _ => Err(format!("expected a value at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 character (the input is a &str,
                    // so boundaries are valid).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Re-renders `line` with every `_ns`-suffixed number zeroed — the
/// canonical form the determinism suite compares across job counts,
/// and the same rule the recorder's masked rendering applies.
///
/// # Errors
///
/// Returns [`parse_line`]'s error for a malformed line.
///
/// # Examples
///
/// ```
/// let masked = moca_sim::telemetry::mask_timing(
///     r#"{"v":1,"kind":"counter","name":"x_ns","value":7,"busy_ns":912}"#,
/// ).unwrap();
/// assert_eq!(masked, r#"{"v":1,"kind":"counter","name":"x_ns","value":7,"busy_ns":0}"#);
/// ```
pub fn mask_timing(line: &str) -> Result<String, String> {
    let fields = parse_line(line)?;
    Ok(render_object(
        fields.iter().map(|(k, v)| (k.as_str(), v)),
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(rec: &JsonlRecorder) -> Vec<String> {
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).expect("write");
        String::from_utf8(buf)
            .expect("utf8")
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// A `point` event as the lock-step executor emits it.
    fn point(app: &str, design: &str, index: u64, total: u64, ns: [u64; 3]) -> Event {
        Event::new(Kind::Point)
            .str("app", app)
            .str("design", design)
            .num("index", index)
            .num("total", total)
            .num("trace_gen_ns", ns[0])
            .num("sim_ns", ns[1])
            .num("energy_ns", ns[2])
    }

    const HOSTILE: &str = "evil \"design\",\nwith\tjunk\r\u{1f}\\ü";

    /// One event of every kind, with each emitter's field list.
    fn one_of_each() -> Vec<Event> {
        vec![
            point("music", HOSTILE, 3, 8, [10, 20, 5]),
            Event::new(Kind::Checkpoint)
                .str("event", "append")
                .str("key", "exp:F3:Quick:000000005eed2015"),
            Event::new(Kind::Memo)
                .num("runs", 3)
                .num("used_bytes", 4 << 20)
                .num("cap_bytes", 96 << 20)
                .num("hits", 10)
                .num("misses", 4)
                .num("rejected", 1)
                .num("front_end_refs", 300_000),
            Event::new(Kind::TraceIo)
                .num("files", 4)
                .num("chunks_decoded", 37)
                .num("bytes_read", 123_456)
                .num("decode_ns", 7_890)
                .num("checksum_verifies", 36)
                .num("decode_errors", 1),
            Event::new(Kind::WorkerStart)
                .str("pool", "parallel_map")
                .num("worker", 1)
                .num("jobs", 2),
            Event::new(Kind::WorkerStop)
                .str("pool", "parallel_map")
                .num("worker", 1)
                .num("jobs", 2)
                .num("items", 5)
                .num("busy_ns", 1234),
            Event::new(Kind::Mrc)
                .str("app", "game")
                .num("grid", 24)
                .num("max_ways", 16)
                .num("pruned", 19)
                .num("simulated", 5)
                .num("profile_ns", 123_456),
            Event::new(Kind::Search)
                .num("generation", 3)
                .num("population", 16)
                .num("front_size", 7)
                .num("hv_permille", 412)
                .num("evals_pruned", 9)
                .num("evals_simulated", 4)
                .num("evals_cached", 3)
                .num("eval_ns", 98_765),
        ]
    }

    /// The wire format `telemetry_report` and the benchmark harness
    /// read: every kind's whole line, field order included, and the
    /// drain order of kinds within one scope.
    #[test]
    fn every_kind_renders_its_golden_line() {
        let rec = JsonlRecorder::new();
        rec.set_scope("F3 \"q\"\\\u{1}é");
        // Reverse arrival order: the drain rank, not arrival, orders kinds.
        for ev in one_of_each().into_iter().rev() {
            rec.record(ev);
        }
        rec.add("sim_refs", 8192);
        let golden = [
            r#"{"v":1,"kind":"point","scope":"F3 \"q\"\\\u0001é","app":"music","design":"evil \"design\",\nwith\tjunk\r\u001f\\ü","index":3,"total":8,"trace_gen_ns":10,"sim_ns":20,"energy_ns":5}"#,
            r#"{"v":1,"kind":"checkpoint","scope":"F3 \"q\"\\\u0001é","event":"append","key":"exp:F3:Quick:000000005eed2015"}"#,
            r#"{"v":1,"kind":"memo","runs":3,"used_bytes":4194304,"cap_bytes":100663296,"hits":10,"misses":4,"rejected":1,"front_end_refs":300000}"#,
            r#"{"v":1,"kind":"trace_io","files":4,"chunks_decoded":37,"bytes_read":123456,"decode_ns":7890,"checksum_verifies":36,"decode_errors":1}"#,
            r#"{"v":1,"kind":"worker_start","scope":"F3 \"q\"\\\u0001é","pool":"parallel_map","worker":1,"jobs":2}"#,
            r#"{"v":1,"kind":"worker_stop","scope":"F3 \"q\"\\\u0001é","pool":"parallel_map","worker":1,"jobs":2,"items":5,"busy_ns":1234}"#,
            r#"{"v":1,"kind":"mrc","scope":"F3 \"q\"\\\u0001é","app":"game","grid":24,"max_ways":16,"pruned":19,"simulated":5,"profile_ns":123456}"#,
            r#"{"v":1,"kind":"search","scope":"F3 \"q\"\\\u0001é","generation":3,"population":16,"front_size":7,"hv_permille":412,"evals_pruned":9,"evals_simulated":4,"evals_cached":3,"eval_ns":98765}"#,
            r#"{"v":1,"kind":"counter","name":"sim_refs","value":8192}"#,
        ];
        assert_eq!(drained(&rec), golden);
        let timings = [
            ("trace_gen_ns\":10,", "trace_gen_ns\":0,"),
            ("sim_ns\":20,", "sim_ns\":0,"),
            ("energy_ns\":5}", "energy_ns\":0}"),
            ("decode_ns\":7890,", "decode_ns\":0,"),
            ("busy_ns\":1234}", "busy_ns\":0}"),
            ("profile_ns\":123456}", "profile_ns\":0}"),
            ("eval_ns\":98765}", "eval_ns\":0}"),
        ];
        for line in golden {
            let masked =
                (timings.iter()).fold(line.to_string(), |l, (from, to)| l.replace(from, to));
            assert_eq!(mask_timing(line).expect("mask"), masked);
            assert_eq!(mask_timing(&masked).expect("mask"), masked, "idempotent");
        }
        // The hostile design label survives escape → parse byte-exactly.
        let fields = parse_line(golden[0]).expect("parse");
        assert_eq!(fields[4], ("design".into(), JsonValue::Str(HOSTILE.into())));
    }

    #[test]
    fn kind_table_round_trips_names_and_classifies_scheduling() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("arena"), None);
        let scheduling: Vec<&str> = (Kind::ALL.into_iter())
            .filter(|k| k.is_scheduling())
            .map(Kind::name)
            .collect();
        assert_eq!(
            scheduling,
            ["memo", "trace_io", "worker_start", "worker_stop"]
        );
    }

    #[test]
    fn drain_order_is_independent_of_arrival_order() {
        let make = |flip: bool| {
            let rec = JsonlRecorder::new();
            rec.set_scope("E1");
            let a = point("music", "d1", 0, 2, [11, 22, 33]);
            let b = point("music", "d2", 1, 2, [44, 55, 66]);
            if flip {
                rec.record(b.clone());
                rec.record(a.clone());
            } else {
                rec.record(a);
                rec.record(b);
            }
            rec.add("sim_batches", 7);
            drained(&rec)
        };
        let masked = |lines: Vec<String>| -> Vec<String> {
            lines
                .iter()
                .map(|l| mask_timing(l).expect("mask"))
                .collect()
        };
        assert_eq!(masked(make(false)), masked(make(true)));
    }

    #[test]
    fn scope_epochs_keep_serial_phases_in_emission_order() {
        let rec = JsonlRecorder::new();
        rec.set_scope("Z-late-alphabetically-first-serially");
        rec.record(point("a", "d", 0, 1, [1, 1, 1]));
        rec.set_scope("A-early-alphabetically-second-serially");
        rec.record(point("a", "d", 0, 1, [1, 1, 1]));
        let lines = drained(&rec);
        assert!(lines[0].contains("Z-late"), "first epoch first: {lines:?}");
        assert!(lines[1].contains("A-early"));
    }

    #[test]
    fn counters_accumulate_and_sort_last_by_name() {
        let rec = JsonlRecorder::new();
        rec.record(point("a", "d", 0, 1, [1, 1, 1]));
        rec.add("zeta", 1);
        rec.add("alpha", 2);
        rec.add("alpha", 3);
        let lines = drained(&rec);
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"name\":\"alpha\"") && lines[1].contains("\"value\":5"));
        assert!(lines[2].contains("\"name\":\"zeta\"") && lines[2].contains("\"value\":1"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":[1]}",
            "{'a':1}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"bad \\x escape\"}",
        ] {
            assert!(parse_line(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn write_jsonl_is_repeatable() {
        let rec = JsonlRecorder::new();
        rec.record(point("a", "d", 0, 1, [9, 9, 9]));
        let first = drained(&rec);
        let second = drained(&rec);
        assert_eq!(first, second, "draining must not consume the buffer");
    }
}
