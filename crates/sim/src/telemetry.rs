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
//! Producers emit [`Event`]s and bump named counters through a
//! [`Recorder`]. Two recorders exist:
//!
//! * [`NullRecorder`] — every call is a no-op and [`Recorder::is_enabled`]
//!   is `false`. Hot paths guard event *construction* behind
//!   [`enabled`] (a single relaxed atomic load), so the disabled
//!   pipeline stays branch-predictable and allocation-free. The
//!   `bench_guard` thresholds in CI prove the compiled-in-but-disabled
//!   cost is below measurement noise.
//! * [`JsonlRecorder`] — buffers events in memory and writes them as
//!   one self-describing JSON object per line (see the schema below).
//!
//! The process-global recorder (installed once by a binary via
//! [`install`]) is enum-dispatched between exactly those two states:
//! until `install` runs, [`enabled`] is `false` and every hook in the
//! engine reduces to one load-and-branch.
//!
//! # Event schema
//!
//! Every line is a flat JSON object with `"v":1` and a `"kind"`:
//!
//! | kind           | fields                                                       | deterministic? |
//! |----------------|--------------------------------------------------------------|----------------|
//! | `point`        | `scope app design index total trace_gen_ns sim_ns energy_ns` | yes            |
//! | `checkpoint`   | `scope event key` (`event` = `append` \| `replay`)           | yes            |
//! | `mrc`          | `scope app grid max_ways pruned simulated profile_ns`        | yes            |
//! | `counter`      | `name value` (totals, emitted at drain time)                 | yes            |
//! | `worker_start` | `scope pool worker jobs`                                     | scheduling     |
//! | `worker_stop`  | `scope pool worker jobs items busy_ns`                       | scheduling     |
//! | `memo`         | `runs used_bytes cap_bytes hits misses rejected front_end_refs` | scheduling  |
//! | `trace_io`     | `files chunks_decoded bytes_read decode_ns checksum_verifies decode_errors` | scheduling |
//!
//! # Determinism contract
//!
//! With timing fields (every key ending in `_ns`, see [`mask_timing`])
//! masked and scheduling-dependent kinds ([`is_scheduling_kind`])
//! filtered out, the drained stream is **byte-identical for every
//! `--jobs` value** — the same discipline the engine applies to report
//! output. Two mechanisms make that hold:
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
use std::sync::{Mutex, OnceLock, PoisonError};

/// One telemetry event, before scope-stamping and rendering.
///
/// Constructed by the engine's hooks (and, in tests, by hand); see the
/// [module docs](self) for the rendered schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One sweep point's per-stage wall-time split.
    Point {
        /// Workload (app profile) name.
        app: String,
        /// Design label ([`moca_core::L2Design::label`]).
        design: String,
        /// Sweep-order index of the point (stable across job counts).
        index: u32,
        /// Number of points in the sweep this point belongs to.
        total: u32,
        /// Wall time spent generating (or fetching) the shared trace
        /// for this point's stream. A lane group's shared front-end
        /// time is carried by its first completed point and the others
        /// carry 0, so a sum over points counts it once.
        trace_gen_ns: u64,
        /// Wall time spent inside [`crate::System::run_batch`].
        sim_ns: u64,
        /// Wall time spent in [`crate::System::finish`] (energy
        /// finalization and report assembly).
        energy_ns: u64,
    },
    /// A worker thread entered a parallel pool.
    WorkerStart {
        /// Pool label (currently always `parallel_map`).
        pool: &'static str,
        /// Worker index within the pool.
        worker: u32,
        /// Workers spawned by this pool.
        jobs: u32,
    },
    /// A worker thread left a parallel pool.
    WorkerStop {
        /// Pool label (currently always `parallel_map`).
        pool: &'static str,
        /// Worker index within the pool.
        worker: u32,
        /// Workers spawned by this pool.
        jobs: u32,
        /// Work items this worker executed.
        items: u64,
        /// Wall time this worker spent executing items (utilization =
        /// `busy_ns` / pool wall time).
        busy_ns: u64,
    },
    /// A snapshot of [`crate::RunMemo`] counters plus the process's
    /// [`front_end_refs`](crate::front_end_refs).
    Memo {
        /// Runs currently cached.
        runs: u64,
        /// Bytes charged to the cached runs.
        used_bytes: u64,
        /// Memo bound in bytes.
        cap_bytes: u64,
        /// Replays served from a cached run.
        hits: u64,
        /// Replays that filtered the stream themselves.
        misses: u64,
        /// Built runs not cached because the memo was full.
        rejected: u64,
        /// References generated or decoded and L1-filtered by any front
        /// end of the process.
        front_end_refs: u64,
    },
    /// A snapshot of [`crate::TraceRegistry`] file-replay counters.
    ///
    /// Scheduling-dependent like `memo`: how many chunks are decoded
    /// from file (vs served from a cached run) depends on which
    /// stream reaches each chunk first across worker threads.
    TraceIo {
        /// Compiled trace files registered.
        files: u64,
        /// Chunks decoded from files.
        chunks_decoded: u64,
        /// Bytes read from trace files.
        bytes_read: u64,
        /// Wall time spent reading + decoding.
        decode_ns: u64,
        /// Chunk checksums verified successfully.
        checksum_verifies: u64,
        /// Failed chunk decodes (fell back to generation).
        decode_errors: u64,
    },
    /// A checkpoint-journal append or replay.
    Checkpoint {
        /// `"append"` (freshly recorded) or `"replay"` (served from the
        /// journal without simulating).
        event: &'static str,
        /// The journal key (experiment or search-generation identity).
        key: String,
    },
    /// A named counter total (synthesized at drain time from
    /// [`Recorder::add`] accumulations).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Accumulated value.
        value: u64,
    },
    /// One MRC-based sweep-pruning decision (see [`mod@crate::sweep`]).
    ///
    /// Deterministic: the profiler consumes the shared trace stream, so
    /// the grid/pruned/simulated split is identical for every `--jobs`
    /// value; only `profile_ns` is timing (and masked accordingly).
    Mrc {
        /// Workload (app profile) name.
        app: String,
        /// LRU grid points scored by the single-pass profiler.
        grid: u32,
        /// Largest way count the profiler tracked.
        max_ways: u32,
        /// Grid points pruned (skipped without simulation).
        pruned: u32,
        /// Grid points that survived to full simulation.
        simulated: u32,
        /// Wall time of the profiling pass (stream + stack updates).
        profile_ns: u64,
    },
    /// One generation of a multi-objective design-space search
    /// (see `moca-search`).
    ///
    /// Deterministic apart from `eval_ns`: population, front, and the
    /// pruned/simulated split are identical for every `--jobs` value.
    Search {
        /// Generation index (0-based).
        generation: u32,
        /// Population size evaluated this generation.
        population: u32,
        /// Size of the non-dominated front after selection.
        front_size: u32,
        /// Normalized hypervolume of the front, in parts per thousand.
        hv_permille: u64,
        /// Candidate evaluations served by the analytic MRC fast path
        /// (full simulations avoided).
        evals_pruned: u32,
        /// Candidate evaluations that ran a full timing simulation.
        evals_simulated: u32,
        /// Candidate evaluations served from the cross-generation
        /// eval cache (duplicate genomes).
        evals_cached: u32,
        /// Wall time of this generation's evaluation fan-out.
        eval_ns: u64,
    },
}

impl Event {
    /// Shorthand constructor for [`Event::Point`].
    #[allow(clippy::too_many_arguments)]
    pub fn point(
        app: &str,
        design: &str,
        index: usize,
        total: usize,
        trace_gen_ns: u64,
        sim_ns: u64,
        energy_ns: u64,
    ) -> Self {
        Event::Point {
            app: app.to_string(),
            design: design.to_string(),
            index: index as u32,
            total: total as u32,
            trace_gen_ns,
            sim_ns,
            energy_ns,
        }
    }

    /// The event's `kind` string as rendered.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Point { .. } => "point",
            Event::WorkerStart { .. } => "worker_start",
            Event::WorkerStop { .. } => "worker_stop",
            Event::Memo { .. } => "memo",
            Event::TraceIo { .. } => "trace_io",
            Event::Checkpoint { .. } => "checkpoint",
            Event::Counter { .. } => "counter",
            Event::Mrc { .. } => "mrc",
            Event::Search { .. } => "search",
        }
    }

    /// Sort rank grouping kinds within one scope epoch (points first,
    /// then checkpoints, then scheduling events, counters last).
    fn kind_rank(&self) -> u8 {
        match self {
            Event::Point { .. } => 0,
            Event::Checkpoint { .. } => 1,
            Event::Memo { .. } => 2,
            Event::TraceIo { .. } => 3,
            Event::WorkerStart { .. } => 4,
            Event::WorkerStop { .. } => 5,
            Event::Counter { .. } => 6,
            // Appended rank: existing ranks are pinned by drained-stream
            // fixtures, so new kinds sort after them.
            Event::Mrc { .. } => 7,
            Event::Search { .. } => 8,
        }
    }

    /// Renders the event as one JSON line (no trailing newline).
    ///
    /// With `mask` set, every `_ns` field renders as `0` — the
    /// canonical form compared by the determinism suite.
    fn render(&self, scope: &str, mask: bool) -> String {
        let mut s = String::with_capacity(96);
        let ns = |v: u64| if mask { 0 } else { v };
        s.push_str("{\"v\":1,\"kind\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            Event::Point {
                app,
                design,
                index,
                total,
                trace_gen_ns,
                sim_ns,
                energy_ns,
            } => {
                push_str_field(&mut s, "scope", scope);
                push_str_field(&mut s, "app", app);
                push_str_field(&mut s, "design", design);
                push_num_field(&mut s, "index", u64::from(*index));
                push_num_field(&mut s, "total", u64::from(*total));
                push_num_field(&mut s, "trace_gen_ns", ns(*trace_gen_ns));
                push_num_field(&mut s, "sim_ns", ns(*sim_ns));
                push_num_field(&mut s, "energy_ns", ns(*energy_ns));
            }
            Event::WorkerStart { pool, worker, jobs } => {
                push_str_field(&mut s, "scope", scope);
                push_str_field(&mut s, "pool", pool);
                push_num_field(&mut s, "worker", u64::from(*worker));
                push_num_field(&mut s, "jobs", u64::from(*jobs));
            }
            Event::WorkerStop {
                pool,
                worker,
                jobs,
                items,
                busy_ns,
            } => {
                push_str_field(&mut s, "scope", scope);
                push_str_field(&mut s, "pool", pool);
                push_num_field(&mut s, "worker", u64::from(*worker));
                push_num_field(&mut s, "jobs", u64::from(*jobs));
                push_num_field(&mut s, "items", *items);
                push_num_field(&mut s, "busy_ns", ns(*busy_ns));
            }
            Event::Memo {
                runs,
                used_bytes,
                cap_bytes,
                hits,
                misses,
                rejected,
                front_end_refs,
            } => {
                push_num_field(&mut s, "runs", *runs);
                push_num_field(&mut s, "used_bytes", *used_bytes);
                push_num_field(&mut s, "cap_bytes", *cap_bytes);
                push_num_field(&mut s, "hits", *hits);
                push_num_field(&mut s, "misses", *misses);
                push_num_field(&mut s, "rejected", *rejected);
                push_num_field(&mut s, "front_end_refs", *front_end_refs);
            }
            Event::TraceIo {
                files,
                chunks_decoded,
                bytes_read,
                decode_ns,
                checksum_verifies,
                decode_errors,
            } => {
                push_num_field(&mut s, "files", *files);
                push_num_field(&mut s, "chunks_decoded", *chunks_decoded);
                push_num_field(&mut s, "bytes_read", *bytes_read);
                push_num_field(&mut s, "decode_ns", ns(*decode_ns));
                push_num_field(&mut s, "checksum_verifies", *checksum_verifies);
                push_num_field(&mut s, "decode_errors", *decode_errors);
            }
            Event::Checkpoint { event, key } => {
                push_str_field(&mut s, "scope", scope);
                push_str_field(&mut s, "event", event);
                push_str_field(&mut s, "key", key);
            }
            Event::Counter { name, value } => {
                push_str_field(&mut s, "name", name);
                push_num_field(&mut s, "value", *value);
            }
            Event::Mrc {
                app,
                grid,
                max_ways,
                pruned,
                simulated,
                profile_ns,
            } => {
                push_str_field(&mut s, "scope", scope);
                push_str_field(&mut s, "app", app);
                push_num_field(&mut s, "grid", u64::from(*grid));
                push_num_field(&mut s, "max_ways", u64::from(*max_ways));
                push_num_field(&mut s, "pruned", u64::from(*pruned));
                push_num_field(&mut s, "simulated", u64::from(*simulated));
                push_num_field(&mut s, "profile_ns", ns(*profile_ns));
            }
            Event::Search {
                generation,
                population,
                front_size,
                hv_permille,
                evals_pruned,
                evals_simulated,
                evals_cached,
                eval_ns,
            } => {
                push_str_field(&mut s, "scope", scope);
                push_num_field(&mut s, "generation", u64::from(*generation));
                push_num_field(&mut s, "population", u64::from(*population));
                push_num_field(&mut s, "front_size", u64::from(*front_size));
                push_num_field(&mut s, "hv_permille", *hv_permille);
                push_num_field(&mut s, "evals_pruned", u64::from(*evals_pruned));
                push_num_field(&mut s, "evals_simulated", u64::from(*evals_simulated));
                push_num_field(&mut s, "evals_cached", u64::from(*evals_cached));
                push_num_field(&mut s, "eval_ns", ns(*eval_ns));
            }
        }
        s.push('}');
        s
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    json_escape_into(s, value);
    s.push('"');
}

fn push_num_field(s: &mut String, key: &str, value: u64) {
    let _ = write!(s, ",\"{key}\":{value}");
}

/// Appends `value` to `s` with JSON string escaping.
fn json_escape_into(s: &mut String, value: &str) {
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
}

/// `true` for event kinds whose presence or payload legitimately
/// depends on thread scheduling (`worker_start`, `worker_stop`,
/// `memo`, `trace_io`) — the determinism suite filters these before
/// comparing streams across job counts.
pub fn is_scheduling_kind(kind: &str) -> bool {
    matches!(kind, "worker_start" | "worker_stop" | "memo" | "trace_io")
}

/// A telemetry sink.
///
/// All methods take `&self`: recorders are shared across worker
/// threads. Implementations must be cheap enough to call from the
/// sweep hot path — and callers must still guard event construction
/// behind [`Recorder::is_enabled`] (or the global [`enabled`]) so the
/// disabled path allocates nothing.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// `false` when every call is a no-op (hot paths skip event
    /// construction entirely).
    fn is_enabled(&self) -> bool;
    /// Records one event.
    fn record(&self, event: Event);
    /// Adds `delta` to the named counter (totals are emitted as
    /// `counter` events at drain time).
    fn add(&self, counter: &'static str, delta: u64);
    /// Sets the current scope label (e.g. the running experiment id);
    /// subsequent events are stamped with it.
    fn set_scope(&self, scope: &str);
}

/// The no-op recorder: nothing is buffered, nothing is allocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: Event) {}
    fn add(&self, _counter: &'static str, _delta: u64) {}
    fn set_scope(&self, _scope: &str) {}
}

/// An event stamped with the scope that was current when it arrived.
#[derive(Debug, Clone)]
struct Stamped {
    /// Monotone per-recorder scope generation (bumped by
    /// [`Recorder::set_scope`]); major sort key, so events group by the
    /// serial phase that produced them regardless of worker arrival
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
}

/// A buffered recorder that drains to JSON-lines.
///
/// Events accumulate in memory; [`JsonlRecorder::write_jsonl`] sorts
/// them into the canonical deterministic order and writes one JSON
/// object per line. Buffering (rather than streaming) is what lets the
/// drained stream be independent of worker arrival order.
///
/// # Examples
///
/// ```
/// use moca_sim::telemetry::{Event, JsonlRecorder, Recorder};
///
/// let rec = JsonlRecorder::new();
/// rec.set_scope("F3");
/// rec.record(Event::point("music", "shared-sram-16", 0, 2, 10, 20, 5));
/// rec.add("sim_refs", 8192);
///
/// let mut out = Vec::new();
/// rec.write_jsonl(&mut out).unwrap();
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("\"kind\":\"point\""));
/// assert!(text.contains("\"kind\":\"counter\""));
/// ```
#[derive(Debug, Default)]
pub struct JsonlRecorder {
    inner: Mutex<JsonlInner>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl JsonlRecorder {
    /// An empty recorder with scope `""`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events buffered so far (counters not included).
    pub fn len(&self) -> usize {
        self.lock_inner().events.len()
    }

    /// `true` when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.lock_inner().events.is_empty()
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, JsonlInner> {
        // Buffer mutations are single push/assign operations that leave
        // the state consistent even if a panicking thread held the lock.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut lines: Vec<(u32, u8, String, String)> = {
            let inner = self.lock_inner();
            inner
                .events
                .iter()
                .map(|st| {
                    (
                        st.epoch,
                        st.event.kind_rank(),
                        st.event.render(&st.scope, true),
                        st.event.render(&st.scope, false),
                    )
                })
                .collect()
        };
        {
            let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
            for (name, value) in counters.iter() {
                let ev = Event::Counter { name, value: *value };
                lines.push((u32::MAX, ev.kind_rank(), ev.render("", true), ev.render("", false)));
            }
        }
        lines.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        let n = lines.len();
        for (_, _, _, rendered) in lines {
            writeln!(w, "{rendered}")?;
        }
        Ok(n)
    }
}

impl Recorder for JsonlRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let mut inner = self.lock_inner();
        let epoch = inner.epoch;
        let scope = inner.scope.clone();
        inner.events.push(Stamped { epoch, scope, event });
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        *counters.entry(counter).or_insert(0) += delta;
    }

    fn set_scope(&self, scope: &str) {
        let mut inner = self.lock_inner();
        inner.epoch += 1;
        inner.scope.clear();
        inner.scope.push_str(scope);
    }
}

/// The process-global recorder: [`NullRecorder`] semantics until
/// [`install`] swaps in the [`JsonlRecorder`].
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

/// A parsed JSON scalar from a telemetry line.
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
            Err(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            ))
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

/// Re-renders `line` with every `_ns`-suffixed field zeroed — the
/// canonical form the determinism suite compares across job counts.
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
    let mut out = String::with_capacity(line.len());
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(&mut out, key);
        out.push_str("\":");
        match value {
            JsonValue::Num(n) => {
                let n = if key.ends_with("_ns") { 0 } else { *n };
                let _ = write!(out, "{n}");
            }
            JsonValue::Str(s) => {
                out.push('"');
                json_escape_into(&mut out, s);
                out.push('"');
            }
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    Ok(out)
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

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let rec = NullRecorder;
        assert!(!rec.is_enabled());
        rec.record(Event::point("a", "d", 0, 1, 1, 2, 3));
        rec.add("x", 1);
        rec.set_scope("s");
    }

    #[test]
    fn every_rendered_line_parses_and_roundtrips() {
        let rec = JsonlRecorder::new();
        rec.set_scope("F3");
        rec.record(Event::point("music", "evil \"design\",\nwith\tjunk", 3, 8, 10, 20, 5));
        rec.record(Event::WorkerStart {
            pool: "parallel_map",
            worker: 0,
            jobs: 2,
        });
        rec.record(Event::WorkerStop {
            pool: "parallel_map",
            worker: 0,
            jobs: 2,
            items: 5,
            busy_ns: 1234,
        });
        rec.record(Event::Memo {
            runs: 3,
            used_bytes: 4 << 20,
            cap_bytes: 96 << 20,
            hits: 10,
            misses: 4,
            rejected: 0,
            front_end_refs: 300_000,
        });
        rec.record(Event::Checkpoint {
            event: "append",
            key: "exp:F3:Quick:000000005eed2015".to_string(),
        });
        rec.add("sim_refs", 8192);

        let lines = drained(&rec);
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let fields = parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(fields[0], ("v".to_string(), JsonValue::Num(1)));
            assert!(matches!(fields[1].1, JsonValue::Str(_)), "kind is a string");
        }
        // The hostile design label survives escape → parse byte-exactly.
        let point = lines.iter().find(|l| l.contains("\"kind\":\"point\"")).expect("point");
        let fields = parse_line(point).expect("parse");
        let design = fields
            .iter()
            .find(|(k, _)| k == "design")
            .map(|(_, v)| v.clone())
            .expect("design field");
        assert_eq!(
            design,
            JsonValue::Str("evil \"design\",\nwith\tjunk".to_string())
        );
    }

    #[test]
    fn drain_order_is_independent_of_arrival_order() {
        let make = |flip: bool| {
            let rec = JsonlRecorder::new();
            rec.set_scope("E1");
            let a = Event::point("music", "d1", 0, 2, 11, 22, 33);
            let b = Event::point("music", "d2", 1, 2, 44, 55, 66);
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
            lines.iter().map(|l| mask_timing(l).expect("mask")).collect()
        };
        assert_eq!(masked(make(false)), masked(make(true)));
    }

    #[test]
    fn scope_epochs_keep_serial_phases_in_emission_order() {
        let rec = JsonlRecorder::new();
        rec.set_scope("Z-late-alphabetically-first-serially");
        rec.record(Event::point("a", "d", 0, 1, 1, 1, 1));
        rec.set_scope("A-early-alphabetically-second-serially");
        rec.record(Event::point("a", "d", 0, 1, 1, 1, 1));
        let lines = drained(&rec);
        assert!(lines[0].contains("Z-late"), "first epoch first: {lines:?}");
        assert!(lines[1].contains("A-early"));
    }

    #[test]
    fn counters_accumulate_and_sort_last_by_name() {
        let rec = JsonlRecorder::new();
        rec.record(Event::point("a", "d", 0, 1, 1, 1, 1));
        rec.add("zeta", 1);
        rec.add("alpha", 2);
        rec.add("alpha", 3);
        let lines = drained(&rec);
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"name\":\"alpha\"") && lines[1].contains("\"value\":5"));
        assert!(lines[2].contains("\"name\":\"zeta\"") && lines[2].contains("\"value\":1"));
    }

    #[test]
    fn mask_timing_zeroes_only_ns_fields() {
        let rec = JsonlRecorder::new();
        rec.record(Event::point("music", "d", 2, 4, 111, 222, 333));
        let line = drained(&rec).remove(0);
        let masked = mask_timing(&line).expect("mask");
        assert!(masked.contains("\"trace_gen_ns\":0"));
        assert!(masked.contains("\"sim_ns\":0"));
        assert!(masked.contains("\"energy_ns\":0"));
        assert!(masked.contains("\"index\":2") && masked.contains("\"total\":4"));
        // Masking is idempotent.
        assert_eq!(mask_timing(&masked).expect("mask"), masked);
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
    fn scheduling_kind_classification_matches_schema() {
        for kind in ["worker_start", "worker_stop", "memo", "trace_io"] {
            assert!(is_scheduling_kind(kind));
        }
        for kind in ["point", "checkpoint", "counter", "mrc", "search"] {
            assert!(!is_scheduling_kind(kind));
        }
    }

    #[test]
    fn mrc_event_renders_parses_and_masks_profile_ns() {
        let rec = JsonlRecorder::new();
        rec.set_scope("M1");
        rec.record(Event::Mrc {
            app: "game".to_string(),
            grid: 24,
            max_ways: 24,
            pruned: 19,
            simulated: 5,
            profile_ns: 123_456,
        });
        let line = drained(&rec).remove(0);
        let fields = parse_line(&line).expect("mrc line parses");
        assert_eq!(
            fields[1],
            ("kind".to_string(), JsonValue::Str("mrc".to_string()))
        );
        assert!(line.contains("\"grid\":24"));
        assert!(line.contains("\"pruned\":19"));
        assert!(line.contains("\"simulated\":5"));
        assert!(line.contains("\"profile_ns\":123456"));
        let masked = mask_timing(&line).expect("mask");
        assert!(masked.contains("\"profile_ns\":0"));
        assert!(masked.contains("\"pruned\":19"), "{masked}");
    }

    #[test]
    fn search_event_renders_parses_and_masks_eval_ns() {
        let rec = JsonlRecorder::new();
        rec.set_scope("S1");
        rec.record(Event::Search {
            generation: 3,
            population: 16,
            front_size: 7,
            hv_permille: 412,
            evals_pruned: 9,
            evals_simulated: 4,
            evals_cached: 3,
            eval_ns: 98_765,
        });
        let line = drained(&rec).remove(0);
        let fields = parse_line(&line).expect("search line parses");
        assert_eq!(
            fields[1],
            ("kind".to_string(), JsonValue::Str("search".to_string()))
        );
        assert!(line.contains("\"scope\":\"S1\""));
        assert!(line.contains("\"generation\":3"));
        assert!(line.contains("\"front_size\":7"));
        assert!(line.contains("\"hv_permille\":412"));
        assert!(line.contains("\"evals_pruned\":9"));
        assert!(line.contains("\"eval_ns\":98765"));
        let masked = mask_timing(&line).expect("mask");
        assert!(masked.contains("\"eval_ns\":0"));
        assert!(masked.contains("\"hv_permille\":412"), "{masked}");
    }

    #[test]
    fn trace_io_renders_parses_and_masks_decode_ns() {
        let rec = JsonlRecorder::new();
        rec.record(Event::TraceIo {
            files: 4,
            chunks_decoded: 37,
            bytes_read: 123_456,
            decode_ns: 7_890,
            checksum_verifies: 37,
            decode_errors: 1,
        });
        let line = drained(&rec).remove(0);
        let fields = parse_line(&line).expect("trace_io line parses");
        assert_eq!(
            fields[1],
            ("kind".to_string(), JsonValue::Str("trace_io".to_string()))
        );
        assert!(line.contains("\"files\":4"));
        assert!(line.contains("\"chunks_decoded\":37"));
        assert!(line.contains("\"decode_ns\":7890"));
        let masked = mask_timing(&line).expect("mask");
        assert!(masked.contains("\"decode_ns\":0"));
        assert!(masked.contains("\"bytes_read\":123456"), "{masked}");
    }

    #[test]
    fn write_jsonl_is_repeatable() {
        let rec = JsonlRecorder::new();
        rec.record(Event::point("a", "d", 0, 1, 9, 9, 9));
        let first = drained(&rec);
        let second = drained(&rec);
        assert_eq!(first, second, "draining must not consume the buffer");
    }
}
