//! The resident sweep service: one executor thread draining the
//! admission queue, any number of connection handlers feeding it.
//!
//! # Threading model
//!
//! * **Connection handlers** ([`Server::serve_connection`], one per
//!   client connection) parse and validate requests, submit admitted
//!   jobs to the [`AdmissionQueue`], and forward the executor's reply
//!   stream back over the socket. Validation failures never consume a
//!   queue slot.
//! * **One executor thread** owns the checkpoint [`Journal`] and the
//!   shared design matrix of F1/F2/T2/F6, and runs jobs strictly one at a
//!   time (each job shards *internally* over the configured worker
//!   threads — the same `--jobs` sharding the one-shot binaries use, so
//!   results are byte-identical to theirs).
//!
//! # The durability contract
//!
//! A job's results are journaled **before** its reply is sent, and a
//! handler that loses its client keeps draining the reply channel
//! without writing. Together these mean a disconnect — or a SIGTERM
//! drain racing a disconnect — never cancels or loses an accepted
//! request: the work completes, the journal keeps it, and any later
//! identical request replays it byte-for-byte. The only thing that
//! cancels an admitted sweep is its own deadline.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use moca_core::L2Design;
use moca_sim::checkpoint::{
    experiment_key, point_key_with_source, try_sweep_checkpointed, write_checkpoint_csv, Journal,
};
use moca_sim::experiments::{self, Runner, MATRIX_IDS};
use moca_sim::parallel::{catch_panic, Jobs};
use moca_sim::telemetry::{Event, JsonlRecorder, Recorder};
use moca_sim::workloads::Scale;
use moca_sim::{CancelToken, TraceRegistry};
use moca_trace::AppProfile;

use crate::admission::AdmissionQueue;
use crate::proto::{self, FrameError, Request, Response};
use crate::spec;

/// Experiment ids the service accepts (the `repro` suite order).
pub const EXPERIMENT_IDS: [&str; 18] = [
    "F1", "F2", "F3", "F4", "F5", "T2", "F6", "F7", "F8", "A1", "A2", "A3", "A4", "A5", "A6",
    "A7", "M1", "S1",
];

/// Population bound for served searches (a protocol bound: the engine
/// itself has no ceiling).
pub const MAX_SEARCH_POPULATION: u32 = 64;

/// Generation bound for served searches.
pub const MAX_SEARCH_GENERATIONS: u32 = 64;

/// Most designs one sweep request may carry (a protocol bound, not an
/// engine one — larger studies split into multiple requests).
pub const MAX_SWEEP_DESIGNS: usize = 512;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Checkpoint directory: the journal here is the durable result
    /// cache, shared with `repro --checkpoint/--resume`.
    pub checkpoint_dir: std::path::PathBuf,
    /// Scale experiments run at (sweeps carry explicit refs).
    pub scale: Scale,
    /// Worker threads each job shards over internally.
    pub jobs: Jobs,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Per-client pending-job quota.
    pub client_quota: usize,
}

impl ServerConfig {
    /// Defaults: quick scale, serial jobs, a 16-deep queue with a
    /// 4-per-client quota, journaling under `dir`.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        Self {
            checkpoint_dir: dir.into(),
            scale: Scale::Quick,
            jobs: Jobs::SERIAL,
            queue_capacity: 16,
            client_quota: 4,
        }
    }
}

/// The work carried by one admitted job.
enum Work {
    Sweep {
        app: AppProfile,
        designs: Vec<L2Design>,
        seed: u64,
        refs: usize,
    },
    Exp {
        id: String,
        mrc: bool,
    },
    Search {
        cfg: moca_search::SearchConfig,
    },
}

/// One admitted job: its work, deadline token, and reply channel.
struct Job {
    id: u64,
    work: Work,
    cancel: CancelToken,
    reply: mpsc::Sender<Response>,
}

struct Inner {
    queue: AdmissionQueue<Job>,
    scale: Scale,
    jobs: Jobs,
    next_id: AtomicU64,
}

/// What the executor did over its lifetime (returned by
/// [`Server::join`] for the daemon's drain summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorSummary {
    /// Jobs executed (including replays and failures).
    pub completed: u64,
    /// Journal entries at exit.
    pub journal_entries: usize,
}

/// A running sweep service (see the [module docs](self)).
///
/// Wrap it in an [`Arc`] to share with connection handler threads; call
/// [`Server::begin_drain`] then [`Server::join`] to shut down.
pub struct Server {
    inner: Arc<Inner>,
    executor: Mutex<Option<JoinHandle<ExecutorSummary>>>,
}

impl Server {
    /// Opens (or creates) the journal under `config.checkpoint_dir` and
    /// starts the executor thread.
    ///
    /// # Errors
    ///
    /// Returns the journal's open error (unwritable directory, etc.).
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let journal = Journal::open(&config.checkpoint_dir)?;
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(config.queue_capacity, config.client_quota),
            scale: config.scale,
            jobs: config.jobs,
            next_id: AtomicU64::new(1),
        });
        let executor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("moca-serve-executor".to_string())
                .spawn(move || executor_loop(&inner, journal))?
        };
        Ok(Self {
            inner,
            executor: Mutex::new(Some(executor)),
        })
    }

    /// Jobs currently queued (not counting the one executing).
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// Stops admitting work. Already accepted jobs still run to
    /// completion; once the queue empties the executor exits.
    /// Idempotent.
    pub fn begin_drain(&self) {
        self.inner.queue.drain();
    }

    /// `true` once [`Server::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.inner.queue.is_draining()
    }

    /// Waits for the executor to finish draining and returns its
    /// summary. Call [`Server::begin_drain`] first or this blocks until
    /// someone does. Returns `None` if already joined (or the executor
    /// panicked).
    pub fn join(&self) -> Option<ExecutorSummary> {
        let handle = self
            .executor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()?;
        handle.join().ok()
    }

    /// Serves one client connection until it closes (or a protocol
    /// fault forces the server to close it).
    ///
    /// Generic over the stream so tests drive it with
    /// `UnixStream::pair` and in-memory chaos streams; the daemon
    /// passes accepted sockets with read/write timeouts already set.
    ///
    /// # Errors
    ///
    /// Returns only *unexpected* I/O errors; clean closes, timeouts,
    /// torn frames, and protocol violations all return `Ok(())` after
    /// closing (having replied with a structured `error` where the
    /// stream was still writable).
    pub fn serve_connection<S: Read + Write>(&self, mut stream: S) -> io::Result<()> {
        loop {
            let payload = match proto::read_frame(&mut stream) {
                Ok(Some(p)) => p,
                Ok(None) => return Ok(()),
                Err(FrameError::Io(e))
                    if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) =>
                {
                    // Slow-loris (or just idle past the timeout): tell
                    // the peer and cut the connection. During drain,
                    // close silently so the daemon can finish.
                    if !self.inner.queue.is_draining() {
                        let _ = send(
                            &mut stream,
                            &Response::Error {
                                class: "protocol".to_string(),
                                message: "read timed out waiting for a request frame".to_string(),
                            },
                        );
                    }
                    return Ok(());
                }
                Err(FrameError::Io(e)) => return Err(e),
                Err(fault @ (FrameError::Torn | FrameError::Oversized(_))) => {
                    // The stream is desynchronized; reply if possible,
                    // then close.
                    let _ = send(
                        &mut stream,
                        &Response::Error {
                            class: "protocol".to_string(),
                            message: fault.to_string(),
                        },
                    );
                    return Ok(());
                }
            };
            let request = match Request::decode(&payload) {
                Ok(r) => r,
                Err(message) => {
                    // Framing is intact: report and keep the connection.
                    send(
                        &mut stream,
                        &Response::Error {
                            class: "protocol".to_string(),
                            message,
                        },
                    )?;
                    continue;
                }
            };
            match request {
                Request::Ping => send(&mut stream, &Response::Pong)?,
                Request::Sweep(req) => {
                    let client = req.client.clone();
                    let deadline_ms = req.deadline_ms;
                    self.handle_submission(&mut stream, &client, deadline_ms, validate_sweep(req))?;
                }
                Request::Exp(req) => {
                    let client = req.client.clone();
                    let deadline_ms = req.deadline_ms;
                    self.handle_submission(&mut stream, &client, deadline_ms, validate_exp(req))?;
                }
                Request::Search(req) => {
                    let client = req.client.clone();
                    let deadline_ms = req.deadline_ms;
                    self.handle_submission(
                        &mut stream,
                        &client,
                        deadline_ms,
                        validate_search(req),
                    )?;
                }
            }
        }
    }

    /// Submits validated work and forwards the executor's replies.
    fn handle_submission<S: Read + Write>(
        &self,
        stream: &mut S,
        client: &str,
        deadline_ms: Option<u64>,
        work: Result<Work, String>,
    ) -> io::Result<()> {
        let work = match work {
            Ok(w) => w,
            Err(message) => {
                return send(
                    stream,
                    &Response::Error {
                        class: "badrequest".to_string(),
                        message,
                    },
                );
            }
        };
        let cancel = match deadline_ms {
            Some(ms) => CancelToken::after(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let (tx, rx) = mpsc::channel();
        let job = Job {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            work,
            cancel,
            reply: tx,
        };
        let position = match self.inner.queue.submit(client, job) {
            Ok(position) => position,
            Err(shed) => {
                return send(
                    stream,
                    &Response::Overloaded {
                        reason: shed.reason.wire_name().to_string(),
                        queue: shed.queue,
                        cap: shed.cap,
                    },
                );
            }
        };
        send(stream, &Response::Queued { position })?;
        // Forward the reply stream. If the client vanishes mid-stream,
        // keep draining the channel without writing: the job already
        // ran (or will run) and the journal keeps its results.
        let mut write_error: Option<io::Error> = None;
        loop {
            let Ok(response) = rx.recv() else {
                // Executor gone without a terminal reply (it panicked).
                if write_error.is_none() {
                    send(
                        stream,
                        &Response::Error {
                            class: "internal".to_string(),
                            message: "executor terminated unexpectedly".to_string(),
                        },
                    )?;
                }
                return Ok(());
            };
            let terminal = response.is_terminal();
            if write_error.is_none() {
                if let Err(e) = send(stream, &response) {
                    write_error = Some(e);
                }
            }
            if terminal {
                break;
            }
        }
        // A dead client is not a server error; either way the job ran
        // (or will run) and the journal keeps its results.
        let _ = write_error;
        Ok(())
    }
}

/// Encodes and writes one reply frame.
fn send<S: Write>(stream: &mut S, response: &Response) -> io::Result<()> {
    proto::write_frame(stream, &response.encode())
}

/// Validates a sweep request into executable [`Work`].
fn validate_sweep(req: proto::SweepRequest) -> Result<Work, String> {
    let app = AppProfile::by_name(&req.app)
        .ok_or_else(|| format!("unknown app profile {:?}", req.app))?;
    if req.designs.len() > MAX_SWEEP_DESIGNS {
        return Err(format!(
            "{} designs exceeds the per-request limit of {MAX_SWEEP_DESIGNS}",
            req.designs.len()
        ));
    }
    let designs = spec::parse_designs(&req.designs)?;
    Ok(Work::Sweep {
        app,
        designs,
        seed: req.seed,
        refs: req.refs,
    })
}

/// Validates a search request into executable [`Work`].
fn validate_search(req: proto::SearchRequest) -> Result<Work, String> {
    AppProfile::by_name(&req.app).ok_or_else(|| format!("unknown app profile {:?}", req.app))?;
    if req.population < 2 || req.population > MAX_SEARCH_POPULATION {
        return Err(format!(
            "population {} outside 2..={MAX_SEARCH_POPULATION}",
            req.population
        ));
    }
    if req.generations < 1 || req.generations > MAX_SEARCH_GENERATIONS {
        return Err(format!(
            "generations {} outside 1..={MAX_SEARCH_GENERATIONS}",
            req.generations
        ));
    }
    Ok(Work::Search {
        cfg: moca_search::SearchConfig {
            app: req.app,
            seed: req.seed,
            refs: req.refs,
            population: req.population as usize,
            generations: req.generations,
        },
    })
}

/// Validates an experiment request into executable [`Work`].
fn validate_exp(req: proto::ExpRequest) -> Result<Work, String> {
    let id = req.id.to_ascii_uppercase();
    if !EXPERIMENT_IDS.contains(&id.as_str()) {
        return Err(format!("unknown experiment id {:?}", req.id));
    }
    if req.mrc && id != "M1" {
        return Err(format!("mrc applies only to M1, not {id}"));
    }
    Ok(Work::Exp { id, mrc: req.mrc })
}

/// The executor: drains the queue until [`AdmissionQueue::next`]
/// returns `None` (drain mode + empty), running each job to completion
/// and journaling results before replying.
fn executor_loop(inner: &Inner, mut journal: Journal) -> ExecutorSummary {
    // One matrix over every matrix experiment's designs, so whichever
    // of them is requested first computes it for all.
    let mut runner = Runner::new(inner.scale, inner.jobs, MATRIX_IDS);
    let mut summary = ExecutorSummary::default();
    while let Some(dispatched) = inner.queue.next() {
        let client = dispatched.client;
        let job = dispatched.job;
        let reply = job.reply.clone();
        let responses = execute(inner, &mut journal, &mut runner, job);
        for response in responses {
            // A disconnected handler dropped the receiver; the results
            // are already journaled, so losing the reply loses nothing.
            let _ = reply.send(response);
        }
        // Quota releases only here — after the job ran and its replies
        // were forwarded — so in-flight work keeps counting against the
        // client, and work orphaned by a disconnect still frees its
        // slot when it completes.
        inner.queue.complete(&client);
        summary.completed += 1;
    }
    summary.journal_entries = journal.len();
    summary
}

/// Runs one job, returning its reply stream (events first, exactly one
/// terminal reply last).
fn execute(
    inner: &Inner,
    journal: &mut Journal,
    runner: &mut Runner,
    job: Job,
) -> Vec<Response> {
    match job.work {
        Work::Sweep {
            app,
            designs,
            seed,
            refs,
        } => execute_sweep(inner, journal, job.id, &app, &designs, seed, refs, &job.cancel),
        Work::Exp { id, mrc } => {
            execute_exp(inner, journal, runner, job.id, &id, mrc, &job.cancel)
        }
        Work::Search { cfg } => execute_search(inner, journal, job.id, &cfg, &job.cancel),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_sweep(
    inner: &Inner,
    journal: &mut Journal,
    job_id: u64,
    app: &AppProfile,
    designs: &[L2Design],
    seed: u64,
    refs: usize,
    cancel: &CancelToken,
) -> Vec<Response> {
    let points = match try_sweep_checkpointed(
        journal,
        designs,
        |d| *d,
        app,
        refs,
        seed,
        inner.jobs,
        cancel,
    ) {
        Ok(Some(points)) => points,
        Ok(None) => {
            return vec![Response::Error {
                class: "deadline".to_string(),
                message: "deadline expired before the sweep completed".to_string(),
            }];
        }
        Err(e) => {
            return vec![Response::Error {
                class: "internal".to_string(),
                message: format!("journal i/o error: {e}"),
            }];
        }
    };

    // Per-request telemetry: journal appends/replays in canonical drain
    // order, streamed ahead of the result. Keys mirror what
    // `try_sweep_checkpointed` journaled under.
    let source_fp = TraceRegistry::global()
        .lookup(app.fingerprint(), seed)
        .map(|s| s.source_fingerprint())
        .unwrap_or_else(|| app.fingerprint());
    let recorder = JsonlRecorder::new();
    recorder.set_scope(&format!("req-{job_id}"));
    let (mut appends, mut replays) = (0u64, 0u64);
    for (design, point) in designs.iter().zip(&points) {
        let event = if point.is_replayed() {
            replays += 1;
            "replay"
        } else {
            appends += 1;
            "append"
        };
        recorder.record(Event::Checkpoint {
            event,
            key: point_key_with_source(source_fp, design, seed, refs),
        });
    }
    recorder.add("checkpoint_appends", appends);
    recorder.add("checkpoint_replays", replays);

    let mut csv = Vec::new();
    if let Err(e) = write_checkpoint_csv(&mut csv, &points) {
        return vec![Response::Error {
            class: "internal".to_string(),
            message: format!("csv rendering failed: {e}"),
        }];
    }
    let mut responses = drain_events(&recorder);
    responses.push(Response::SweepResult {
        csv: String::from_utf8(csv).expect("csv rows are UTF-8"),
    });
    responses
}

fn execute_exp(
    inner: &Inner,
    journal: &mut Journal,
    runner: &mut Runner,
    job_id: u64,
    id: &str,
    mrc: bool,
    cancel: &CancelToken,
) -> Vec<Response> {
    // Same key convention as `repro --checkpoint`, so one journal
    // serves both the daemon and the one-shot binary interchangeably.
    let journal_id = if id == "M1" && mrc { "M1:mrc" } else { id };
    let scale_tag = format!("{:?}", inner.scale);
    let key = experiment_key(journal_id, &scale_tag, moca_sim::EXPERIMENT_SEED);

    let recorder = JsonlRecorder::new();
    recorder.set_scope(&format!("req-{job_id}"));

    if let Some(rendered) = journal.get(&key) {
        // Cache hits are served even past the deadline: replay costs
        // nothing, and a deadline exists to bound *computation*.
        journal.note_replay(&key);
        recorder.record(Event::Checkpoint {
            event: "replay",
            key,
        });
        recorder.add("checkpoint_replays", 1);
        let rendered = rendered.to_string();
        let mut responses = drain_events(&recorder);
        responses.push(Response::ExpResult { rendered });
        return responses;
    }
    if cancel.is_cancelled() {
        return vec![Response::Error {
            class: "deadline".to_string(),
            message: "deadline expired while queued (and the result is not cached)".to_string(),
        }];
    }

    let scale = inner.scale;
    let jobs = inner.jobs;
    let result = catch_panic(|| match id {
        "M1" => experiments::mrc_sweep::run_with(scale, jobs, mrc),
        // The S1 experiment lives in moca-search, not moca-sim. The exp
        // path runs it without per-generation journaling (the rendered
        // block is still cached above); the `search` request type is
        // the checkpointing surface.
        "S1" => moca_search::experiment::run(scale, jobs),
        // The matrix experiments share one design matrix per server
        // lifetime, computed over all of their designs on first use.
        _ => runner.run(id).expect("id validated at admission"),
    });
    match result {
        Ok(result) => {
            let rendered = result.render();
            if let Err(e) = journal.record(&key, &rendered) {
                return vec![Response::Error {
                    class: "internal".to_string(),
                    message: format!("journal i/o error: {e}"),
                }];
            }
            recorder.record(Event::Checkpoint {
                event: "append",
                key,
            });
            recorder.add("checkpoint_appends", 1);
            let mut responses = drain_events(&recorder);
            responses.push(Response::ExpResult { rendered });
            responses
        }
        Err(message) => vec![Response::Error {
            class: "internal".to_string(),
            message: format!("experiment {id} panicked: {message}"),
        }],
    }
}

/// Runs one design-space search under the same durability contract as
/// experiments: the rendered report journals under the search
/// fingerprint before the reply is sent, and identical requests replay
/// it. In addition the engine itself journals every finished
/// *generation*, so a search cancelled by its deadline (checked at
/// generation boundaries) leaves its progress behind — a resubmit with
/// a fresh deadline resumes instead of restarting.
fn execute_search(
    inner: &Inner,
    journal: &mut Journal,
    job_id: u64,
    cfg: &moca_search::SearchConfig,
    cancel: &CancelToken,
) -> Vec<Response> {
    let key = moca_search::result_key(cfg.fingerprint());
    let recorder = JsonlRecorder::new();
    recorder.set_scope(&format!("req-{job_id}"));

    if let Some(rendered) = journal.get(&key) {
        // Same rule as experiments: replays are served past a deadline.
        journal.note_replay(&key);
        recorder.record(Event::Checkpoint {
            event: "replay",
            key,
        });
        recorder.add("checkpoint_replays", 1);
        let rendered = rendered.to_string();
        let mut responses = drain_events(&recorder);
        responses.push(Response::SearchResult { rendered });
        return responses;
    }

    let jobs = inner.jobs;
    let result = catch_panic(|| moca_search::run_search(cfg, jobs, Some(journal), Some(cancel)));
    let outcome = match result {
        Ok(Ok(Some(outcome))) => outcome,
        Ok(Ok(None)) => {
            return vec![Response::Error {
                class: "deadline".to_string(),
                message: "deadline expired before the search completed \
                          (finished generations are journaled; resubmit to resume)"
                    .to_string(),
            }];
        }
        Ok(Err(e)) => {
            return vec![Response::Error {
                class: "internal".to_string(),
                message: format!("journal i/o error: {e}"),
            }];
        }
        Err(message) => {
            return vec![Response::Error {
                class: "internal".to_string(),
                message: format!("search panicked: {message}"),
            }];
        }
    };
    let rendered = outcome.render();
    if let Err(e) = journal.record(&key, &rendered) {
        return vec![Response::Error {
            class: "internal".to_string(),
            message: format!("journal i/o error: {e}"),
        }];
    }
    // Stream one `search` event per generation, replayed ones included
    // (restored checkpoints carry their stats). `eval_ns` is zeroed so
    // the reply stream stays deterministic; wall-clock timing lives in
    // the engine's own process-global telemetry.
    for s in &outcome.stats {
        recorder.record(Event::Search {
            generation: s.generation,
            population: s.evaluated,
            front_size: s.front_size,
            hv_permille: s.hv_permille,
            evals_pruned: s.pruned,
            evals_simulated: s.simulated,
            evals_cached: s.cached,
            eval_ns: 0,
        });
    }
    recorder.record(Event::Checkpoint {
        event: "append",
        key,
    });
    recorder.add("checkpoint_appends", 1);
    let mut responses = drain_events(&recorder);
    responses.push(Response::SearchResult { rendered });
    responses
}

/// Drains a per-request recorder into `event` replies (canonical
/// deterministic order, one per line).
fn drain_events(recorder: &JsonlRecorder) -> Vec<Response> {
    let mut buf = Vec::new();
    recorder
        .write_jsonl(&mut buf)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(buf)
        .expect("telemetry is UTF-8")
        .lines()
        .map(|line| Response::Event {
            line: line.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_validation_rejects_bad_requests_before_admission() {
        let bad_app = proto::SweepRequest {
            client: "c".to_string(),
            app: "no-such-app".to_string(),
            seed: 1,
            refs: 1000,
            designs: vec!["baseline".to_string()],
            deadline_ms: None,
        };
        assert!(validate_sweep(bad_app).is_err());
        let bad_design = proto::SweepRequest {
            client: "c".to_string(),
            app: "music".to_string(),
            seed: 1,
            refs: 1000,
            designs: vec!["sram:0".to_string()],
            deadline_ms: None,
        };
        assert!(validate_sweep(bad_design).is_err());
        let too_many = proto::SweepRequest {
            client: "c".to_string(),
            app: "music".to_string(),
            seed: 1,
            refs: 1000,
            designs: vec!["baseline".to_string(); MAX_SWEEP_DESIGNS + 1],
            deadline_ms: None,
        };
        assert!(validate_exp(proto::ExpRequest {
            client: "c".to_string(),
            id: "f3".to_string(),
            mrc: false,
            deadline_ms: None,
        })
        .is_ok(), "ids are case-insensitive");
        assert!(validate_sweep(too_many).is_err());
    }

    #[test]
    fn exp_validation_enforces_known_ids_and_mrc_scope() {
        let unknown = proto::ExpRequest {
            client: "c".to_string(),
            id: "F99".to_string(),
            mrc: false,
            deadline_ms: None,
        };
        assert!(validate_exp(unknown).is_err());
        let mrc_on_f3 = proto::ExpRequest {
            client: "c".to_string(),
            id: "F3".to_string(),
            mrc: true,
            deadline_ms: None,
        };
        assert!(validate_exp(mrc_on_f3).is_err());
        let mrc_on_m1 = proto::ExpRequest {
            client: "c".to_string(),
            id: "M1".to_string(),
            mrc: true,
            deadline_ms: None,
        };
        assert!(validate_exp(mrc_on_m1).is_ok());
        assert!(
            validate_exp(proto::ExpRequest {
                client: "c".to_string(),
                id: "s1".to_string(),
                mrc: false,
                deadline_ms: None,
            })
            .is_ok(),
            "the search experiment is servable by id"
        );
    }

    #[test]
    fn search_validation_bounds_population_generations_and_app() {
        let ok = |population, generations| proto::SearchRequest {
            client: "c".to_string(),
            app: "game".to_string(),
            seed: 1,
            refs: 10_000,
            population,
            generations,
            deadline_ms: None,
        };
        assert!(validate_search(ok(8, 2)).is_ok());
        assert!(validate_search(ok(1, 2)).is_err(), "population floor");
        assert!(
            validate_search(ok(MAX_SEARCH_POPULATION + 1, 2)).is_err(),
            "population ceiling"
        );
        assert!(validate_search(ok(8, 0)).is_err(), "generation floor");
        assert!(
            validate_search(ok(8, MAX_SEARCH_GENERATIONS + 1)).is_err(),
            "generation ceiling"
        );
        let bad_app = proto::SearchRequest {
            app: "no-such-app".to_string(),
            ..ok(8, 2)
        };
        assert!(validate_search(bad_app).is_err());
    }
}
