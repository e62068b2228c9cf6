//! `telemetry_report` — aggregates a `repro --telemetry` JSONL stream
//! into a per-phase profile.
//!
//! Usage:
//!
//! ```text
//! telemetry_report PATH
//! ```
//!
//! Reads the stream written by `repro --telemetry PATH` (one
//! self-describing JSON object per line; see `DESIGN.md` § Telemetry &
//! profiling), validates that **every** line parses against the
//! emitted schema, and prints:
//!
//! * a per-scope profile table — sweep points and the nanoseconds each
//!   scope spent in trace generation vs cache simulation vs energy
//!   accounting, plus each scope's share of the total measured time;
//! * a worker-pool table (workers observed, items processed, busy time)
//!   when the run was parallel;
//! * checkpoint journal activity and the end-of-run filtered-run memo
//!   snapshot, when present;
//! * the counter totals.
//!
//! A malformed line is a hard error naming the line number (exit 2):
//! the stream doubles as the CI fixture proving the JSONL emitter and
//! parser agree, so "mostly parses" is not good enough.

use std::collections::BTreeMap;
use std::process::ExitCode;

use moca_sim::table::Table;
use moca_sim::telemetry::{parse_line, JsonValue};

/// Per-scope accumulator for `point` events.
#[derive(Default)]
struct PhaseAgg {
    points: u64,
    gen_ns: u64,
    sim_ns: u64,
    energy_ns: u64,
}

impl PhaseAgg {
    fn total_ns(&self) -> u64 {
        self.gen_ns + self.sim_ns + self.energy_ns
    }
}

/// Per-`(scope, pool)` accumulator for `worker_stop` events.
#[derive(Default)]
struct PoolAgg {
    workers: u64,
    jobs: u64,
    items: u64,
    busy_ns: u64,
}

/// Looks up a string field emitted by the telemetry renderer.
fn str_field<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Result<&'a str, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => Ok(s),
        Some(_) => Err(format!("field {key:?} is not a string")),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Looks up a numeric field emitted by the telemetry renderer.
fn num_field(fields: &[(String, JsonValue)], key: &str) -> Result<u64, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, JsonValue::Num(n))) => Ok(*n),
        Some(_) => Err(format!("field {key:?} is not a number")),
        None => Err(format!("missing field {key:?}")),
    }
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 / whole as f64 * 100.0)
    }
}

/// Aggregated view of one stream; built line by line.
#[derive(Default)]
struct Report {
    events: usize,
    phases: BTreeMap<String, PhaseAgg>,
    pools: BTreeMap<(String, String), PoolAgg>,
    counters: BTreeMap<String, u64>,
    appends: u64,
    replays: u64,
    /// Last `memo` snapshot seen:
    /// (runs, used_bytes, cap_bytes, hits, misses, rejected, front_end_refs).
    memo: Option<(u64, u64, u64, u64, u64, u64, u64)>,
    /// Last `trace_io` snapshot seen:
    /// (files, chunks_decoded, bytes_read, decode_ns, checksum_verifies, decode_errors).
    trace_io: Option<(u64, u64, u64, u64, u64, u64)>,
}

impl Report {
    /// Folds one JSONL line into the aggregate.
    fn ingest(&mut self, line: &str) -> Result<(), String> {
        let fields = parse_line(line)?;
        self.events += 1;
        match str_field(&fields, "kind")? {
            "point" => {
                let agg = self
                    .phases
                    .entry(str_field(&fields, "scope")?.to_string())
                    .or_default();
                agg.points += 1;
                agg.gen_ns += num_field(&fields, "trace_gen_ns")?;
                agg.sim_ns += num_field(&fields, "sim_ns")?;
                agg.energy_ns += num_field(&fields, "energy_ns")?;
            }
            "worker_stop" => {
                let key = (
                    str_field(&fields, "scope")?.to_string(),
                    str_field(&fields, "pool")?.to_string(),
                );
                let agg = self.pools.entry(key).or_default();
                agg.workers += 1;
                agg.jobs = agg.jobs.max(num_field(&fields, "jobs")?);
                agg.items += num_field(&fields, "items")?;
                agg.busy_ns += num_field(&fields, "busy_ns")?;
            }
            // Starts carry no payload the stop doesn't repeat.
            "worker_start" => {}
            "checkpoint" => match str_field(&fields, "event")? {
                "append" => self.appends += 1,
                "replay" => self.replays += 1,
                other => return Err(format!("unknown checkpoint event {other:?}")),
            },
            "memo" => {
                self.memo = Some((
                    num_field(&fields, "runs")?,
                    num_field(&fields, "used_bytes")?,
                    num_field(&fields, "cap_bytes")?,
                    num_field(&fields, "hits")?,
                    num_field(&fields, "misses")?,
                    num_field(&fields, "rejected")?,
                    num_field(&fields, "front_end_refs")?,
                ));
            }
            "trace_io" => {
                self.trace_io = Some((
                    num_field(&fields, "files")?,
                    num_field(&fields, "chunks_decoded")?,
                    num_field(&fields, "bytes_read")?,
                    num_field(&fields, "decode_ns")?,
                    num_field(&fields, "checksum_verifies")?,
                    num_field(&fields, "decode_errors")?,
                ));
            }
            "counter" => {
                *self
                    .counters
                    .entry(str_field(&fields, "name")?.to_string())
                    .or_default() += num_field(&fields, "value")?;
            }
            other => return Err(format!("unknown event kind {other:?}")),
        }
        Ok(())
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# telemetry report — {} event(s), {} scope(s) with sweep points\n\n",
            self.events,
            self.phases.len()
        ));

        let grand_total: u64 = self.phases.values().map(PhaseAgg::total_ns).sum();
        let mut profile = Table::new(vec![
            "scope", "points", "gen ms", "sim ms", "energy ms", "share",
        ]);
        for (scope, agg) in &self.phases {
            profile.row(vec![
                scope.clone(),
                agg.points.to_string(),
                ms(agg.gen_ns),
                ms(agg.sim_ns),
                ms(agg.energy_ns),
                pct(agg.total_ns(), grand_total),
            ]);
        }
        if !profile.is_empty() {
            out.push_str("## per-scope profile\n\n");
            out.push_str(&profile.render());
            let gen: u64 = self.phases.values().map(|a| a.gen_ns).sum();
            let sim: u64 = self.phases.values().map(|a| a.sim_ns).sum();
            let energy: u64 = self.phases.values().map(|a| a.energy_ns).sum();
            out.push_str(&format!(
                "\nphase split: trace-gen {}, cache-sim {}, energy {}\n",
                pct(gen, grand_total),
                pct(sim, grand_total),
                pct(energy, grand_total)
            ));
        }

        if !self.pools.is_empty() {
            let mut pools = Table::new(vec!["scope", "pool", "workers", "jobs", "items", "busy ms"]);
            for ((scope, pool), agg) in &self.pools {
                pools.row(vec![
                    scope.clone(),
                    pool.clone(),
                    agg.workers.to_string(),
                    agg.jobs.to_string(),
                    agg.items.to_string(),
                    ms(agg.busy_ns),
                ]);
            }
            out.push_str("\n## worker pools\n\n");
            out.push_str(&pools.render());
        }

        if self.appends + self.replays > 0 {
            out.push_str(&format!(
                "\ncheckpoint journal: {} append(s), {} replay(s)\n",
                self.appends, self.replays
            ));
        }
        if let Some((runs, used, cap, hits, misses, rejected, filtered)) = self.memo {
            out.push_str(&format!(
                "filtered-run memo: {runs} run(s) cached, {used}/{cap} byte(s), \
                 {hits} hit(s) / {misses} miss(es), {rejected} rejected, \
                 {filtered} front-end ref(s)\n"
            ));
        }
        if let Some((files, chunks, bytes, ns, verifies, errors)) = self.trace_io {
            out.push_str(&format!(
                "trace replay: {files} file(s), {chunks} chunk(s) decoded ({bytes} bytes, {} ms), \
                 {verifies} checksum(s) verified, {errors} decode error(s)\n",
                ms(ns)
            ));
        }

        if !self.counters.is_empty() {
            let mut counters = Table::new(vec!["counter", "total"]);
            for (name, value) in &self.counters {
                counters.row(vec![name.clone(), value.to_string()]);
            }
            out.push_str("\n## counters\n\n");
            out.push_str(&counters.render());
        }
        out
    }
}

fn run(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut report = Report::default();
    for (i, line) in text.lines().enumerate() {
        report
            .ingest(line)
            .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: telemetry_report PATH\n  PATH  JSONL stream written by `repro --telemetry PATH`");
        return ExitCode::from(2);
    };
    match run(path) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("telemetry_report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingests_every_emitted_kind() {
        let mut r = Report::default();
        let lines = [
            r#"{"v":1,"kind":"point","scope":"F3","app":"music","design":"d","index":0,"total":2,"trace_gen_ns":5,"sim_ns":10,"energy_ns":5}"#,
            r#"{"v":1,"kind":"point","scope":"F3","app":"music","design":"e","index":1,"total":2,"trace_gen_ns":0,"sim_ns":20,"energy_ns":0}"#,
            r#"{"v":1,"kind":"worker_start","scope":"F3","pool":"parallel_map","worker":0,"jobs":2}"#,
            r#"{"v":1,"kind":"worker_stop","scope":"F3","pool":"parallel_map","worker":0,"jobs":2,"items":2,"busy_ns":30}"#,
            r#"{"v":1,"kind":"checkpoint","scope":"F3","event":"append","key":"k"}"#,
            r#"{"v":1,"kind":"checkpoint","scope":"F3","event":"replay","key":"k"}"#,
            r#"{"v":1,"kind":"memo","runs":3,"used_bytes":4096,"cap_bytes":100663296,"hits":9,"misses":3,"rejected":0,"front_end_refs":24000}"#,
            r#"{"v":1,"kind":"trace_io","files":4,"chunks_decoded":148,"bytes_read":900000,"decode_ns":123456,"checksum_verifies":148,"decode_errors":0}"#,
            r#"{"v":1,"kind":"counter","name":"sim_batches","value":4}"#,
        ];
        for line in lines {
            r.ingest(line).unwrap();
        }
        assert_eq!(r.events, lines.len());
        let f3 = &r.phases["F3"];
        assert_eq!((f3.points, f3.gen_ns, f3.sim_ns, f3.energy_ns), (2, 5, 30, 5));
        let pool = &r.pools[&("F3".to_string(), "parallel_map".to_string())];
        assert_eq!((pool.workers, pool.items, pool.busy_ns), (1, 2, 30));
        assert_eq!((r.appends, r.replays), (1, 1));
        assert_eq!(r.memo, Some((3, 4096, 100663296, 9, 3, 0, 24000)));
        assert_eq!(r.trace_io, Some((4, 148, 900000, 123456, 148, 0)));
        assert_eq!(r.counters["sim_batches"], 4);
        let rendered = r.render();
        assert!(rendered.contains("per-scope profile"));
        assert!(rendered.contains("worker pools"));
        assert!(rendered.contains("sim_batches"));
        assert!(rendered.contains("trace replay: 4 file(s), 148 chunk(s) decoded"));
        assert!(rendered.contains("filtered-run memo: 3 run(s) cached"));
    }

    #[test]
    fn rejects_malformed_and_unknown_lines() {
        let mut r = Report::default();
        assert!(r.ingest("not json").is_err());
        assert!(r
            .ingest(r#"{"v":1,"kind":"mystery","scope":"F3"}"#)
            .is_err());
        assert!(r
            .ingest(r#"{"v":1,"kind":"point","scope":"F3"}"#)
            .is_err(),
            "point without timing fields must be rejected");
    }

    #[test]
    fn share_handles_empty_stream() {
        let r = Report::default();
        let rendered = r.render();
        assert!(rendered.contains("0 event(s)"));
    }
}
