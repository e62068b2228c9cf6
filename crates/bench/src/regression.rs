//! Benchmark regression checking against a recorded baseline.
//!
//! The `bench_guard` binary (and `scripts/ci.sh`) compare a fresh run of
//! `benches/micro.rs` against the `"after"` section of the repo-root
//! `BENCH_micro.json` and fail when any benchmark's throughput drops by
//! more than a tolerance (30% in CI). Both inputs are text containing
//! the [`crate::Runner`] JSON lines — the baseline wraps them in a
//! `{"before": ..., "after": ...}` document, the current run is raw
//! `cargo bench` output with human lines interleaved.
//!
//! Parsing is a deliberate non-goal here: the workspace has no JSON
//! dependency, and both inputs are produced by our own [`crate::Runner`]
//! (or copied from it into `BENCH_micro.json`), so a scan for the
//! `"bench":"..."` / `"min_ns":N` key pairs is exact for the format we
//! emit. It is *not* a general JSON parser and will mis-read documents
//! that embed those keys inside string values.

/// One benchmark's identity and fastest-iteration time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// `bench` name as printed by the runner (e.g. `cache-access/lru`).
    pub bench: String,
    /// Fastest timed iteration in nanoseconds.
    pub min_ns: u64,
}

/// Extracts every `("bench", min_ns)` pair from `text`.
///
/// Works on raw `cargo bench` output (JSON lines interleaved with human
/// lines) and on `BENCH_micro.json` result arrays alike. Records whose
/// `min_ns` is missing or malformed are skipped.
pub fn parse_records(text: &str) -> Vec<BenchRecord> {
    const BENCH_KEY: &str = "\"bench\"";
    const MIN_KEY: &str = "\"min_ns\"";
    // Skips `: ` (any whitespace around the colon) after a key.
    fn after_colon(s: &str) -> Option<&str> {
        let s = s.trim_start();
        s.strip_prefix(':').map(str::trim_start)
    }
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find(BENCH_KEY) {
        rest = &rest[start + BENCH_KEY.len()..];
        let Some(value) = after_colon(rest).and_then(|s| s.strip_prefix('"')) else {
            continue;
        };
        let Some(name_end) = value.find('"') else {
            break;
        };
        let name = &value[..name_end];
        rest = &value[name_end + 1..];
        // min_ns belongs to the same record: it must appear before the
        // next record's "bench" key.
        let next_bench = rest.find(BENCH_KEY).unwrap_or(rest.len());
        if let Some(min_at) = rest[..next_bench].find(MIN_KEY) {
            let digits: String = after_colon(&rest[min_at + MIN_KEY.len()..])
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(min_ns) = digits.parse::<u64>() {
                out.push(BenchRecord {
                    bench: name.to_string(),
                    min_ns,
                });
            }
        }
    }
    out
}

/// Extracts the baseline records from a `BENCH_micro.json` document.
///
/// Only the `"after"` section counts as the baseline — the `"before"`
/// section documents the pre-optimization numbers and must not be
/// guarded against. A document without an `"after"` key (e.g. a raw
/// JSON-lines file) is parsed whole.
pub fn baseline_records(doc: &str) -> Vec<BenchRecord> {
    let section = match doc.find("\"after\"") {
        Some(at) => &doc[at..],
        None => doc,
    };
    parse_records(section)
}

/// Outcome of comparing one current measurement against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark name.
    pub bench: String,
    /// Baseline fastest iteration (ns).
    pub base_min_ns: u64,
    /// Current fastest iteration (ns), `None` when the benchmark is
    /// missing from the current run.
    pub cur_min_ns: Option<u64>,
    /// `base_min_ns / cur_min_ns`: current throughput as a fraction of
    /// baseline throughput (1.0 = parity, 0.5 = half as fast). Zero when
    /// the benchmark is missing.
    pub throughput_ratio: f64,
    /// Whether this comparison violates the tolerance.
    pub failed: bool,
}

/// Compares `current` against `baseline`, flagging any benchmark whose
/// throughput fell below `1 - max_regression` of the baseline (with
/// throughput ∝ 1/min_ns). Baseline benchmarks absent from the current
/// run also fail — a silently dropped benchmark is a dropped guard.
/// Benchmarks only present in `current` (newly added) are ignored.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    max_regression: f64,
) -> Vec<Comparison> {
    baseline
        .iter()
        .map(|base| {
            let cur = current.iter().find(|c| c.bench == base.bench);
            let (cur_min_ns, ratio) = match cur {
                Some(c) => (Some(c.min_ns), base.min_ns as f64 / c.min_ns.max(1) as f64),
                None => (None, 0.0),
            };
            Comparison {
                bench: base.bench.clone(),
                base_min_ns: base.min_ns,
                cur_min_ns,
                throughput_ratio: ratio,
                failed: ratio < 1.0 - max_regression,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, min_ns: u64) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            min_ns,
        }
    }

    #[test]
    fn parses_runner_json_lines_with_human_noise() {
        let text = "micro/cache-access/lru: median 3.86 ms, min 3.51 ms (5 iters)\n\
            {\"group\":\"micro\",\"bench\":\"cache-access/lru\",\"iters\":5,\"median_ns\":3858844,\"min_ns\":3513865,\"throughput_elems\":100000}\n\
            {\"group\":\"micro\",\"bench\":\"l1-filter/filter-100k\",\"iters\":5,\"median_ns\":2263198,\"min_ns\":2187561,\"throughput_elems\":null}\n\
            micro: 2 benchmark(s) done\n";
        let records = parse_records(text);
        assert_eq!(
            records,
            vec![
                rec("cache-access/lru", 3513865),
                rec("l1-filter/filter-100k", 2187561)
            ]
        );
    }

    #[test]
    fn record_without_min_ns_is_skipped_not_mismatched() {
        // First record lacks min_ns; its neighbour's value must not be
        // attributed to it.
        let text = "{\"bench\":\"a\",\"median_ns\":5}\n{\"bench\":\"b\",\"min_ns\":7}";
        assert_eq!(parse_records(text), vec![rec("b", 7)]);
    }

    #[test]
    fn tolerates_pretty_printed_json() {
        let text = "{ \"bench\": \"spaced/name\", \"median_ns\": 5, \"min_ns\": 42 }";
        assert_eq!(parse_records(text), vec![rec("spaced/name", 42)]);
    }

    #[test]
    fn baseline_uses_only_the_after_section() {
        let doc = r#"{
            "before": { "results": [ {"bench":"x","min_ns":100} ] },
            "after":  { "results": [ {"bench":"x","min_ns":40} ] }
        }"#;
        assert_eq!(baseline_records(doc), vec![rec("x", 40)]);
    }

    #[test]
    fn baseline_without_after_key_parses_whole_document() {
        let doc = "{\"bench\":\"y\",\"min_ns\":9}";
        assert_eq!(baseline_records(doc), vec![rec("y", 9)]);
    }

    #[test]
    fn parity_and_speedup_pass_at_30_percent() {
        let base = vec![rec("a", 1000), rec("b", 1000)];
        let cur = vec![rec("a", 1000), rec("b", 500)];
        let cmp = compare(&base, &cur, 0.30);
        assert!(cmp.iter().all(|c| !c.failed));
        assert!((cmp[1].throughput_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        // 1000 -> 1500 ns is a 33% throughput drop (ratio 0.667).
        let cmp = compare(&[rec("a", 1000)], &[rec("a", 1500)], 0.30);
        assert!(cmp[0].failed);
        // 1000 -> 1400 ns is a 28.6% drop (ratio 0.714): allowed.
        let cmp = compare(&[rec("a", 1000)], &[rec("a", 1400)], 0.30);
        assert!(!cmp[0].failed);
    }

    #[test]
    fn missing_benchmark_fails_and_new_benchmark_is_ignored() {
        let cmp = compare(&[rec("gone", 1000)], &[rec("new", 10)], 0.30);
        assert_eq!(cmp.len(), 1);
        assert!(cmp[0].failed);
        assert_eq!(cmp[0].cur_min_ns, None);
    }

    #[test]
    fn shipped_baseline_file_parses() {
        // Guards the committed BENCH_micro.json against format drift,
        // and against silently dropping a guarded benchmark.
        let doc = include_str!("../../../BENCH_micro.json");
        let records = baseline_records(doc);
        for required in [
            "cache-access/lru",
            "trace-generation/browser-100k-refs",
            "sweep-lockstep/8-designs-100k",
            "mrc/profile-100k",
            "sweep-lockstep/24-designs-100k",
            "sweep-pruned/24-designs-100k",
            "trace-gen/100k-refs",
            "trace-decode/100k-refs",
            "trace-file/replay-100k",
            "filtered-run/warm-replay",
        ] {
            assert!(
                records.iter().any(|r| r.bench == required),
                "BENCH_micro.json 'after' section must list {required}"
            );
        }
        assert!(records.len() >= 10, "got {} records", records.len());
    }

    #[test]
    fn shipped_baseline_records_mrc_pruning_speedup() {
        // The MRC-pruning acceptance criterion, pinned against the
        // committed numbers: evaluating the 24-point LRU grid with the
        // single-pass profiler + Pareto-pruned simulation must be
        // recorded at >= 4x the throughput of simulating all 24 points
        // (min_ns, identical grid and reference count on both sides).
        let doc = include_str!("../../../BENCH_micro.json");
        let records = baseline_records(doc);
        let min_of = |name: &str| {
            records
                .iter()
                .find(|r| r.bench == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .min_ns as f64
        };
        let speedup =
            min_of("sweep-lockstep/24-designs-100k") / min_of("sweep-pruned/24-designs-100k");
        assert!(
            speedup >= 4.0,
            "recorded mrc-pruning speedup {speedup:.2}x is below the 4x criterion"
        );
    }

    #[test]
    fn shipped_baseline_records_trace_decode_speedup() {
        // The replay-container acceptance criterion, pinned against the
        // committed numbers: decoding a compiled trace must be recorded
        // at >= 5x the throughput of regenerating the same stream
        // (min_ns, identical reference counts on both sides).
        let doc = include_str!("../../../BENCH_micro.json");
        let records = baseline_records(doc);
        let min_of = |name: &str| {
            records
                .iter()
                .find(|r| r.bench == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .min_ns as f64
        };
        let speedup = min_of("trace-gen/100k-refs") / min_of("trace-decode/100k-refs");
        assert!(
            speedup >= 5.0,
            "recorded trace-decode speedup {speedup:.2}x is below the 5x criterion"
        );
    }
}
