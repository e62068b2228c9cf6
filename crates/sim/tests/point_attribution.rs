//! Telemetry `point` events count a plan's front-end time once: exactly
//! one `point` event of a plan carries its `trace_gen_ns`, whatever the
//! job count and wherever the plan's run comes from, so sums over
//! `point` events do not multiply front-end time by the worker count.
//!
//! The suite installs the global telemetry recorder, so it lives in a
//! binary of its own.

use std::time::Instant;

use moca_core::L2Design;
use moca_sim::lockstep::{execute, Plan};
use moca_sim::memo::{RunMemo, MEMO_CAP_BYTES};
use moca_sim::parallel::Jobs;
use moca_sim::telemetry::{self, JsonValue, JsonlRecorder};
use moca_trace::AppProfile;

/// `(index, trace_gen_ns, sim_ns + energy_ns)` of every `point` event
/// recorded under `scope`, in plan order.
fn points_in(recorder: &JsonlRecorder, scope: &str) -> Vec<(u64, u64, u64)> {
    let mut jsonl = Vec::new();
    recorder.write_jsonl(&mut jsonl).expect("jsonl to a Vec");
    let mut lanes = Vec::new();
    for line in String::from_utf8(jsonl).expect("utf8").lines() {
        let fields = telemetry::parse_line(line).expect("every line parses");
        let num = |key: &str| match fields.iter().find(|(k, _)| k == key) {
            Some((_, JsonValue::Num(n))) => *n,
            other => panic!("{key}: {other:?} in {line}"),
        };
        let is = |key: &str, want: &str| {
            fields
                .iter()
                .any(|(k, v)| k == key && *v == JsonValue::Str(want.to_string()))
        };
        if is("kind", "point") && is("scope", scope) {
            lanes.push((
                num("index"),
                num("trace_gen_ns"),
                num("sim_ns") + num("energy_ns"),
            ));
        }
    }
    lanes.sort_unstable();
    lanes
}

#[test]
fn front_end_time_is_counted_once_per_plan() {
    let recorder = telemetry::install();
    let app = AppProfile::social();
    let designs = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
        L2Design::SharedSram { ways: 4 },
    ];
    for jobs in [1usize, 2, 3] {
        // A fresh memo per job count, so the first plan is a miss.
        let memo = RunMemo::with_capacity(MEMO_CAP_BYTES);
        let plans = [
            (
                "miss",
                Plan::new(&app, 3, 40_000, &designs).with_memo(&memo),
            ),
            ("private", Plan::new(&app, 3, 40_000, &designs).unmemoized()),
            (
                "live",
                Plan::new(&app, 3, 40_000, &designs[..1]).unmemoized(),
            ),
        ];
        for (source, plan) in plans {
            let scope = format!("{source} jobs={jobs}");
            telemetry::set_scope(&scope);
            let began = Instant::now();
            let points = execute(&plan, Jobs::new(jobs));
            let wall_ns = began.elapsed().as_nanos() as u64;
            assert!(points.iter().all(Result::is_ok), "{scope}");

            let lanes = points_in(recorder, &scope);
            assert_eq!(lanes.len(), points.len(), "{scope}: {lanes:?}");
            // Filtering 40k references takes time, and exactly one
            // point carries it.
            let carriers = lanes.iter().filter(|lane| lane.1 > 0).count();
            assert_eq!(carriers, 1, "{scope}: {lanes:?}");
            if jobs == 1 {
                // Serial and disjoint, the attributed times fit in the
                // call's wall.
                let attributed: u64 = lanes.iter().map(|lane| lane.1 + lane.2).sum();
                assert!(attributed <= wall_ns, "{scope}: {lanes:?} vs {wall_ns} ns");
            }
        }
    }
}
