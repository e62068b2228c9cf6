//! Telemetry `point` events count a lane group's shared front-end time
//! once: summed over the group's points, `trace_gen_ns` is the group's
//! own front-end time, not that time once per lane.
//!
//! The suite installs the global telemetry recorder, so it lives in a
//! binary of its own.

use std::time::Instant;

use moca_core::L2Design;
use moca_sim::lockstep::{execute, Plan};
use moca_sim::parallel::Jobs;
use moca_sim::telemetry::{self, JsonValue};
use moca_trace::AppProfile;

#[test]
fn shared_front_end_time_is_counted_once_per_lane_group() {
    let recorder = telemetry::install();
    let app = AppProfile::social();
    let designs = [
        L2Design::baseline(),
        L2Design::static_default(),
        L2Design::dynamic_default(),
    ];
    // One three-lane group filtering its stream live: all of the
    // group's front-end time is spent inside this call.
    let plan = Plan::new(&app, 3, 40_000, &designs)
        .with_lane_group(3)
        .unmemoized();
    let began = Instant::now();
    let points = execute(&plan, Jobs::SERIAL);
    let wall_ns = began.elapsed().as_nanos() as u64;
    assert!(points.iter().all(Result::is_ok));

    let mut jsonl = Vec::new();
    recorder.write_jsonl(&mut jsonl).expect("jsonl to a Vec");
    // (index, trace_gen_ns, sim_ns + energy_ns) per point event.
    let mut lanes: Vec<(u64, u64, u64)> = Vec::new();
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
        if is("kind", "point") && is("app", app.name) {
            lanes.push((
                num("index"),
                num("trace_gen_ns"),
                num("sim_ns") + num("energy_ns"),
            ));
        }
    }
    lanes.sort_unstable();
    assert_eq!(lanes.len(), 3, "{lanes:?}");

    // The first completed lane carries the group's front-end time and
    // the others carry none, so the sum is that time exactly once.
    let group_front_ns = lanes[0].1;
    assert!(
        group_front_ns > 0,
        "a live filter pass takes time: {lanes:?}"
    );
    let summed: u64 = lanes.iter().map(|l| l.1).sum();
    assert_eq!(summed, group_front_ns, "{lanes:?}");
    // Serial and disjoint, the attributed times fit in the call's wall.
    let lanes_ns: u64 = lanes.iter().map(|l| l.2).sum();
    assert!(summed + lanes_ns <= wall_ns, "{lanes:?} vs {wall_ns} ns");
}
