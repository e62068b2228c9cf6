#!/usr/bin/env python3
"""End-to-end benchmark of the `repro` experiment driver.

Run from the repository root:

    python3 reprobench/run.py --workload matrix --seed 1 --seconds 40 --trace 0

Each run first builds `repro`, `trace_corpus` and the benchmark's own
package (`reprobench/probe`: the layer probe, the calibration kernel
and the child launcher) in release mode from the checked-out source;
build time is not measured, and a failed build or a missing binary ends
the run with a non-zero exit and no result. One closed-loop client then
sets up the workload's inputs, starts one `repro --jobs 1` child, waits
for it, and repeats until `--seconds` are used. Every child's report is
checked against the per-experiment digests in `digests.json`.

`--trace 0` prints the end-to-end metrics: medians over the run's
children, rescaled to the reference machine's speed by calibration
slices that run on the child's CPU while the child is paused.
`--trace 1` runs a child with `--progress --telemetry` between two
untraced ones, runs the layer probe, and prints the per-layer metrics.
See README.md for the workloads, the calibration and the attribution
model.

`repro` has no seed flag: every workload runs at the program's fixed
EXPERIMENT_SEED, so `--seed` only names the run's scratch directory.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

# Worker threads of a timed child. One thread leaves the second of the
# reference machine's two cores to the benchmark and the host, so the
# scheduler does not enter the measurement.
JOBS = 1

# Worker threads of the one child the traced run spends on
# `parallel.cpu_util`: every core of the reference machine.
PARALLEL_JOBS = 2

# The calibration kernel (`probe/src/bin/reprobench-calib.rs`): the
# references of one slice, the hit counts every slice must report, and
# a slice's typical time on the reference machine. A timed child is
# paused every SLICE_EVERY_S seconds for one slice on the same core;
# its time metrics are rescaled by (CALIB_REF_S / mean slice time) **
# SPEED_EXPONENT, so they read as seconds at the reference machine's
# typical speed whatever speed the shared host runs at during the run.
# `repro` slows down more than the kernel when the host does: between a
# fast and a slow phase of the reference machine its time grew as the
# slice time to the power 1.25-1.6 (README.md, Calibration).
CALIB_REFS = 750_000
CALIB_HITS = (321346, 318091)
CALIB_REF_S = 0.036
SLICE_EVERY_S = 0.5
SPEED_EXPONENT = 1.4

# Inputs of the search workload: one compiled corpus of the `game`
# stream at full sweep length, the stream M1 and S1 both replay.
CORPUS_ARGS = ["--apps", "game", "--refs", "3000000"]

WORKLOADS = {
    # Scalar per-cell simulation at quick scale; the trace arena stays
    # empty, so generation and L1 filtering dominate.
    "matrix": {"ids": ["F1", "F2", "T2", "F6"], "flags": ["--quick"], "search": False},
    # Lock-step lane groups over full-length streams with the arena
    # saturated; M1 runs unpruned; no corpus, no journal.
    "sweep": {"ids": ["F5", "F8", "A2", "A3", "M1"], "flags": [], "search": False},
    # Pruned M1 plus the S1 search, decoding the stream from a corpus
    # and journaling every generation.
    "search": {"ids": ["M1", "S1"], "flags": ["--mrc"], "search": True},
}

# Every experiment any workload runs, for the per-experiment wall times.
ALL_IDS = list(dict.fromkeys(i for w in WORKLOADS.values() for i in w["ids"]))

# Paper headline numbers the matrix workload is compared with, in
# percent: static/dynamic L2 energy saving and performance loss.
PAPER = {"static_saving": 75.0, "dynamic_saving": 85.0, "static_loss": 2.0, "dynamic_loss": 3.0}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"), ("setup_s", "s")]

PER_LAYER = (
    [
        ("trace.gen.ns_per_ref", "ns"),
        ("trace.gen.refs", "count"),
        ("trace.gen.s", "s"),
        ("trace.decode.ns_per_ref", "ns"),
        ("trace.decode.chunks", "count"),
        ("trace.decode.errors", "count"),
        ("trace.decode.s", "s"),
        ("l1.filter.ns_per_ref", "ns"),
        ("l1.filter.l2_visible_frac", "frac"),
        ("l1.filter.s", "s"),
        ("l2.replay.ns_per_event", "ns"),
        ("l2.replay.lane_events", "count"),
        ("l2.replay.s", "s"),
        ("energy.finish.ns_per_report", "ns"),
        ("energy.finish.s", "s"),
        ("mrc.profile.ns_per_ref", "ns"),
        ("mrc.score.ns_per_grid", "ns"),
        ("mrc.pruned_frac", "frac"),
        ("mrc.s", "s"),
        ("arena.hit_frac", "frac"),
        ("arena.rejected", "count"),
        ("search.rank.ns", "ns"),
        ("search.evaluated", "count"),
        ("search.simulated", "count"),
        ("search.cached_frac", "frac"),
        ("search.rank.s", "s"),
        ("journal.append.ns_per_record", "ns"),
        ("journal.bytes", "B"),
        ("journal.resume.s", "s"),
        ("journal.append.s", "s"),
        ("parallel.cpu_util", "frac"),
    ]
    + [("exp.%s.s" % i, "s") for i in ALL_IDS]
    + [
        ("attributed_cpu_frac", "frac"),
        ("attributed_s", "s"),
        ("unattributed_s", "s"),
        ("trace.overhead_frac", "frac"),
        ("host.calib_s", "s"),
    ]
)


class BenchError(Exception):
    """Set-up failed: the run ends without a result."""


def log(msg):
    print("reprobench: " + msg, file=sys.stderr, flush=True)


def build():
    """Builds the binaries in release mode and returns their paths."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    steps = [
        ["-p", "moca", "--bin", "repro", "-p", "moca-sim", "--bin", "trace_corpus"],
        ["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for step in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + step
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError("cannot run cargo: %s" % e)
        if proc.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(cmd))
    bins = {}
    for name in ("repro", "trace_corpus", "reprobench-probe", "reprobench-calib", "reprobench-exec"):
        path = os.path.join(target, "release", name)
        if not os.access(path, os.X_OK):
            raise BenchError("missing binary after build: %s" % path)
        bins[name] = path
    return bins


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def setup(workload, bins, workdir):
    """Prepares one child's inputs in a fresh directory.

    Returns (seconds taken, input paths). Every workload checks that both
    binaries start and reject a malformed command line with the usage
    exit code; the search workload also compiles its trace corpus and
    creates an empty checkpoint directory.
    """
    start = time.perf_counter()
    if os.path.exists(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    for cmd in ([bins["repro"], "--jobs", "0"], [bins["trace_corpus"]]):
        if run_quiet(cmd) != 2:
            raise BenchError("binary does not start as expected: %s" % cmd[0])
    inputs = {}
    if WORKLOADS[workload]["search"]:
        inputs["corpus"] = os.path.join(workdir, "corpus")
        inputs["checkpoint"] = os.path.join(workdir, "checkpoint")
        if run_quiet([bins["trace_corpus"], "record", inputs["corpus"]] + CORPUS_ARGS) != 0:
            raise BenchError("trace_corpus record failed")
        os.makedirs(inputs["checkpoint"])
    return time.perf_counter() - start, inputs


def repro_cmd(workload, bins, inputs, extra=(), jobs=JOBS):
    w = WORKLOADS[workload]
    cmd = [bins["repro"], "--jobs", str(jobs)] + w["flags"]
    if w["search"]:
        cmd += ["--trace", inputs["corpus"], "--checkpoint", inputs["checkpoint"]]
    return cmd + list(extra) + w["ids"]


def run_child(cmd, stdout_path, heartbeats=None):
    """Runs one child to completion.

    Returns wall seconds, CPU seconds (user + sys), peak RSS in MiB and
    the exit code, all measured from outside the child. With a
    `heartbeats` list, each stderr line is stamped with the benchmark's
    clock as it arrives.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            stdout=out,
            stderr=subprocess.PIPE if heartbeats is not None else subprocess.DEVNULL,
        )
        reader = None
        if heartbeats is not None:

            def read():
                for line in proc.stderr:
                    heartbeats.append((time.perf_counter() - start, line.decode(errors="replace")))

            reader = threading.Thread(target=read)
            reader.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if reader is not None:
            reader.join()
            proc.stderr.close()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def pinned(cpu):
    """A `preexec_fn` that pins the child to one CPU."""
    return lambda: os.sched_setaffinity(0, {cpu})


class Calibrator:
    """The calibration kernel, serving one slice per request."""

    def __init__(self, bins, cpu):
        self.proc = subprocess.Popen(
            [bins["reprobench-calib"], str(CALIB_REFS)],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            preexec_fn=pinned(cpu),
        )

    def slice(self):
        """Runs one slice; returns its seconds.

        A slice that reports other hit counts than the reference ends the
        run: its time would not measure the host.
        """
        try:
            self.proc.stdin.write(b"\n")
            self.proc.stdin.flush()
        except OSError:
            pass
        fields = self.proc.stdout.readline().split()
        if len(fields) != 3 or tuple(int(f) for f in fields[1:]) != CALIB_HITS:
            raise BenchError("calibration kernel replied %r, expected hits %s" % (fields, CALIB_HITS))
        return int(fields[0]) / 1e9

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_calibrated(cmd, bins, stdout_path, calib, cpu):
    """Runs one child on `cpu`, pausing it for a calibration slice every
    SLICE_EVERY_S seconds of its run, and once before and after it.

    The child is started through `reprobench-exec`, in a process group of
    its own, so a pause stops it and its usage is its own. Returns the
    child's wall seconds (pauses excluded), CPU seconds, peak RSS in MiB,
    exit code and the mean slice time.
    """
    slices = [calib.slice()]
    paused = 0.0
    report = stdout_path + ".usage"
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [bins["reprobench-exec"], report] + cmd,
            cwd=ROOT,
            stdout=out,
            stderr=subprocess.DEVNULL,
            preexec_fn=pinned(cpu),
            start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            due = start + SLICE_EVERY_S
            while True:
                exited, _, _ = select.select([pidfd], [], [], max(0.0, due - time.perf_counter()))
                if exited:
                    _, status, _ = os.wait4(proc.pid, 0)
                    end = time.perf_counter()
                    break
                stop = time.perf_counter()
                os.killpg(proc.pid, signal.SIGSTOP)
                _, status, _ = os.wait4(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    end = stop
                    break
                slices.append(calib.slice())
                os.killpg(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stop
                due = time.perf_counter() + SLICE_EVERY_S
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            # The launcher died with the child; the child is reparented to
            # this process (see become_subreaper) and reaped here.
            while True:
                try:
                    os.waitpid(-proc.pid, 0)
                except ChildProcessError:
                    break
            raise
        finally:
            os.close(pidfd)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("reprobench-exec failed on %s" % cmd[0])
    child_status, utime_us, stime_us, maxrss_kib = (int(f) for f in read(report).split())
    slices.append(calib.slice())
    cpu_s = (utime_us + stime_us) / 1e6
    return end - start - paused, cpu_s, maxrss_kib / 1024.0, os.waitstatus_to_exitcode(child_status), statistics.mean(slices)


def split_blocks(text):
    """Splits a report into its experiment blocks and its footer.

    Returns ({id: block text}, footer text). The header (scale line,
    which names the jobs value, and T1) is not an experiment block.
    """
    body, sep, footer = text.partition("\n---\n")
    if not sep:
        footer = ""
    blocks, current = {}, None
    for line in body.splitlines(keepends=True):
        if line.startswith("## "):
            current = line[3:].split(" ", 1)[0].strip()
            blocks[current] = ""
        if current is not None:
            blocks[current] += line
    blocks.pop("T1", None)
    return blocks, footer


def digest(block):
    return hashlib.sha256(block.encode()).hexdigest()


def footer_problems(workload, footer, inputs):
    """Checks the run-level lines below `---` that prove the search
    workload used its corpus, pruned M1 and journaled."""
    if not WORKLOADS[workload]["search"]:
        return []
    problems = []
    m = re.search(r"trace corpus: .*?(\d+) chunk\(s\) decoded .*?(\d+) decode error\(s\)", footer)
    if not m:
        problems.append("no trace corpus footer")
    elif int(m.group(1)) == 0:
        problems.append("no chunk decoded from the corpus (fell back to generation)")
    elif int(m.group(2)) != 0:
        problems.append("%s corpus decode error(s)" % m.group(2))
    if "mrc pruning: 24 grid point(s), 16 pruned, 8 simulated" not in footer:
        problems.append("M1 pruning footer differs from 24 grid / 16 pruned / 8 simulated")
    journal = os.path.join(inputs.get("checkpoint", ""), "journal.csv")
    if not os.path.isfile(journal) or os.path.getsize(journal) == 0:
        problems.append("empty or missing journal")
    return problems


def check(workload, text, returncode, inputs, digests):
    """Counts each expected experiment block as one operation.

    An operation fails on a digest mismatch, a `[FAIL]` claim, an
    ABORTED or missing block; a non-zero exit or a failed footer check
    fails every block of the child. Returns (attempted, failed, problems).
    """
    ids = WORKLOADS[workload]["ids"]
    blocks, footer = split_blocks(text)
    problems = []
    failed = set()
    for i in ids:
        block = blocks.get(i)
        if block is None:
            problems.append("%s: block missing" % i)
        elif block.startswith("## %s — ABORTED" % i):
            problems.append("%s: aborted" % i)
        elif "[FAIL]" in block:
            problems.append("%s: failed claim" % i)
        elif digest(block) != digests.get(workload, {}).get(i):
            problems.append("%s: digest mismatch" % i)
        else:
            continue
        failed.add(i)
    run_level = footer_problems(workload, footer, inputs)
    if returncode != 0:
        run_level.append("exit code %d" % returncode)
    if run_level:
        problems += run_level
        failed = set(ids)
    return len(ids), len(failed), problems


def paper_gap_pp(text):
    """Mean absolute gap, in percentage points, between the T2/F6
    headline values and the paper's (75%/2% static, 85%/3% dynamic)."""
    blocks, _ = split_blocks(text)
    t2, f6 = blocks.get("T2", ""), blocks.get("F6", "")
    saving = re.search(r"static multi-retention design saves (-?[\d.]+)% .*? design (-?[\d.]+)%", t2)
    loss = re.search(r"rises by (-?[\d.]+)% for the static .*? by (-?[\d.]+)% for the dynamic", f6)
    if not saving or not loss:
        return None
    measured = [float(saving.group(1)), float(saving.group(2)), float(loss.group(1)), float(loss.group(2))]
    paper = [PAPER["static_saving"], PAPER["dynamic_saving"], PAPER["static_loss"], PAPER["dynamic_loss"]]
    return sum(abs(m - p) for m, p in zip(measured, paper)) / len(paper)


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (DIGESTS, e))


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


class Tally:
    """Operations attempted and failed over all children of a run."""

    def __init__(self, workload, digests):
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def add(self, text, returncode, inputs):
        attempted, failed, problems = check(self.workload, text, returncode, inputs, self.digests)
        self.attempted += attempted
        self.failed += failed
        for p in problems:
            log("check failed: " + p)


def end_to_end(workload, bins, workdir, seconds, tally):
    """Closed loop: set up, run one child, check it; until the time is used.

    The child and the calibration kernel share one CPU, the last this
    process may use; each child's times are rescaled to the reference
    machine's speed by the slices taken during its run.
    """
    samples = {name: [] for name, _ in END_TO_END}
    host = {"wall_s": [], "cpu_s": [], "calib_s": []}
    gap = None
    cpu = max(os.sched_getaffinity(0))
    calib = Calibrator(bins, cpu)
    try:
        start = time.perf_counter()
        n = 0
        while True:
            iteration = time.perf_counter()
            setup_s, inputs = setup(workload, bins, os.path.join(workdir, "run%d" % n))
            out = os.path.join(workdir, "run%d.out" % n)
            wall, cpu_s, rss, rc, slice_s = run_calibrated(repro_cmd(workload, bins, inputs), bins, out, calib, cpu)
            text = read(out)
            tally.add(text, rc, inputs)
            if workload == "matrix" and gap is None:
                gap = paper_gap_pp(text)
            speed = (CALIB_REF_S / slice_s) ** SPEED_EXPONENT
            for name, value in (
                ("wall_s", wall * speed),
                ("cpu_s", cpu_s * speed),
                ("peak_rss_mib", rss),
                ("setup_s", setup_s * speed),
            ):
                samples[name].append(value)
            for name, value in (("wall_s", wall), ("cpu_s", cpu_s), ("calib_s", slice_s)):
                host[name].append(value)
            log(
                "child %d: host wall %.3f s, cpu %.3f s, slice %.4f s; rss %.1f MiB, setup %.4f s"
                % (n, wall, cpu_s, slice_s, rss, setup_s)
            )
            shutil.rmtree(os.path.join(workdir, "run%d" % n))
            n += 1
            took = time.perf_counter() - iteration
            if time.perf_counter() - start + took > seconds:
                break
    finally:
        calib.close()
    if workload == "matrix":
        if gap is None:
            log("paper_gap_pp: T2/F6 headline sentences not found")
        else:
            print("paper_gap_pp %s pp" % repr(gap))
    # The unscaled medians, for comparison with a stopwatch.
    for name, values in host.items():
        print("host_%s %s s" % (name, repr(statistics.median(values))))
    return {name: statistics.median(values) for name, values in samples.items()}


def parse_telemetry(path):
    events = []
    with open(path) as f:
        for line in f:
            if line.strip():
                events.append(json.loads(line))
    return events


def traced(workload, bins, workdir, tally):
    """A traced child between two untraced ones, then the layer probe."""

    def child(name, extra=(), heartbeats=None, jobs=JOBS):
        _, inputs = setup(workload, bins, os.path.join(workdir, name))
        out = os.path.join(workdir, name + ".out")
        wall, cpu, _, rc = run_child(repro_cmd(workload, bins, inputs, extra, jobs), out, heartbeats)
        tally.add(read(out), rc, inputs)
        return wall, cpu, rc, inputs, out

    # The host's speed while the layers are measured.
    calib = Calibrator(bins, max(os.sched_getaffinity(0)))
    try:
        slices = [calib.slice() for _ in range(20)]
    finally:
        calib.close()
    # Untraced children on both sides, so drift from one child to the
    # next does not land in the tracing overhead.
    before = child("plain0")
    telemetry = os.path.join(workdir, "telemetry.jsonl")
    beats = []
    wall1, cpu1, rc, inputs, out = child("traced", ["--progress", "--telemetry", telemetry], beats)
    if not os.path.isfile(telemetry):
        raise BenchError("traced run wrote no telemetry (exit %d)" % rc)
    after = child("plain1")
    wall0 = (before[0] + after[0]) / 2
    parallel = child("parallel", jobs=PARALLEL_JOBS)

    probe_cmd = [bins["reprobench-probe"], workload]
    if WORKLOADS[workload]["search"]:
        probe_cmd += ["--corpus", inputs["corpus"], "--journal", inputs["checkpoint"], "--front", out]
    proc = subprocess.run(probe_cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("layer probe failed")
    probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])

    m = attribute(parse_telemetry(telemetry), probe, beats, wall1, cpu1)
    m["parallel.cpu_util"] = parallel[1] / (parallel[0] * PARALLEL_JOBS)
    m["trace.overhead_frac"] = wall1 / wall0 - 1.0
    m["host.calib_s"] = statistics.mean(slices)
    return m


def attribute(events, probe, beats, wall, cpu):
    """Per-layer metrics: probe unit costs times the traced run's counts."""
    kinds = {}
    for e in events:
        kinds.setdefault(e["kind"], []).append(e)
    points = kinds.get("point", [])
    scalar = [p for p in points if p["total"] == 1]
    counters = {c["name"]: c["value"] for c in kinds.get("counter", [])}
    arena = (kinds.get("arena") or [{"hits": 0, "misses": 0, "rejected": 0}])[-1]
    trace_io = (kinds.get("trace_io") or [{"chunks_decoded": 0, "decode_errors": 0}])[-1]
    mrc = kinds.get("mrc", [])
    search = kinds.get("search", [])
    appends = [c for c in kinds.get("checkpoint", []) if c["event"] == "append"]

    chunk = probe["chunk_refs"]
    sim_refs = counters.get("sim_refs", 0)
    # Scalar cells own their generator and L1 pair; lock-step groups
    # fetch shared chunks through the arena. The telemetry counts refs
    # only in total, so a workload mixing both splits them by points.
    scalar_refs = sim_refs * len(scalar) / len(points) if points else 0
    lookups = arena["hits"] + arena["misses"]
    decoded = trace_io["chunks_decoded"]
    gen_refs = scalar_refs + max(0, arena["misses"] - decoded) * chunk
    decode_refs = decoded * probe.get("decode.refs_per_chunk", chunk)
    filter_refs = scalar_refs + lookups * chunk
    lane_events = sim_refs * probe["filter.l2_visible_frac"]
    grid = sum(e["grid"] for e in mrc)
    evaluated = sum(e["population"] for e in search)

    m = {
        "trace.gen.ns_per_ref": probe["gen.ns_per_ref"],
        "trace.gen.refs": gen_refs,
        "trace.decode.ns_per_ref": probe.get("decode.ns_per_ref", 0.0),
        "trace.decode.chunks": decoded,
        "trace.decode.errors": trace_io["decode_errors"],
        "l1.filter.ns_per_ref": probe["filter.ns_per_ref"],
        "l1.filter.l2_visible_frac": probe["filter.l2_visible_frac"],
        "l2.replay.ns_per_event": probe["replay.ns_per_event"],
        "l2.replay.lane_events": lane_events,
        "energy.finish.ns_per_report": probe["energy.ns_per_report"],
        "mrc.profile.ns_per_ref": probe.get("mrc.profile_ns_per_ref", 0.0),
        "mrc.score.ns_per_grid": probe.get("mrc.score_ns_per_grid", 0.0),
        "mrc.pruned_frac": sum(e["pruned"] for e in mrc) / grid if grid else 0.0,
        "arena.hit_frac": arena["hits"] / lookups if lookups else 0.0,
        "arena.rejected": arena["rejected"],
        "search.rank.ns": probe.get("rank.ns", 0.0),
        "search.evaluated": evaluated,
        "search.simulated": sum(e["evals_simulated"] for e in search),
        "search.cached_frac": sum(e["evals_cached"] for e in search) / evaluated if evaluated else 0.0,
        "journal.append.ns_per_record": probe.get("journal.append_ns_per_record", 0.0),
        "journal.bytes": probe.get("journal.bytes", 0),
        "journal.resume.s": probe.get("journal.resume_s", 0.0),
    }
    cpu_ns = {
        "trace.gen.s": m["trace.gen.ns_per_ref"] * gen_refs,
        "trace.decode.s": m["trace.decode.ns_per_ref"] * decode_refs,
        "l1.filter.s": m["l1.filter.ns_per_ref"] * filter_refs,
        "l2.replay.s": m["l2.replay.ns_per_event"] * lane_events,
        "energy.finish.s": m["energy.finish.ns_per_report"] * len(points),
        # One profiling pass and one scoring call per pruning decision.
        "mrc.s": len(mrc)
        * (probe.get("mrc.profile_self_ns_per_ref", 0.0) * probe["refs"] + m["mrc.score.ns_per_grid"]),
        # One ranking per generation.
        "search.rank.s": m["search.rank.ns"] * len(search),
        "journal.append.s": m["journal.append.ns_per_record"] * len(appends),
    }
    # Heartbeats mark each experiment's start; the child's exit ends the last.
    starts = [(t, line.split()[1]) for t, line in beats if line.startswith("[progress] ")]
    for i in ALL_IDS:
        m["exp.%s.s" % i] = 0.0
    for k, (t, exp) in enumerate(starts):
        end = starts[k + 1][0] if k + 1 < len(starts) else wall
        m["exp.%s.s" % exp] = end - t
    experiments = (wall - starts[0][0]) if starts else wall

    # Layer CPU time becomes wall time at the child's own parallelism.
    # Estimates that over-explain the CPU the child spent in its
    # experiments are scaled down to it, so attributed time never exceeds
    # the experiments' wall time; attributed_cpu_frac keeps the raw ratio.
    budget_ns = cpu * 1e9 * experiments / wall
    estimate_ns = sum(cpu_ns.values())
    m["attributed_cpu_frac"] = estimate_ns / budget_ns
    scale = min(1.0, budget_ns / estimate_ns) if estimate_ns else 1.0
    for name, ns in cpu_ns.items():
        m[name] = ns * scale / budget_ns * experiments
    m["attributed_s"] = sum(m[name] for name in cpu_ns)
    # Clamped only against float rounding when the layers were scaled.
    m["unattributed_s"] = max(0.0, experiments - m["attributed_s"])
    return m


def become_subreaper():
    """Makes orphaned descendants this process's children, so a child
    whose launcher is killed can still be waited for."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--record-digests",
        action="store_true",
        help="run the workload once and store its block digests as the reference",
    )
    args = ap.parse_args()
    # A terminated run unwinds, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()

    workdir = os.path.join(ROOT, ".bench_work", "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        bins = build()
        os.makedirs(workdir, exist_ok=True)
        if args.record_digests:
            record_digests(args.workload, bins, workdir)
            return 0
        tally = Tally(args.workload, load_digests())
        if args.trace:
            values = traced(args.workload, bins, workdir, tally)
            spec = PER_LAYER
        else:
            values = end_to_end(args.workload, bins, workdir, args.seconds, tally)
            spec = END_TO_END
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    metrics = {}
    for name, unit in spec:
        print("%s %s %s" % (name, repr(float(values[name])), unit))
        metrics[name] = {"value": float(values[name]), "unit": unit}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def record_digests(workload, bins, workdir):
    _, inputs = setup(workload, bins, os.path.join(workdir, "record"))
    out = os.path.join(workdir, "record.out")
    _, _, _, rc = run_child(repro_cmd(workload, bins, inputs), out)
    blocks, footer = split_blocks(read(out))
    problems = footer_problems(workload, footer, inputs)
    if "[FAIL]" in "".join(blocks.values()):
        problems.append("failed claim")
    if rc != 0 or problems or sorted(blocks) != sorted(WORKLOADS[workload]["ids"]):
        raise BenchError("refusing to record a failing run: exit %d, %s" % (rc, problems))
    digests = load_digests() if os.path.exists(DIGESTS) else {}
    digests[workload] = {i: digest(blocks[i]) for i in WORKLOADS[workload]["ids"]}
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded %d digest(s) for %s" % (len(blocks), workload))


if __name__ == "__main__":
    sys.exit(main())
