#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the repository root:

    python3 reprobench/selftest.py

Builds the binaries as run.py does, runs the search workload once, and
shows that the checks accept its report but count as failed operations:

* one flipped byte in an experiment block (digest mismatch);
* a `[FAIL]` claim, an ABORTED block and a non-zero exit;
* a silent fallback from `--trace` to generation: a corpus that matches
  no stream leaves the report body byte-identical, so only the footer
  check that chunks were decoded can catch it.

Exits 0 when every case is counted as expected.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = "search"


def search_report(bins, workdir, name, corpus_args=None):
    """Runs the search workload once; `corpus_args` re-records its corpus."""
    _, inputs = run.setup(WORKLOAD, bins, os.path.join(workdir, name))
    if corpus_args is not None:
        shutil.rmtree(inputs["corpus"])
        if run.run_quiet([bins["trace_corpus"], "record", inputs["corpus"]] + corpus_args) != 0:
            raise run.BenchError("trace_corpus record failed")
    out = os.path.join(workdir, name + ".out")
    _, _, _, rc = run.run_child(run.repro_cmd(WORKLOAD, bins, inputs), out)
    return run.read(out), rc, inputs


def flip_byte_in_block(text, exp_id):
    """Flips the lowest bit of the first digit after the block's heading."""
    start = text.index("\n", text.index("## %s " % exp_id))
    pos = next(i for i in range(start, len(text)) if text[i].isdigit())
    return text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1 :]


def main():
    bins = run.build()
    digests = run.load_digests()
    workdir = os.path.join(run.ROOT, ".bench_work", "selftest-%d" % os.getpid())
    ops = len(run.WORKLOADS[WORKLOAD]["ids"])
    results = []

    def expect(case, text, rc, inputs, failed, problem=None):
        _, got, problems = run.check(WORKLOAD, text, rc, inputs, digests)
        ok = got == failed and (problem is None or any(problem in p for p in problems))
        results.append(ok)
        print("%s %s: %d of %d operation(s) failed %s" % ("ok  " if ok else "FAIL", case, got, ops, problems))

    try:
        text, rc, inputs = search_report(bins, workdir, "good")
        expect("correct report", text, rc, inputs, 0)
        expect("flipped byte in M1", flip_byte_in_block(text, "M1"), rc, inputs, 1, "M1: digest mismatch")
        expect("failed claim in S1", text.replace("[PASS] S1", "[FAIL] S1", 1), rc, inputs, 1, "S1: failed claim")
        aborted = text.replace("## S1 — ", "## S1 — ABORTED\n\n## x — ", 1)
        expect("aborted S1", aborted, rc, inputs, 1, "S1: aborted")
        expect("non-zero exit", text, 1, inputs, ops, "exit code 1")

        # A corpus of another app registers fine but matches no stream,
        # so repro generates the trace instead of decoding it.
        text, rc, inputs = search_report(bins, workdir, "fallback", ["--apps", "music", "--refs", "300000"])
        blocks, _ = run.split_blocks(text)
        same_body = all(run.digest(blocks[i]) == digests[WORKLOAD][i] for i in blocks)
        print("     fallback report body identical to the reference: %s" % same_body)
        expect("silent fallback to generation", text, rc, inputs, ops, "fell back to generation")
    except run.BenchError as e:
        run.log(str(e))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
