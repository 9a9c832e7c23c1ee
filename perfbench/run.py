"""wbisim minimize benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload strong-sparse --seed 1 --seconds 25 --trace 0
    python3 -m pytest perfbench/tests      # the benchmark's own tests

Generates the workload's documents from the seed, measures set-up in
fresh processes, runs the operations in one worker process (``worker.py``)
and then checks every output, untimed.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each document is minimized once per round, in rounds spread over the
whole run.  Times are reported relative to a fixed unit of reference work
because on the shared machine the benchmark was built on, raw times
drifted between runs by far more than any useful regression bound; the
line before the JSON gives the plain seconds as well.

``--trace 0`` reports the end-to-end metrics:

* ``minimize_ref.p50``: median over the documents of the wall time of one
  ``minimize`` in units of the reference work (``reference.py``) timed
  right before and right after it; per document, the median over its
  repeats.
* ``states_per_ref``: states minimized per unit of reference time, over
  the same per-document costs, so slow documents weigh more than in the
  p50.
* ``heap_peak_mb``: median over the first documents of the peak Python
  heap that one ``minimize`` allocated, traced by ``tracemalloc`` in an
  untimed extra operation on each.  The interpreter, the imports and the
  benchmark's own data are not in it, so it moves with the program's own
  memory (closures, denominators).
* ``setup_s``: median over several fresh processes of the time from
  start until the first operation can be issued (interpreter, ``import
  wbisim`` and a warm-up on a tiny document).

``--trace 1`` runs a fixed number of documents untraced, under spans and
under call counters (see ``worker.py`` and ``tracer.py``) and reports
per-layer metrics, each per operation averaged over those documents.
``trace.*_overhead`` is the traced wall time over the untraced one.

Failures (an exception, a nonzero exit, an output that fails its check)
count in ``failed``.  Besides the timed operations, every run minimizes a
member of each generator family with at most 8 states and compares it
with the brute-force coarsest partition; those count as attempted too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import TINY, WORKLOADS, make_instance
from worker import ROOT, SRC, run_op

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(HERE, ".work")
SETUP_PROBES = 12  # extra fresh processes; with the worker itself, 13 samples
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not take a measurement."""


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _spawn(job, work):
    """Run the worker on a job; returns (result or None, seconds until ready)."""
    job_path = _write(os.path.join(work, "job-%s.json" % job["kind"]), json.dumps(job))
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError("worker did not get ready (said %r)" % line)
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran longer than %d s" % WORKER_TIMEOUT_S) from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0:
        raise BenchError("worker exited with code %d" % rc)
    if job["kind"] == "probe":
        return None, ready
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh), ready


def _oracle_failures(wbisim, verify, workload, seed, work):
    """Tiny member of each family, every mode of the workload: the program's
    partition must pass its check and equal the brute-force one."""
    failures = []
    for family, size in TINY.items():
        rng = random.Random("%s/%d/oracle/%s" % (workload.name, seed, family))
        inst = make_instance(family, rng, **size)
        path = _write(os.path.join(work, "oracle-%s.json" % family), inst.text())
        w = wbisim.load(inst.doc)
        for mode in workload.modes:
            rc, _, text = run_op(wbisim.cli, path, mode)
            reason = verify.check_output(w, inst, mode, rc, text)
            if reason is None and verify.parse_partition(w, mode, text) != wbisim.brute_coarsest_partition(w, mode):
                reason = "disagrees with the brute-force coarsest partition"
            if reason is not None:
                failures.append("oracle %s/%s: %s" % (family, mode, reason))
    return failures


def _op_failures(wbisim, verify, instances, ops):
    """Check every operation.  Repeats of a document mostly print the same
    bytes, and an output identical to one already checked gets its verdict,
    so the checking time does not grow with the number of rounds."""
    failures = []
    loaded = {}
    verdicts = {}
    for i, op in enumerate(ops):
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
        d, mode = op["doc"], op["mode"]
        key = (d, mode, op["rc"], text)
        if key not in verdicts:
            if d not in loaded:
                loaded[d] = wbisim.load(instances[d].doc)
            verdicts[key] = verify.check_output(loaded[d], instances[d], mode, op["rc"], text)
        if verdicts[key] is not None:
            failures.append("operation %d (document %d, %s): %s" % (i, d, mode, verdicts[key]))
    return failures


def _block_count(op):
    with open(op["out"], encoding="utf-8") as fh:
        try:
            return len(json.load(fh)["blocks"])
        except (ValueError, KeyError, TypeError):
            return 0  # already counted as a failure


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(instances, result, setup):
    """Each document's cost is the median, over its repeats, of operation
    time over the reference time measured around it."""
    ratios = {}
    for op in result["ops"]:
        ratios.setdefault(op["doc"], []).append(op["s"] / op["ref"])
    cost = {d: statistics.median(r) for d, r in ratios.items()}
    states = sum(len(instances[d].doc["states"]) for d in cost)
    return {
        "minimize_ref.p50": _metric(statistics.median(cost.values()), "ref"),
        "states_per_ref": _metric(states / sum(cost.values()), "states/ref"),
        "heap_peak_mb": _metric(statistics.median(op["heap_mb"] for op in result["heap_ops"]), "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }


def _raw_summary(result):
    """Plain seconds for the human-readable line: median over documents of
    each document's median operation time, and of the reference."""
    by_doc = {}
    for op in result["ops"]:
        by_doc.setdefault(op["doc"], []).append(op["s"])
    op_s = statistics.median(statistics.median(v) for v in by_doc.values())
    ref_s = statistics.median(op["ref"] for op in result["ops"])
    return "minimize %.4f s, reference %.4f s" % (op_s, ref_s)


def per_layer(result):
    """Per-operation layer metrics from the three traced passes."""
    k = len(result["ops"])
    spans = result["spans"]
    counts = result["counts"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1] / k

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2] / k

    def calls(name):
        return counts.get(name, 0) / k

    metrics = {
        "cli.self_s": _metric(self_time("cli"), "s"),
        "wlts.load_s": _metric(total("wlts.load"), "s"),
        "bisim.self_s": _metric(self_time("bisim.refine"), "s"),
        "bisim.split_s": _metric(total("bisim.split"), "s"),
        "solver.table_s": _metric(total("solver.table"), "s"),
        "solver.table_self_s": _metric(self_time("solver.table"), "s"),
        "solver.star_closure_s": _metric(total("solver.star_closure"), "s"),
        "solver.closure_apply_s": _metric(total("solver.closure_apply"), "s"),
        "wlts.class_weight_calls": _metric(calls("wlts.class_weight"), "count"),
        "solver.table_calls": _metric(calls("solver.table"), "count"),
        "solver.star_closure_calls": _metric(calls("solver.star_closure"), "count"),
        "solver.closure_nnz": _metric(calls("solver.closure_nnz"), "count"),
        "solver.closure_apply_calls": _metric(calls("solver.closure_apply"), "count"),
        "solver.closure_fill.max": _metric(result["maxima"]["solver.closure_fill"], "ratio"),
        "solver.den_bits.max": _metric(result["maxima"]["solver.den_bits"], "bits"),
        "bisim.split_calls": _metric(calls("bisim.split"), "count"),
        "bisim.split_hit_ratio": _metric(
            counts.get("bisim.split_hit", 0) / max(1, counts.get("bisim.split", 0)), "ratio"
        ),
        "bisim.blocks": _metric(result["blocks"] / k, "count"),
        "trace.spans_overhead": _metric(result["walls"]["spans"] / result["walls"]["plain"], "ratio"),
        "trace.counts_overhead": _metric(result["walls"]["counts"] / result["walls"]["plain"], "ratio"),
    }
    for op in ("add", "mul", "star", "values_equal"):
        metrics["semiring.%s_calls" % op] = _metric(calls("semiring." + op), "count")
    return metrics


def run(wbisim, verify, workload, args, work):
    count = workload.traced_docs if args.trace else workload.docs
    instances = [
        workload.make(random.Random("%s/%d/%d" % (workload.name, args.seed, d)))
        for d in range(count)
    ]
    docs = [
        [_write(os.path.join(work, "doc%d.json" % d), inst.text()), workload.modes[d % len(workload.modes)]]
        for d, inst in enumerate(instances)
    ]
    tiny = make_instance(workload.family, random.Random("warm-up"), **TINY[workload.family])
    warm_path = _write(os.path.join(work, "warm-up.json"), tiny.text())
    out_dir = os.path.join(work, "out")
    os.mkdir(out_dir)
    job = {
        "kind": "traced" if args.trace else "timed",
        "docs": docs,
        "warmup": [[warm_path, mode] for mode in workload.modes],
        "seconds": args.seconds,
        "out_dir": out_dir,
        "result": os.path.join(work, "result.json"),
    }

    def probes(count):
        if args.trace:
            return []
        return [_spawn(dict(job, kind="probe"), work)[1] for _ in range(count)]

    # half the set-up probes before the operations and half after, so a
    # slow spell of the machine does not colour all of them
    setup = probes(SETUP_PROBES // 2)
    result, ready = _spawn(job, work)
    setup.append(ready)
    setup += probes(SETUP_PROBES - SETUP_PROBES // 2)

    ops = result["ops"]
    checked = ops + result.get("heap_ops", [])
    failures = _op_failures(wbisim, verify, instances, checked)
    if args.trace and result["changed_by_tracing"]:
        failures.append("%d traced passes printed other outputs" % result["changed_by_tracing"])
    if args.trace and not result["counts_repeat"]:
        failures.append("two counting passes over the same documents disagree")
    failures += _oracle_failures(wbisim, verify, workload, args.seed, work)
    for reason in failures[:10]:
        print("FAILED %s" % reason, file=sys.stderr)

    if args.trace:
        result["blocks"] = sum(_block_count(op) for op in ops)
        metrics = per_layer(result)
    else:
        metrics = end_to_end(instances, result, setup)
    attempted = len(checked) + len(TINY) * len(workload.modes)
    print(
        "%s seed %d: %d operations on %d documents, %d failed%s"
        % (
            workload.name,
            args.seed,
            len(ops),
            min(len(ops), count),
            len(failures),
            "" if args.trace else "; " + _raw_summary(result),
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import wbisim
        import verify
    except ImportError as exc:
        print("perfbench: cannot import wbisim from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return run(wbisim, verify, WORKLOADS[args.workload], args, work)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
