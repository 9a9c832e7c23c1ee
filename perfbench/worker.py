"""The workload process: one thread running ``minimize`` in a closed loop.

Started by ``run.py`` with the path of a job file.  It imports wbisim,
warms up on a tiny document, prints ``ready`` (the end of set-up), then
runs the job and writes its result file:

* ``probe``: nothing after ``ready``; only set-up is measured.
* ``timed``: the first documents once each, untimed, under
  ``tracemalloc`` for the heap each one needs; then rounds of operations,
  one per document, until ``seconds`` have passed since the start of the
  job.  Each operation is ``wbisim.cli.main(["minimize", doc,
  "--equivalence", mode])`` with stdout captured, followed by one unit of
  reference work (``reference.py``) timed on its own; an operation's
  reference time is the mean of the units right before and right after it.
* ``traced``: every document untraced, under spans and under call
  counters, twice over, so counts cover a fixed amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
import tracemalloc

from reference import reference_seconds
from tracer import CallCounter, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_ROUNDS = 2
HEAP_DOCS = 6


def run_op(cli, path, mode):
    """One operation: (exit code, or None if it raised; seconds; stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["minimize", path, "--equivalence", mode])
    except Exception:
        rc = None
    seconds = time.perf_counter() - start
    if rc is None:
        traceback.print_exc()
    return rc, seconds, out.getvalue()


def _record(job, i, doc, mode, rc, seconds, text):
    path = os.path.join(job["out_dir"], "op%d.json" % i)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"doc": doc, "mode": mode, "rc": rc, "s": seconds, "out": path}


def timed(cli, job):
    """Measures for ``seconds`` in all.  First the first ``HEAP_DOCS``
    documents once each, untimed, under ``tracemalloc``; then rounds of
    operations over all the documents until the time is up, so the
    repeats of each document are spread over the run.  Each timed
    operation is followed by one timed unit of reference work; the units
    on both sides of an operation follow the machine's speed during it
    more closely than one alone."""
    docs = job["docs"]
    deadline = time.perf_counter() + job["seconds"]
    heap_ops = [heap_op(cli, job, i, path, mode) for i, (path, mode) in enumerate(docs[:HEAP_DOCS])]
    ops = []
    before = reference_seconds()
    while not ops or time.perf_counter() < deadline:
        for d, (path, mode) in enumerate(docs):
            rc, seconds, text = run_op(cli, path, mode)
            op = _record(job, len(heap_ops) + len(ops), d, mode, rc, seconds, text)
            after = reference_seconds()
            op["ref"] = (before + after) / 2
            before = after
            ops.append(op)
            if time.perf_counter() >= deadline:
                break
    return {"ops": ops, "heap_ops": heap_ops}


def heap_op(cli, job, doc, path, mode):
    """One untimed operation under tracemalloc: the peak of the Python heap
    it allocated, in MB.  Tracing slows an operation about three times, so
    only the first ``HEAP_DOCS`` documents get one each."""
    tracemalloc.start()
    try:
        rc, seconds, text = run_op(cli, path, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    op = _record(job, doc, doc, mode, rc, seconds, text)
    op["heap_mb"] = peak / 2**20
    return op


def _pass(cli, docs):
    start = time.perf_counter()
    results = [run_op(cli, path, mode) for path, mode in docs]
    return time.perf_counter() - start, results


def traced(wb, job):
    """Untraced, span and counting passes over the documents, taken in turn
    ``TRACE_ROUNDS`` times.  The fastest pass of each kind is reported;
    the counting passes must agree exactly."""
    docs = job["docs"]
    texts = []
    best = {}
    counts = []
    for _ in range(TRACE_ROUNDS):
        for kind, tracer in (("plain", None), ("spans", SpanRecorder()), ("counts", CallCounter())):
            if tracer is None:
                wall, results = _pass(wb.cli, docs)
            else:
                with tracer.install(wb):
                    wall, results = _pass(wb.cli, docs)
            texts.append([r[2] for r in results])
            if kind not in best or wall < best[kind][0]:
                best[kind] = (wall, results, tracer)
            if kind == "counts":
                counts.append((dict(tracer.counts), tracer.maxima))
    plain = best["plain"][1]
    return {
        "ops": [
            _record(job, d, d, mode, rc, seconds, text)
            for d, ((_, mode), (rc, seconds, text)) in enumerate(zip(docs, plain))
        ],
        # a traced pass must not change what the program prints
        "changed_by_tracing": sum(other != texts[0] for other in texts),
        "counts_repeat": all(c == counts[0] for c in counts),
        "walls": {kind: entry[0] for kind, entry in best.items()},
        "spans": best["spans"][2].totals(),
        "counts": counts[0][0],
        "maxima": counts[0][1],
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, SRC)
    import wbisim

    for path, mode in job["warmup"]:
        run_op(wbisim.cli, path, mode)
    print("ready", flush=True)
    if job["kind"] == "probe":
        return 0
    if job["kind"] == "timed":
        result = timed(wbisim.cli, job)
    else:
        result = traced(wbisim, job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
