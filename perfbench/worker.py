"""Run one workload's CLI commands repeatedly in this (fresh) process.

    python3 perfbench/worker.py JOB.json RESULT.json

JOB.json holds the command records from ``workloads.write_commands``, the
time budget in seconds, and whether to trace.  Each repetition calls
``fracflow.cli.main`` once per command and times it from entry to return;
outputs are checked against the reference after each call, outside the
timed region.  Repetitions continue while another one fits the budget;
there is always at least one.  A traced job alternates untraced and
traced repetitions, so both walls come from the same process.

RESULT.json receives the per-repetition walls, the operation counts, the
check messages, the peak resident memory of this process after its first
(untraced) repetition, the per-layer metrics of each traced repetition,
and the package versions.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _run_once(cli_main, commands, reference, tracer=None) -> dict:
    wall = 0.0
    attempted = failed = 0
    messages = []
    for cmd in commands:
        shutil.rmtree(cmd["out"], ignore_errors=True)
        t0 = time.perf_counter()
        try:
            rc = cli_main(cmd["argv"])
        except Exception:  # a crash fails the operation; the run goes on
            traceback.print_exc()
            rc = -1
        wall += time.perf_counter() - t0
        n, bad, msgs = workloads.check_command(
            cmd["kind"], Path(cmd["out"]), rc, reference[cmd["kind"]])
        attempted += n
        failed += bad
        messages += msgs
    rep = {"wall_s": wall, "attempted": attempted, "failed": failed,
           "messages": messages}
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer.spans)
    return rep


def _write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, layer, start, end, parent, child, info, raised) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "self_s": end - start - child,
                                 "info": info, "raised": raised}) + "\n")


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    reference = json.loads(workloads.REFERENCE.read_text())
    from fracflow.cli import main as cli_main

    deadline = time.perf_counter() + job["seconds"]
    reps = []
    spans = None
    while True:
        start = time.perf_counter()
        reps.append(_run_once(cli_main, job["commands"], reference))
        if len(reps) == 1:
            # read after one repetition, so that the number of repetitions
            # that fit the budget cannot move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["trace"]:
            with Tracer() as tracer:
                reps.append(_run_once(cli_main, job["commands"], reference, tracer))
            spans = tracer.spans
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break

    if spans is not None:
        _write_spans(spans, Path(job["spans_path"]))
    result = {
        "reps": reps,
        "peak_rss_mb": peak_rss_mb,
        "versions": _versions(),
        "fracflow": sys.modules["fracflow"].__file__,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
