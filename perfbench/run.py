"""fracflow benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload sweep_5x5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root.  ``--workload all`` runs every workload in
turn.  The program is the ``src/`` tree next to this directory; nothing
is installed or built.

For each workload it
  * writes the workload's config files from ``--seed`` (``workloads.py``);
  * measures ``setup_s`` in fresh interpreters: import ``fracflow.cli`` and
    ``parse_config`` every config, median of ``SETUP_REPEATS``;
  * runs the CLI commands in one fresh worker process (``worker.py``) for
    ``--seconds``, with BLAS threads pinned to 1, and checks every output
    against ``reference.json``;
  * prints each metric by name with its unit, the environment, and as the
    last line one JSON object with the keys correct, attempted, failed
    and metrics.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
over repetitions of the time spent inside ``fracflow.cli.main``, summed
over the workload's commands), ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` they are the per-layer ones from ``tracer.py`` plus the
tracing overhead; never take end-to-end numbers from a traced run.  Full
results, the environment and (traced) the spans go to
``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_factorization")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


SETUP_SNIPPET = """\
import sys, time
t = time.perf_counter()
import fracflow.cli
from fracflow.config import parse_config
for path in sys.argv[1:]:
    parse_config(path)
print(time.perf_counter() - t, fracflow.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"fracflow was imported from {path}, not from {ROOT / 'src'}")


def measure_setup(commands) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *(c["config"] for c in commands)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        seconds, path = proc.stdout.split()
        _check_source(path)
        times.append(float(seconds))
    return statistics.median(times)


def run_worker(commands, seconds: int, trace: bool, work: Path, spans_path: Path) -> dict:
    job, result = work / "job.json", work / "result.json"
    job.write_text(json.dumps({"commands": commands, "seconds": seconds,
                               "trace": trace, "spans_path": str(spans_path)}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job), str(result)],
        cwd=ROOT, env=_child_env(), stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    _check_source(data["fracflow"])
    return data


def _layer_summary(reps) -> tuple[dict, list[str]]:
    """Median of each per-layer time; counts must repeat exactly."""
    out, problems = {}, []
    for key in reps[0]["layers"]:
        values = [r["layers"][key] for r in reps]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between traced repetitions: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, problems


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(versions: dict) -> dict:
    return dict(versions,
                nproc=os.cpu_count(),
                cpus_available=len(os.sched_getaffinity(0)),
                blas_threads=BLAS_THREADS,
                git_commit=_git_commit(),
                source_sha256=_source_digest())


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    results = ROOT / ".perfbench_results"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        commands = workloads.write_commands(name, seed, work)
        setup_s = None if trace else measure_setup(commands)
        data = run_worker(commands, seconds, trace, work, results / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = data["reps"]
    messages = sorted({m for r in reps for m in r["messages"]})
    if trace:
        plain, traced = reps[0::2], reps[1::2]
        values, problems = _layer_summary(traced)
        messages += problems
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values.update({"trace.wall_s": traced_wall,
                       "trace.untraced_wall_s": plain_wall,
                       "trace.overhead_s": traced_wall - plain_wall})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {"wall_s": statistics.median(r["wall_s"] for r in reps),
                  "setup_s": setup_s,
                  "peak_rss_mb": data["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    summary = {"correct": failed == 0 and not messages, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = dict(summary, workload=name, seed=seed, seconds=seconds, trace=trace,
                  repetitions=len(reps), walls_s=[r["wall_s"] for r in reps],
                  messages=messages, environment=environment(data["versions"]))
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  repetitions {len(reps)}")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_rate':36s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations failed)")
    for msg in messages:
        print(f"  CHECK FAILED: {msg}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "fracflow" / "cli.py").is_file():
        print(f"no fracflow source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                     for n in names}
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{k}": m for n, s in summaries.items()
                             for k, m in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
