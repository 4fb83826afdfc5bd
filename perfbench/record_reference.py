"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload once (seed 0) through ``fracflow.cli.main`` from the
``src/`` tree next to this directory, and writes the outputs the checks
read to ``perfbench/reference.json``.  Run it only at a commit whose
outputs are known to be right: a later change that moves an output
beyond the check tolerances fails the benchmark's correctness check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    from fracflow.cli import main as cli_main

    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    for name in workloads.WORKLOADS:
        for cmd in workloads.write_commands(name, 0, work):
            rc = cli_main(cmd["argv"])
            if rc != 0:
                print(f"{name}: {cmd['kind']} exited {rc}", file=sys.stderr)
                return 1
            got = workloads.READERS[cmd["kind"]](Path(cmd["out"]))
            if cmd["kind"] == "sweep":
                got = {"J": got["J"], "J_star": got["J_star"]}
            elif cmd["kind"] == "solve":
                got = {"PDD": got["PDD"], "J_p": got["J_p"], "nodes": got["vtk_points"]}
            reference[cmd["kind"]] = got
    shutil.rmtree(work)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
