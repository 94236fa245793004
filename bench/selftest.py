"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that one seed always gives byte-identical inputs, that a
perturbed output of every workload is counted as a failure, that every
workload serves one request cleanly, and that BENCHMARK.json describes
the workloads this package defines. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, Request

WORK = run.WORK / "selftest"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _perturb(out: str) -> str:
    """Shift the first result value, or flip a verify verdict."""
    doc = json.loads(out)
    if "pass" in doc:
        doc["pass"] = not doc["pass"]
    else:
        key = next(k for k in ("mean", "mmd2", "value") if k in doc)
        doc[key] += 0.01 * max(1.0, abs(doc[key]))
    return json.dumps(doc) + "\n"


def main() -> int:
    problems = []
    run.prepare()
    cli = run.import_kembed()["cli"]
    shutil.rmtree(WORK, ignore_errors=True)
    for name, workload in sorted(WORKLOADS.items()):
        first = workload.generate(7, WORK / name / "a", run.ROOT)
        workload.generate(7, WORK / name / "b", run.ROOT)
        workload.generate(8, WORK / name / "c", run.ROOT)
        a, b, c = (_files(WORK / name / d) for d in "abc")
        if a != b:
            problems.append(f"{name}: seed 7 gave different inputs on two generations")
        if a == c:
            problems.append(f"{name}: seeds 7 and 8 gave the same inputs")

        # A perturbed output must be counted as a failure.
        request = first.warmup

        def perturbed(code, out, check=request.check):
            check(code, _perturb(out))

        client = run.Client(cli)
        client.serve(request)
        if client.failures:
            problems.append(f"{name}: smoke request failed: {client.failures}")
        client.serve(Request(request.argv, perturbed))
        if len(client.failures) != 1:
            problems.append(f"{name}: a perturbed output was not counted as a failure")
        print(f"{name}: {client.attempted} requests, {len(client.failures)} failed as expected")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"]: w["why"] for w in bench["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
