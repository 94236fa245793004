"""Benchmark of the kembed command-line interface.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One closed-loop client in this process
sends requests to ``kembed.cli.run(argv)``: the next request starts when
the previous one returns. Inputs are generated from the seed; every
output is checked. Set-up (importing kembed, generating the inputs,
serving one warm-up request) is repeated and its median reported.

With ``--trace 0`` the loop runs untraced and the last line of stdout
reports the end-to-end metrics. With ``--trace 1`` the first half of the
time runs untraced and the second half traced; the last line reports
per-request per-layer metrics and the tracing overhead, and the spans are
written under ``.bench_work/``. The line before the last holds the
details: environment, request counts, tail percentile and failures.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is imported: at most the cores
# this process may run on.
_NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(_NPROC))

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 3
WORK = ROOT / ".bench_work"
KEMBED_MODULES = ("cli", "dictionary", "combinators", "kernels", "measures", "oracle", "quadrature")


# --- environment --------------------------------------------------------------


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = _blas_threads()
    if threads is None:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "nproc": _NPROC,
    }


# --- requests -------------------------------------------------------------------


class Client:
    """Sends requests to the CLI and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.by_kind = defaultdict(list)

    def serve(self, request) -> float:
        """Run one request, check its output and return its wall time."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.run(list(request.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an untyped error is a failed request, not a crash
                code = None
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
        try:
            if code is None:
                raise CheckFailed("uncaught exception")
            request.check(code, out.getvalue())
        except CheckFailed as exc:
            detail = err.getvalue().strip().splitlines()
            self.failures.append(f"{' '.join(request.argv[:3])}: {exc}" + (f" [{detail[-1]}]" if detail else ""))
        return elapsed

    def loop(self, rounds, seconds: float, tracer: Tracer | None = None) -> tuple[list[float], float]:
        """Closed loop over whole rounds for about ``seconds``: a round
        starts while it is expected to end no later than half a round
        past the deadline."""
        latencies = []
        start = perf_counter()
        i = 0
        while True:
            round_start = perf_counter()
            for request in rounds[i % len(rounds)]:
                if tracer is not None:
                    tracer.request += 1
                latencies.append(self.serve(request))
                self.by_kind[request_kind(request.argv)].append(latencies[-1])
            i += 1
            now = perf_counter()
            if now - start + (now - round_start) / 2 >= seconds:
                break
        return latencies, perf_counter() - start


def request_kind(argv) -> str:
    """The command, the spec without its round prefix, and what is asked."""
    parts = [argv[0], re.sub(r"^r\d+[a-z]?_", "", Path(argv[argv.index("--spec") + 1]).stem)]
    if "--what" in argv:
        parts.append(argv[argv.index("--what") + 1])
    return " ".join(parts)


def import_kembed() -> dict:
    """Import kembed afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "kembed" or m.startswith("kembed.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"kembed.{name}") for name in KEMBED_MODULES}
    expected = ROOT / "src" / "kembed"
    if Path(modules["cli"].__file__).resolve().parent != expected:
        raise RuntimeError(f"imported kembed from {modules['cli'].__file__}, not {expected}")
    return modules


def setup(workload, seed: int, workdir: Path):
    """One set-up: import kembed, generate the inputs, serve a warm-up."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    modules = import_kembed()
    inputs = workload.generate(seed, workdir, ROOT)
    client = Client(modules["cli"])
    client.serve(inputs.warmup)
    return perf_counter() - start, modules, inputs, client


class SetupError(Exception):
    """The checkout or the machine cannot run the benchmark."""


def prepare() -> dict:
    """Check the checkout and the BLAS threads, put the kembed sources
    first on the path, and return the environment record."""
    if not (ROOT / "src" / "kembed" / "__init__.py").is_file():
        raise SetupError(f"no kembed sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "tests" / "goldens").is_dir():
        raise SetupError(f"no CLI goldens under {ROOT / 'tests'}; run from a checkout")
    env = environment()
    if env["blas_threads"] > _NPROC:
        raise SetupError(f"BLAS uses {env['blas_threads']} threads on {_NPROC} cores")
    os.environ.pop("KED_DEFAULT_SEED", None)
    sys.path.insert(0, str(ROOT / "src"))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env = prepare()
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}"
    setup_times = []
    attempted = 0
    failures = []
    for _ in range(SETUP_REPEATS):
        elapsed, modules, inputs, client = setup(workload, args.seed, workdir)
        setup_times.append(elapsed)
        attempted += client.attempted
        failures += client.failures

    client = Client(modules["cli"])
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "environment": env}
    if args.trace:
        latencies, elapsed = client.loop(inputs.rounds, args.seconds / 2)
        untraced_rps = len(latencies) / elapsed
        tracer = Tracer()
        tracer.install(modules)
        try:
            latencies, elapsed = client.loop(inputs.rounds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(latencies))
        metrics["trace.overhead_rps"] = len(latencies) / elapsed - untraced_rps
        spans = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        details.update(traced_requests=len(latencies), untraced_rps=untraced_rps, spans=str(spans.relative_to(ROOT)))
    else:
        latencies, elapsed = client.loop(inputs.rounds, args.seconds)
        metrics = {
            "throughput_rps": len(latencies) / elapsed,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": float(np.percentile(latencies, workload.tail_percentile)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    attempted += client.attempted
    failures += client.failures
    failed = len(failures)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    details.update(
        requests=len(latencies),
        seconds=elapsed,
        tail_percentile=workload.tail_percentile,
        samples_beyond_tail=len(latencies) * (100 - workload.tail_percentile) / 100,
        setup_s=setup_times,
        latency_p50_by_kind={kind: statistics.median(v) for kind, v in sorted(client.by_kind.items())},
        error_rate=failed / attempted,
        failures=failures[:20],
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
