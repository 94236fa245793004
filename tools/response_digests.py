"""Digests of every benchmark response of a checkout.

    python3 tools/response_digests.py ROOT > digests.json

Generates every workload of ROOT's ``bench/workloads.py`` at seeds 7 and
8, runs each request (the warm-up first, then the rounds in order)
through ROOT's ``kembed.cli.run`` in this process, applies the request's
own check, and prints one JSON object that maps
``workload/seed/index`` to the sha256 of ``<exit code>|<stdout>``. A
failed check, or an exception other than SystemExit (digested with the
exit code ``uncaught``), is reported on stderr and makes the exit code
1. The inputs are written under a temporary directory whose path is the
same for every ROOT, so that two checkouts' digests can be compared
with ``diff``; nothing under ROOT is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

SEEDS = (7, 8)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    os.environ.pop("KED_DEFAULT_SEED", None)
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from kembed import cli
    from workloads import WORKLOADS, CheckFailed

    digests, failures = {}, 0
    workdir = Path(tempfile.gettempdir()) / "kembed-response-digests"
    try:
        for name, workload in sorted(WORKLOADS.items()):
            for seed in SEEDS:
                shutil.rmtree(workdir, ignore_errors=True)
                inputs = workload.generate(seed, workdir, root)
                requests = [inputs.warmup] + [r for rnd in inputs.rounds for r in rnd]
                for index, request in enumerate(requests):
                    key = f"{name}/{seed}/{index}"
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli.run(list(request.argv))
                        except SystemExit as exc:
                            code = exc.code
                        except Exception:  # an untyped error is a response too
                            code = "uncaught"
                            trace = traceback.format_exc()
                    digests[key] = hashlib.sha256(f"{code}|{out.getvalue()}".encode()).hexdigest()
                    try:
                        if code == "uncaught":
                            raise CheckFailed(trace)
                        request.check(code, out.getvalue())
                    except CheckFailed as exc:
                        failures += 1
                        print(f"{key}: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
