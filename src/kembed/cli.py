"""Command-line interface.

Four commands over JSON spec files: ``eval`` (kernel, mean embedding,
or double integral values), ``verify`` (closed forms against the
numerical oracle), ``bq`` (Bayesian quadrature posterior from a data
file), and ``mmd`` (squared MMD against an empirical sample file).

Output is a single JSON object on stdout; diagnostics go to stderr.
Exit codes: 0 ok, 1 verification failed, 2 unsupported pair, 3 invalid
input, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

import numpy as np

from . import oracle, quadrature, stein  # noqa: F401 (defines the stein kernel family)
from .dictionary import CLOSED_FORM, embed
from .errors import (
    InvalidSpecError,
    KembedError,
    NumericalFailure,
    UnsupportedPairError,
)
from .kernels import MAP_KINDS, Kernel, Map
from .measures import EmpiricalMeasure, Measure

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the invalid-input
    code instead of argparse's default."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


# --- strict JSON parsing -----------------------------------------------------


def _check_keys(obj, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{context} must be a JSON object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise InvalidSpecError(f"unknown key '{key}' in {context}")
    for key in required:
        if key not in obj:
            raise InvalidSpecError(f"missing key '{key}' in {context}")


def _number(value, context: str) -> float:
    # false for NaN, infinities and integers beyond the float range
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise InvalidSpecError(f"{context} must be a finite number")
    return float(value)


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise InvalidSpecError(f"{context} must be an integer")
    return int(value)


def _array(value, context: str) -> np.ndarray:
    """A number or a rectangular nested array of numbers."""
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise InvalidSpecError(f"{context} must be a finite number or a rectangular array of them")
    return arr.astype(float)


def _each(convert):
    """Converter of an array that applies ``convert`` to each item."""

    def converter(value, context: str) -> list:
        if not isinstance(value, list):
            raise InvalidSpecError(f"{context} must be an array")
        return [convert(v, f"{context}[{i}]") for i, v in enumerate(value)]

    return converter


_numbers = _each(_number)


def _term(value, context: str) -> tuple:
    return tuple(_fields(value, context, {"alpha": "integers", "coeff": "number"}, ()).values())


# Value converters by the names that the ``spec`` of each kernel,
# measure and map kind uses. Nested objects go through the public
# parsers by name, so that wrappers installed on them see every call.
_CONVERTERS = {
    "number": _number,
    "integer": _integer,
    "numbers": _numbers,
    "integers": _each(_integer),
    "array": _array,
    "terms": _each(_term),
    "kernel": lambda v, c: parse_kernel(v, c),
    "kernels": _each(lambda v, c: parse_kernel(v, c)),
    "measure": lambda v, c: parse_measure(v, c),
    "measures": _each(lambda v, c: parse_measure(v, c)),
    "map": lambda v, c: parse_map(v, c),
}


def _fields(obj, context: str, spec: dict, extra: tuple[str, ...]) -> dict:
    """Check an object's keys against a spec (plus the ``extra`` keys
    the caller reads itself) and convert each value present."""
    required = tuple(k for k, conv in spec.items() if not conv.endswith("?"))
    _check_keys(obj, context, extra + required, tuple(spec))
    if spec and not required and not any(k in obj for k in spec):
        # a family whose keys are all alternatives needs one of them
        raise InvalidSpecError(f"missing key '{next(iter(spec))}' in {context}")
    return {
        key: _CONVERTERS[conv.rstrip("?")](obj[key], f"{context}.{key}")
        for key, conv in spec.items()
        if key in obj
    }


def _table(entries: dict) -> tuple[dict, tuple[str, ...]]:
    """Entries name -> (factory, spec), with the union of their keys."""
    return entries, tuple(sorted({k for _, spec in entries.values() for k in spec}))


def _families(base) -> dict:
    """family -> (class, spec) for every subclass of ``base`` that
    declares its spec form."""
    out = {}
    pending = [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if vars(cls).get("spec") is not None:
            out[cls.family] = (cls, cls.spec)
    return out


_KERNELS = _table(_families(Kernel))
_MEASURES = _table(_families(Measure))
_MAPS = _table(MAP_KINDS)


def _build(obj, context: str, table, tag: str, noun: str):
    """Check a spec object against the entry its ``tag`` key names,
    convert its values and call the entry's factory with them."""
    entries, keys_any = table
    _check_keys(obj, context, (tag,), keys_any)
    name = obj[tag]
    if not isinstance(name, str) or name not in entries:
        raise InvalidSpecError(f"unknown {noun} '{name}' in {context}")
    factory, spec = entries[name]
    return factory(**_fields(obj, context, spec, (tag,)))


def parse_kernel(obj, context: str = "kernel") -> Kernel:
    return _build(obj, context, _KERNELS, "family", "kernel family")


def parse_map(obj, context: str = "map") -> Map:
    return _build(obj, context, _MAPS, "kind", "map kind")


def parse_measure(obj, context: str = "measure") -> Measure:
    return _build(obj, context, _MEASURES, "family", "measure family")


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidSpecError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"spec file is not valid JSON: {exc}") from None
    _check_keys(
        doc,
        "spec",
        ("schema_version", "kernel", "measure"),
        ("budget", "seed"),
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise InvalidSpecError(
            f"unsupported schema_version {doc['schema_version']!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    return doc


def _default_seed() -> int:
    raw = os.environ.get("KED_DEFAULT_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidSpecError(
            f"KED_DEFAULT_SEED must be an integer, got {raw!r}"
        ) from None


def _resolve(args_value, doc: dict, key: str, fallback):
    if args_value is not None:
        return args_value
    if key in doc:
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidSpecError(f"spec key '{key}' must be an integer")
        return value
    return fallback


# --- data files ---------------------------------------------------------------

_HEADER_RE = re.compile(r"^x(\d+)$")


def _read_rows(path: str, with_values: bool):
    """Point rows (and optionally a value column) from a CSV file with
    header x1..xd[,y], or from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidSpecError(f"cannot read data file: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _rows_from_json(stripped, with_values)
    return _rows_from_csv(text, with_values)


def _rows_from_json(text: str, with_values: bool):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"data file is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        keys = ("points", "values") if with_values else ("points",)
        _check_keys(doc, "data", keys[:1], keys[1:])
        pts = np.asarray(doc["points"], dtype=float)
        vals = None
        if with_values:
            if "values" not in doc:
                raise InvalidSpecError("data file must provide 'values'")
            vals = np.asarray(
                _numbers(doc["values"], "data.values"), dtype=float
            )
    elif isinstance(doc, list):
        arr = np.asarray(doc, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise InvalidSpecError("data rows must form a nonempty 2-d array")
        if with_values:
            if arr.shape[1] < 2:
                raise InvalidSpecError(
                    "each data row needs point coordinates plus a value"
                )
            pts, vals = arr[:, :-1], arr[:, -1]
        else:
            pts, vals = arr, None
    else:
        raise InvalidSpecError("data file must hold a JSON object or array")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidSpecError("data points must form a nonempty 2-d array")
    if not np.all(np.isfinite(pts)):
        raise InvalidSpecError("data points must be finite")
    if vals is not None and vals.shape != (pts.shape[0],):
        raise InvalidSpecError("one value per point is required")
    return pts, vals


def _rows_from_csv(text: str, with_values: bool):
    buffer = io.StringIO(text)
    reader = csv.reader(buffer)
    first = next((row for row in reader if row), None)
    if first is None:
        raise InvalidSpecError("data file is empty")
    header = [h.strip() for h in first]
    has_y = header[-1] == "y"
    coords = header[:-1] if has_y else header
    for i, name in enumerate(coords):
        match = _HEADER_RE.match(name)
        if not match or int(match.group(1)) != i + 1:
            raise InvalidSpecError(
                f"data header must be x1..xd[,y], got {','.join(header)!r}"
            )
    if with_values and not has_y:
        raise InvalidSpecError("data file needs a 'y' column")
    if not coords:
        raise InvalidSpecError("data header names no coordinates")
    arr = _csv_body(buffer.read(), len(header))
    if arr is None:
        # the field-by-field parse, whose messages name the first bad row
        body = []
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise InvalidSpecError(f"row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                body.append([float(v) for v in row])
            except ValueError:
                raise InvalidSpecError(f"row {lineno} holds a non-numeric field") from None
        if not body:
            raise InvalidSpecError("data file has a header but no rows")
        arr = np.asarray(body, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidSpecError("data values must be finite")
    if has_y:
        return arr[:, :-1], (arr[:, -1] if with_values else None)
    return arr, None


def _csv_body(body: str, width: int) -> np.ndarray | None:
    """The rows after the header as an (n, width) array, parsed by
    np.loadtxt, or None when it fails or finds no rows. Its parse is
    stricter than the csv module's: it rejects quotes, a blank field and
    a row of whitespace, each of which the caller's field-by-field parse
    then handles as before; where it succeeds, each value has the bits
    of ``float`` on its field. Its rows must be the nonempty lines, the
    rows of the csv module, one for one; a line it skipped is a mismatch
    and leaves the parse to the caller."""
    if not body.strip():
        return None
    try:
        arr = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    lines = body.split("\n")
    return arr if arr.shape == (len(lines) - lines.count(""), width) else None


def _parse_point(text: str, flag: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise InvalidSpecError(f"{flag} must be a comma-separated float list") from None


# --- value serialization -------------------------------------------------------


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _emit(payload: dict) -> None:
    """The payload as one line of strict JSON on stdout; one that holds a
    NaN or infinity, which JSON cannot, is a numerical failure."""
    try:
        line = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise NumericalFailure(f"result is not finite: {json.dumps(payload)}") from None
    sys.stdout.write(line + "\n")


# --- commands -------------------------------------------------------------------


def _problem(args):
    """The spec's kernel and measure, budget and seed (flags first)."""
    doc = load_spec(args.spec)
    kernel = parse_kernel(doc["kernel"])
    measure = parse_measure(doc["measure"])
    budget = _resolve(args.budget, doc, "budget", None)
    seed = _resolve(args.seed, doc, "seed", _default_seed())
    return kernel, measure, budget, seed


def cmd_eval(args) -> int:
    kernel, measure, budget, seed = _problem(args)
    if args.what == "kernel":
        if args.x is None or args.y is None:
            raise InvalidSpecError("--what kernel requires --x and --y")
        x = _parse_point(args.x, "--x")
        y = _parse_point(args.y, "--y")
        value = kernel(x, y)
        payload = {
            "value": _jsonable(value),
            "provenance": CLOSED_FORM,
            "pair": f"{kernel.family}/{measure.family}",
        }
        _emit(payload)
        return EXIT_OK
    embedding = embed(kernel, measure, budget=budget, seed=seed)
    if args.what == "kp":
        if args.x is None:
            raise InvalidSpecError("--what kp requires --x")
        x = _parse_point(args.x, "--x")
        payload = {
            "value": _jsonable(embedding.kp_at(x)),
            "provenance": embedding.kp_provenance,
            "pair": embedding.pair_id,
        }
    else:
        payload = {
            "value": _jsonable(embedding.kpp),
            "provenance": embedding.kpp_provenance,
            "pair": embedding.pair_id,
        }
    _emit(payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    kernel, measure, budget, seed = _problem(args)
    embedding = embed(kernel, measure, budget=budget, seed=seed)
    if (
        embedding.kp_provenance != CLOSED_FORM
        and embedding.kpp_provenance != CLOSED_FORM
    ):
        raise UnsupportedPairError(
            f"pair {embedding.pair_id} has no closed form to verify"
        )
    checks = []

    def check(closed, est, **where):
        # a check passes within tol or the estimate's band: 3 stderr, or
        # the Student-t quantile of a randomized rule's replicates
        ok = bool(abs(closed - est.value) <= max(args.tol, est.band))
        checks.append(
            {
                **where,
                "closed": closed,
                "oracle": float(est.value),
                "stderr": float(est.stderr),
                "pass": ok,
            }
        )

    if embedding.kp_provenance == CLOSED_FORM:
        points = measure.sample(args.points, seed)
        # the oracle first: it rejects a pair it cannot integrate (a
        # matrix-valued kernel) with a typed error
        estimates = oracle.estimate_kp_rows(kernel, measure, points, budget=budget, seed=seed)
        closed_values = embedding.kp_rows(points).tolist()
        for row, closed, est in zip(points, closed_values, estimates):
            check(closed, est, what="kp", x=[float(v) for v in np.atleast_1d(row)])
    if embedding.kpp_provenance == CLOSED_FORM:
        est = oracle.estimate_kpp(kernel, measure, budget=budget, seed=seed)
        check(float(embedding.kpp), est, what="kpp")
    all_pass = all(c["pass"] for c in checks)
    _emit({"pair": embedding.pair_id, "checks": checks, "pass": all_pass})
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def cmd_bq(args) -> int:
    kernel, measure, budget, seed = _problem(args)
    points, values = _read_rows(args.data, with_values=True)
    embedding = embed(kernel, measure, budget=budget, seed=seed)
    problem = quadrature.make_problem(embedding, points, values, jitter=args.jitter)
    posterior = quadrature.bq_posterior(problem)
    _emit(
        {
            "mean": float(posterior.mean),
            "variance": float(posterior.variance),
            "weights": [float(w) for w in posterior.weights],
            "jitter_applied": float(posterior.jitter),
        }
    )
    return EXIT_OK


def cmd_mmd(args) -> int:
    kernel, measure, budget, seed = _problem(args)
    points, _ = _read_rows(args.samples, with_values=False)
    embedding = embed(kernel, measure, budget=budget, seed=seed)
    empirical = EmpiricalMeasure(points)
    value = quadrature.mmd2(embedding, empirical)
    _emit({"mmd2": float(value)})
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="kembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # every command reads --spec, --budget and --seed; its own flags
    # keep their places in its usage line
    spec = [("--spec", {"required": True})]
    budget_seed = [("--budget", {"type": int}), ("--seed", {"type": int})]
    commands = {
        "eval": (cmd_eval, "evaluate a kernel or embedding", spec + [
            ("--what", {"required": True, "choices": ("kp", "kpp", "kernel")}),
            ("--x", {}),
            ("--y", {}),
        ] + budget_seed),
        "verify": (cmd_verify, "check closed forms against the oracle", spec + budget_seed + [
            ("--tol", {"type": float, "default": 1e-6}),
            ("--points", {"type": int, "default": 20}),
        ]),
        "bq": (cmd_bq, "Bayesian quadrature posterior", spec + [
            ("--data", {"required": True}),
            ("--jitter", {"type": float}),
        ] + budget_seed),
        "mmd": (cmd_mmd, "squared MMD against an empirical sample",
                spec + [("--samples", {"required": True})] + budget_seed),
    }
    for name, (func, help, flags) in commands.items():
        p = sub.add_parser(name, help=help)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedPairError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvalidSpecError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
