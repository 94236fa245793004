"""Benchmark workloads: seeded inputs, the requests sent to the CLI, and
the check applied to each output.

Every workload is built from the workload seed alone. Generation writes
every spec and data file the CLI reads, and computes the reference each
output is compared with, in plain numpy and independently of kembed.
The requests of a workload form rounds, a fixed mix of requests; the
timed loop runs whole rounds, so every run serves the same mix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output that is not the expected one."""


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], None]  # (exit code, stdout); raises CheckFailed


@dataclass(frozen=True)
class Inputs:
    warmup: Request
    rounds: list[list[Request]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_percentile: int
    generate: Callable[[int, Path, Path], Inputs]  # (seed, work dir, repo root)


# --- files -------------------------------------------------------------------


class Files:
    """Writes the generated inputs under one directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def spec(self, name: str, kernel: dict, measure: dict, seed: int | None = None) -> str:
        doc = {"schema_version": 1, "kernel": kernel, "measure": measure}
        if seed is not None:
            doc["seed"] = seed
        return self._write(name + ".json", json.dumps(doc, sort_keys=True) + "\n")

    def csv(self, name: str, points: np.ndarray, values: np.ndarray | None = None) -> str:
        header = [f"x{i + 1}" for i in range(points.shape[1])]
        rows = points if values is None else np.column_stack([points, values])
        if values is not None:
            header.append("y")
        lines = [",".join(header)]
        lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
        return self._write(name + ".csv", "\n".join(lines) + "\n")

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _point_arg(x) -> str:
    return ",".join(repr(float(v)) for v in np.atleast_1d(x))


def _floats(rng, low: float, high: float, n: int) -> list[float]:
    return [float(v) for v in rng.uniform(low, high, n)]


# --- checks ------------------------------------------------------------------


def _parse(code: int, out: str, expected_code: int = 0) -> dict:
    if code != expected_code:
        raise CheckFailed(f"exit code {code}, expected {expected_code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON object: {exc}") from None


def _close(name: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        raise CheckFailed(f"{name} = {got!r}, reference {want!r}, tolerance {tol:.3g}")


def golden_check(golden: str) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        if code != 0:
            raise CheckFailed(f"exit code {code}, expected 0")
        if out != golden:
            raise CheckFailed("stdout differs from the golden file")

    return check


def value_check(want: float, tol: float, provenance: str, pair: str) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        doc = _parse(code, out)
        if doc.get("provenance") != provenance or doc.get("pair") != pair:
            raise CheckFailed(
                f"got {doc.get('provenance')!r} {doc.get('pair')!r}, "
                f"expected {provenance!r} {pair!r}"
            )
        _close("value", doc.get("value"), want, tol)

    return check


def verify_check(code: int, out: str) -> None:
    doc = _parse(code, out)
    if doc.get("pass") is not True or not doc.get("checks"):
        raise CheckFailed("verify did not pass")


def bq_check(exact: float, n: int) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        doc = _parse(code, out)
        _close("bq mean", doc.get("mean"), exact, BQ_TOL * max(1.0, abs(exact)))
        variance = doc.get("variance")
        if not isinstance(variance, (int, float)) or not variance >= 0.0:
            raise CheckFailed(f"bq variance {variance!r} is not >= 0")
        if len(doc.get("weights", ())) != n:
            raise CheckFailed("bq returned the wrong number of weights")

    return check


def mmd_check(want: float, tol: float) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        _close("mmd2", _parse(code, out).get("mmd2"), want, tol)

    return check


# --- plain-numpy references --------------------------------------------------

# Closed forms are compared to an agreement of a few ulp, scaled up for
# the longer evaluation chains.
CLOSED_RTOL = 1e-10
# BQ posterior mean against the exact integral of a smooth test
# function, with 1 000 nodes drawn from the measure.
BQ_TOL = 5e-3
# Monte Carlo values are accepted within this many standard errors.
MC_SIGMAS = 6.0
# Sample sizes the library's Monte Carlo estimates use at their defaults:
# the mixture cross term, the oracle's single integral, and the points of
# the oracle's double-integral U-statistic.
CROSS_TERM_DRAWS = 200_000
ORACLE_KP_DRAWS = 1_000_000
ORACLE_KPP_POINTS = 1_000


def gauss_kernel(x, y, ls) -> float:
    z = (np.asarray(x) - np.asarray(y)) / np.asarray(ls)
    return float(np.exp(-0.5 * np.sum(z * z)))


def gauss_gauss_kp(x, ls, mean, var):
    """Embedding at a point, or at each row of an array of points."""
    s2 = np.asarray(ls) ** 2 + np.asarray(var)
    d = np.asarray(x) - np.asarray(mean)
    return np.prod(np.asarray(ls) / np.sqrt(s2) * np.exp(-0.5 * d * d / s2), axis=-1)


def gauss_gauss_kpp(ls, var) -> float:
    ls = np.asarray(ls)
    return float(np.prod(ls / np.sqrt(ls**2 + 2.0 * np.asarray(var))))


def gauss_box_kp(x, ls, lows, highs) -> float:
    out = 1.0
    for xi, l, a, b in zip(x, ls, lows, highs):
        r = math.sqrt(2.0) * l
        out *= l * math.sqrt(math.pi / 2.0) * (math.erf((b - xi) / r) - math.erf((a - xi) / r)) / (b - a)
    return out


def gauss_box_kpp(ls, lows, highs) -> float:
    out = 1.0
    for l, a, b in zip(ls, lows, highs):
        w = b - a
        inner = 2.0 * l * l * (math.exp(-w * w / (2.0 * l * l)) - 1.0)
        inner += l * w * math.sqrt(2.0 * math.pi) * math.erf(w / (math.sqrt(2.0) * l))
        out *= inner / (w * w)
    return out


def matern52(r, lengthscale: float):
    z = math.sqrt(5.0) * np.abs(r) / lengthscale
    return (1.0 + z + z * z / 3.0) * np.exp(-z)


def _panels(edges, nodes: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over consecutive edges."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x0).ravel(), (0.5 * (b - a) * w0).ravel()


def matern_gauss_moments(means, var: float, lengthscale: float, power: int = 1) -> np.ndarray:
    """E[k(t)^power] for t ~ N(m, var), one value per m; the rule is
    split at the kernel's kink t = 0."""
    means = np.atleast_1d(np.asarray(means, dtype=float))
    sd = math.sqrt(var)
    reach = float(np.max(np.abs(means))) + 12.0 * sd
    count = max(8, math.ceil(reach / (0.5 * sd)))
    t, w = _panels(np.concatenate([np.linspace(-reach, 0.0, count + 1), np.linspace(0.0, reach, count + 1)[1:]]))
    kw = w * matern52(t, lengthscale) ** power
    out = np.empty(means.size)
    for start in range(0, means.size, 500):
        m = means[start : start + 500, None]
        out[start : start + 500] = np.exp(-0.5 * (t - m) ** 2 / var) @ kw
    return out / math.sqrt(2.0 * math.pi * var)


def mean_gram(points: np.ndarray, kernel_of_sqdist) -> float:
    """Mean of K(y_i, y_j) over all pairs, in row blocks, from the
    squared distances |y_i|^2 + |y_j|^2 - 2 y_i.y_j."""
    sq = np.sum(points * points, axis=1)
    total = 0.0
    for start in range(0, points.shape[0], 500):
        block = points[start : start + 500]
        d2 = sq[start : start + 500, None] + sq[None, :] - 2.0 * (block @ points.T)
        total += float(np.sum(kernel_of_sqdist(np.maximum(d2, 0.0))))
    return total / points.shape[0] ** 2


# Geometric grading toward the kink of the radial Matern kernel at r = 0.
_GRADED = np.array([0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0])


def _corner_rule(u: float, v: float):
    """Tensor rule on [0, u] x [0, v], graded toward the origin."""
    tu, wu = _panels(u * _GRADED)
    tv, wv = _panels(v * _GRADED)
    return tu[:, None], tv[None, :], wu[:, None] * wv[None, :]


def matern_box_kp(x, lows, highs, lengthscale: float, power: int = 1) -> float:
    """Mean of k(|x - Y|)^power over Y uniform on a 2-d box, as the sum
    over the four sub-boxes that have x as a corner."""
    total = 0.0
    area = float(np.prod(np.subtract(highs, lows)))
    for u in (x[0] - lows[0], highs[0] - x[0]):
        for v in (x[1] - lows[1], highs[1] - x[1]):
            tu, tv, w = _corner_rule(u, v)
            total += float(np.sum(w * matern52(np.hypot(tu, tv), lengthscale) ** power))
    return total / area


def matern_box_kpp(lows, highs, lengthscale: float, power: int = 1) -> float:
    """E[k(|X - Y|)^power] for X, Y independent uniform on a 2-d box,
    through the triangular density of each coordinate difference."""
    w1, w2 = np.subtract(highs, lows)
    tu, tv, w = _corner_rule(w1, w2)
    k = matern52(np.hypot(tu, tv), lengthscale) ** power
    return float(4.0 * np.sum(w * k * (w1 - tu) * (w2 - tv)) / (w1 * w1 * w2 * w2))


def matern_box_kpp_stderr(lows, highs, lengthscale: float) -> float:
    """Standard error of the oracle's U-statistic over m points:
    Var U ~ 4 Var h(X) / m + 2 Var k(X, Y) / m^2 with h the embedding."""
    m = ORACLE_KPP_POINTS
    kpp = matern_box_kpp(lows, highs, lengthscale)
    var_k = matern_box_kpp(lows, highs, lengthscale, power=2) - kpp * kpp
    x0, w0 = np.polynomial.legendre.leggauss(8)
    a, b = np.asarray(lows), np.asarray(highs)
    g1 = 0.5 * (a[0] + b[0]) + 0.5 * (b[0] - a[0]) * x0
    g2 = 0.5 * (a[1] + b[1]) + 0.5 * (b[1] - a[1]) * x0
    h2 = 0.0
    for x1, wa in zip(g1, w0):
        for x2, wb in zip(g2, w0):
            h2 += 0.25 * wa * wb * matern_box_kp((x1, x2), lows, highs, lengthscale) ** 2
    var_h = max(0.0, h2 - kpp * kpp)
    return math.sqrt(4.0 * var_h / m + 2.0 * var_k / (m * m))


# --- eval_small ---------------------------------------------------------------

# The specs and arguments behind the CLI goldens (tests/test_cli.py).
_GG_SPEC = (
    {"family": "gaussian", "lengthscales": [1.0]},
    {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
)
_GU_SPEC = (
    {"family": "gaussian", "lengthscales": [1.0]},
    {"family": "uniform_box", "lows": [0.0], "highs": [1.0]},
)
_SPHERE_SPEC = ({"family": "sphere_sobolev32"}, {"family": "sphere_uniform", "d": 2})
_STEIN_SPEC = (
    {
        "family": "stein",
        "base": {"family": "gaussian", "lengthscales": [1.0]},
        "target": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
        "c": 0.0,
    },
    {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
)
_EVAL_GOLDENS = (
    ("eval_gg_kpp", _GG_SPEC, ("--what", "kpp")),
    ("eval_gu_kp", _GU_SPEC, ("--what", "kp", "--x", "0.3")),
    ("eval_gg_kernel", _GG_SPEC, ("--what", "kernel", "--x", "0.3", "--y", "0.8")),
    ("eval_sphere_kpp", _SPHERE_SPEC, ("--what", "kpp")),
    ("eval_stein_kpp", _STEIN_SPEC, ("--what", "kpp")),
)


def _read_golden(root: Path, name: str) -> str:
    return (root / "tests" / "goldens" / f"{name}.json").read_text(encoding="utf-8")


def _golden_request(files: Files, root: Path, name: str, spec, args) -> Request:
    path = files.spec(name, *spec)
    command = "verify" if name.startswith("verify") else "eval"
    return Request((command, "--spec", path, *args), golden_check(_read_golden(root, name)))


def _eval_requests(files: Files, rng, tag: str, dim: int, box: bool) -> list[Request]:
    ls = _floats(rng, 0.5, 2.0, dim)
    kernel = {"family": "gaussian", "lengthscales": ls}
    if box:
        lows = _floats(rng, -1.0, 0.0, dim)
        highs = [a + w for a, w in zip(lows, _floats(rng, 0.5, 2.0, dim))]
        measure = {"family": "uniform_box", "lows": lows, "highs": highs}
        x = rng.uniform(lows, highs)
        kp, kpp, pair = gauss_box_kp(x, ls, lows, highs), gauss_box_kpp(ls, lows, highs), "gaussian/uniform_box"
    else:
        mean, var = _floats(rng, -1.0, 1.0, dim), _floats(rng, 0.5, 2.0, dim)
        measure = {"family": "gaussian", "mean": mean, "cov": var}
        x = rng.normal(mean, 1.0)
        kp, kpp, pair = float(gauss_gauss_kp(x, ls, mean, var)), gauss_gauss_kpp(ls, var), "gaussian/gaussian"
    y = x + rng.normal(0.0, 1.0, dim)
    path = files.spec(tag, kernel, measure)
    closed = "closed_form"
    return [
        Request(("eval", "--spec", path, "--what", "kpp"), value_check(kpp, CLOSED_RTOL * kpp, closed, pair)),
        Request(
            ("eval", "--spec", path, "--what", "kp", "--x=" + _point_arg(x)),
            value_check(kp, CLOSED_RTOL * kp + 1e-300, closed, pair),
        ),
        Request(
            ("eval", "--spec", path, "--what", "kernel", "--x=" + _point_arg(x), "--y=" + _point_arg(y)),
            value_check(gauss_kernel(x, y, ls), CLOSED_RTOL * gauss_kernel(x, y, ls) + 1e-300, closed, pair),
        ),
    ]


def generate_eval_small(seed: int, workdir: Path, root: Path) -> Inputs:
    files = Files(workdir)
    rng = np.random.default_rng([seed, 1])
    goldens = [_golden_request(files, root, *g) for g in _EVAL_GOLDENS]
    rounds = []
    for r in range(8):
        requests = list(goldens)
        for dim in (1, 2):
            for box in (False, True):
                requests += _eval_requests(files, rng, f"r{r}_{'gu' if box else 'gg'}{dim}", dim, box)
        rounds.append(requests)
    return Inputs(rounds[0][0], rounds)


# --- oracle_checks ------------------------------------------------------------


def _oracle_round(files: Files, root: Path, rng, r: int) -> list[Request]:
    spec_seed = int(rng.integers(0, 2**31))
    a = _floats(rng, -1.0, 1.0, 1)
    matern_box = files.spec(
        f"r{r}_matern_box1",
        {"family": "matern", "nu": 2.5, "lengthscale": _floats(rng, 0.3, 1.0, 1)[0]},
        {"family": "uniform_box", "lows": a, "highs": [a[0] + _floats(rng, 0.5, 2.0, 1)[0]]},
        spec_seed,
    )
    wendland = files.spec(
        f"r{r}_wendland_gauss1",
        {"family": "wendland", "order": 2, "lengthscale": _floats(rng, 0.8, 2.0, 1)[0]},
        {"family": "gaussian", "mean": _floats(rng, -1.0, 1.0, 1), "cov": _floats(rng, 0.5, 2.0, 1)},
        spec_seed,
    )
    lows2 = _floats(rng, -1.0, 0.0, 2)
    gauss_box2 = files.spec(
        f"r{r}_gauss_box2",
        {"family": "gaussian", "lengthscales": _floats(rng, 0.5, 1.5, 2)},
        {"family": "uniform_box", "lows": lows2, "highs": [v + 1.0 for v in _floats(rng, 0.0, 1.0, 2)]},
        spec_seed,
    )
    # The sphere check runs at the CLI's default seed, so it is the same
    # request on every run. Its 21 Monte Carlo checks share one sample, so
    # verify's 3-sigma rule can fail on some seeds although the closed
    # form is exact.
    sphere = files.spec("sphere", *_SPHERE_SPEC)

    # Matern on a 2-d box has no closed form: the CLI answers through the
    # oracle's Monte Carlo fallback.
    lows = _floats(rng, -1.0, 0.0, 2)
    highs = [v + w for v, w in zip(lows, _floats(rng, 0.5, 1.5, 2))]
    ls = _floats(rng, 0.3, 1.0, 1)[0]
    fallback = files.spec(
        f"r{r}_matern_box2",
        {"family": "matern", "nu": 2.5, "lengthscale": ls},
        {"family": "uniform_box", "lows": lows, "highs": highs},
        spec_seed,
    )
    x = rng.uniform(lows, highs)
    kp = matern_box_kp(x, lows, highs, ls)
    kp_stderr = math.sqrt(max(0.0, matern_box_kp(x, lows, highs, ls, power=2) - kp * kp) / ORACLE_KP_DRAWS)
    kpp = matern_box_kpp(lows, highs, ls)
    kpp_stderr = matern_box_kpp_stderr(lows, highs, ls)
    numeric, pair = "numeric_fallback", "matern/uniform_box"
    return [
        Request(("verify", "--spec", matern_box), verify_check),
        Request(("verify", "--spec", wendland), verify_check),
        _golden_request(files, root, "verify_gg", _GG_SPEC, ()),
        Request(("verify", "--spec", gauss_box2), verify_check),
        Request(("verify", "--spec", sphere), verify_check),
        Request(
            ("eval", "--spec", fallback, "--what", "kp", "--x=" + _point_arg(x)),
            value_check(kp, MC_SIGMAS * kp_stderr, numeric, pair),
        ),
        Request(
            ("eval", "--spec", fallback, "--what", "kpp"),
            value_check(kpp, MC_SIGMAS * kpp_stderr, numeric, pair),
        ),
    ]


def generate_oracle_checks(seed: int, workdir: Path, root: Path) -> Inputs:
    files = Files(workdir)
    rng = np.random.default_rng([seed, 2])
    rounds = [_oracle_round(files, root, rng, r) for r in range(2)]
    # The golden verify warms the cached Gauss-Hermite rule.
    return Inputs(rounds[0][2], rounds)


# --- bq_closed ------------------------------------------------------------------

BQ_NODES = 1000


def _bq_gauss2(files: Files, rng, r: int) -> Request:
    ls = _floats(rng, 0.5, 1.0, 2)
    mean, var = _floats(rng, -0.5, 0.5, 2), _floats(rng, 0.5, 1.5, 2)
    nodes = rng.normal(mean, np.sqrt(var), size=(BQ_NODES, 2))
    values = np.cos(nodes[:, 0]) * np.cos(nodes[:, 1])
    exact = math.cos(mean[0]) * math.exp(-0.5 * var[0]) * math.cos(mean[1]) * math.exp(-0.5 * var[1])
    spec = files.spec(
        f"r{r}_gauss2", {"family": "gaussian", "lengthscales": ls}, {"family": "gaussian", "mean": mean, "cov": var}
    )
    return Request(("bq", "--spec", spec, "--data", files.csv(f"r{r}_gauss2", nodes, values)), bq_check(exact, BQ_NODES))


def _bq_matern_box(files: Files, rng, r: int) -> Request:
    ls = _floats(rng, 0.3, 1.0, 1)[0]
    a = _floats(rng, -1.0, 1.0, 1)[0]
    b = a + _floats(rng, 0.5, 2.0, 1)[0]
    nodes = rng.uniform(a, b, size=(BQ_NODES, 1))
    values = np.sin(3.0 * nodes[:, 0]) + nodes[:, 0]
    exact = (math.cos(3.0 * a) - math.cos(3.0 * b)) / (3.0 * (b - a)) + 0.5 * (a + b)
    spec = files.spec(
        f"r{r}_matern_box1",
        {"family": "matern", "nu": 2.5, "lengthscale": ls},
        {"family": "uniform_box", "lows": [a], "highs": [b]},
    )
    return Request(("bq", "--spec", spec, "--data", files.csv(f"r{r}_matern_box1", nodes, values)), bq_check(exact, BQ_NODES))


def generate_bq_closed(seed: int, workdir: Path, root: Path) -> Inputs:
    files = Files(workdir)
    rng = np.random.default_rng([seed, 3])
    rounds = [[_bq_matern_box(files, rng, r), _bq_gauss2(files, rng, r)] for r in range(2)]
    return Inputs(rounds[0][0], rounds)


# --- mmd_mixture ----------------------------------------------------------------


def _mmd_gauss2(files: Files, rng, r: str) -> Request:
    ls = _floats(rng, 0.7, 1.5, 2)
    mean, var = _floats(rng, -0.5, 0.5, 2), _floats(rng, 0.5, 1.5, 2)
    samples = rng.normal(np.add(mean, _floats(rng, -0.5, 0.5, 2)), np.sqrt(_floats(rng, 0.5, 1.5, 2)), size=(4000, 2))
    kpq = float(np.mean(gauss_gauss_kp(samples, ls, mean, var)))
    kqq = mean_gram(samples / np.asarray(ls), lambda d2: np.exp(-0.5 * d2))
    want = gauss_gauss_kpp(ls, var) - 2.0 * kpq + kqq
    spec = files.spec(f"r{r}_gauss2", {"family": "gaussian", "lengthscales": ls}, {"family": "gaussian", "mean": mean, "cov": var})
    return Request(("mmd", "--spec", spec, "--samples", files.csv(f"r{r}_gauss2", samples)), mmd_check(want, 1e-9))


def _mmd_mixture(files: Files, rng, r: int) -> Request:
    ls = _floats(rng, 0.5, 1.5, 1)[0]
    w1 = _floats(rng, 0.3, 0.7, 1)[0]
    weights = [w1, 1.0 - w1]
    means = [_floats(rng, -2.0, -0.5, 1)[0], _floats(rng, 0.5, 2.0, 1)[0]]
    variances = _floats(rng, 0.3, 1.0, 2)
    samples = rng.normal(_floats(rng, -0.5, 0.5, 1)[0], math.sqrt(_floats(rng, 1.0, 2.0, 1)[0]), size=(3000, 1))
    kpp = sum(
        weights[c] * weights[d] * float(matern_gauss_moments(means[c] - means[d], variances[c] + variances[d], ls)[0])
        for c in range(2)
        for d in range(2)
    )
    kpq = sum(weights[c] * float(np.mean(matern_gauss_moments(samples[:, 0] - means[c], variances[c], ls))) for c in range(2))
    kqq = mean_gram(samples, lambda d2: matern52(np.sqrt(d2), ls))
    cross_var = variances[0] + variances[1]
    cross = matern_gauss_moments(means[0] - means[1], cross_var, ls)[0]
    cross_sq = matern_gauss_moments(means[0] - means[1], cross_var, ls, power=2)[0]
    stderr = 2.0 * w1 * (1.0 - w1) * math.sqrt(max(0.0, cross_sq - cross * cross) / CROSS_TERM_DRAWS)
    components = [{"family": "gaussian", "mean": [m], "cov": [v]} for m, v in zip(means, variances)]
    spec = files.spec(
        f"r{r}_matern_mixture",
        {"family": "matern", "nu": 2.5, "lengthscale": ls},
        {"family": "mixture", "components": components, "weights": weights},
        int(rng.integers(0, 2**31)),
    )
    return Request(
        ("mmd", "--spec", spec, "--samples", files.csv(f"r{r}_matern_mixture", samples)),
        mmd_check(kpp - 2.0 * kpq + kqq, MC_SIGMAS * stderr),
    )


def generate_mmd_mixture(seed: int, workdir: Path, root: Path) -> Inputs:
    files = Files(workdir)
    rng = np.random.default_rng([seed, 4])
    # Two Gaussian requests per mixture request: the median then falls
    # among the Gram-bound requests and the tail among the mixture ones,
    # instead of on the gap between the two.
    rounds = [
        [_mmd_gauss2(files, rng, f"{r}a"), _mmd_mixture(files, rng, r), _mmd_gauss2(files, rng, f"{r}b")]
        for r in range(2)
    ]
    return Inputs(rounds[0][0], rounds)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bq_closed",
            "bq on closed-form pairs with 1 000 nodes: quadrature and kernels.gram do the work, the oracle never runs",
            90,
            generate_bq_closed,
        ),
        Workload(
            "oracle_checks",
            "verify on every oracle method plus Monte Carlo fallback eval: oracle and measures.sample dominate",
            64,
            generate_oracle_checks,
        ),
        Workload(
            "mmd_mixture",
            "mmd with a Monte Carlo mixture cross term and a 4 000-point Gram: scalar kernel calls and Gram memory",
            90,
            generate_mmd_mixture,
        ),
        Workload(
            "eval_small",
            "single-point eval requests with the CLI goldens: parsing and dispatch dominate, the bypass for batching",
            99,
            generate_eval_small,
        ),
    )
}
