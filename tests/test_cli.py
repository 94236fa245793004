"""Command-line interface: golden outputs, exit codes, strict spec
validation, data file parsing, and seed resolution."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kembed import cli, dictionary, kernels
from kembed.cli import run
from kembed.errors import InvalidSpecError

GOLDENS = Path(__file__).parent / "goldens"

GG_SPEC = {
    "schema_version": 1,
    "kernel": {"family": "gaussian", "lengthscales": [1.0]},
    "measure": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
}
GU_SPEC = {
    "schema_version": 1,
    "kernel": {"family": "gaussian", "lengthscales": [1.0]},
    "measure": {"family": "uniform_box", "lows": [0.0], "highs": [1.0]},
}
SPHERE_SPEC = {
    "schema_version": 1,
    "kernel": {"family": "sphere_sobolev32"},
    "measure": {"family": "sphere_uniform", "d": 2},
}
STEIN_SPEC = {
    "schema_version": 1,
    "kernel": {
        "family": "stein",
        "base": {"family": "gaussian", "lengthscales": [1.0]},
        "target": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
        "c": 0.0,
    },
    "measure": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def _golden(name):
    return (GOLDENS / name).read_text()


def _run(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr()


def test_eval_kpp_golden(spec_file, capsys):
    code, out = _run(capsys, ["eval", "--spec", spec_file(GG_SPEC), "--what", "kpp"])
    assert code == 0
    assert out.out == _golden("eval_gg_kpp.json")


def test_eval_kp_golden(spec_file, capsys):
    code, out = _run(
        capsys,
        ["eval", "--spec", spec_file(GU_SPEC), "--what", "kp", "--x", "0.3"],
    )
    assert code == 0
    assert out.out == _golden("eval_gu_kp.json")


def test_eval_kernel_golden(spec_file, capsys):
    code, out = _run(
        capsys,
        ["eval", "--spec", spec_file(GG_SPEC), "--what", "kernel",
         "--x", "0.3", "--y", "0.8"],
    )
    assert code == 0
    assert out.out == _golden("eval_gg_kernel.json")


def test_eval_sphere_golden(spec_file, capsys):
    code, out = _run(
        capsys, ["eval", "--spec", spec_file(SPHERE_SPEC), "--what", "kpp"]
    )
    assert code == 0
    assert out.out == _golden("eval_sphere_kpp.json")


def test_eval_stein_golden(spec_file, capsys):
    code, out = _run(
        capsys, ["eval", "--spec", spec_file(STEIN_SPEC), "--what", "kpp"]
    )
    assert code == 0
    assert out.out == _golden("eval_stein_kpp.json")


def test_verify_golden(spec_file, capsys):
    code, out = _run(capsys, ["verify", "--spec", spec_file(GG_SPEC)])
    assert code == 0
    assert out.out == _golden("verify_gg.json")
    doc = json.loads(out.out)
    assert doc["pass"] is True
    assert len(doc["checks"]) == 21


def test_bq_golden(spec_file, capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x1,y\n0.0,1.0\n")
    code, out = _run(
        capsys, ["bq", "--spec", spec_file(GG_SPEC), "--data", str(data)]
    )
    assert code == 0
    assert out.out == _golden("bq_gg.json")


def test_mmd_golden(spec_file, capsys, tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("x1\n0.5\n-0.3\n1.1\n")
    code, out = _run(
        capsys, ["mmd", "--spec", spec_file(GG_SPEC), "--samples", str(samples)]
    )
    assert code == 0
    assert out.out == _golden("mmd_gg.json")


def test_outputs_are_deterministic(spec_file, capsys):
    spec = spec_file(GG_SPEC)
    _, first = _run(capsys, ["verify", "--spec", spec])
    _, second = _run(capsys, ["verify", "--spec", spec])
    assert first.out == second.out


def test_exit_1_verify_failure(spec_file, capsys):
    code, out = _run(
        capsys, ["verify", "--spec", spec_file(GG_SPEC), "--tol", "0"]
    )
    assert code == 1
    assert json.loads(out.out)["pass"] is False


@pytest.mark.parametrize(
    "kernel, measure",
    [
        ({"family": "sphere_sobolev32"}, {"family": "sphere_uniform", "d": 2}),
        (
            {"family": "gaussian", "lengthscales": [0.7, 0.7, 0.7]},
            {"family": "uniform_box", "lows": [0.0, 0.0, 0.0], "highs": [1.0, 1.5, 2.0]},
        ),
    ],
    ids=["sphere", "gauss_box3"],
)
def test_verify_detects_a_closed_form_off_by_1e_5(kernel, measure, spec_file, capsys, monkeypatch):
    # the randomized rules' bands are about 1e-6 here, so a K_P scaled by
    # 1 + 1e-5 fails every kp check; the plain Monte Carlo bands of about
    # 1e-3 passed it
    spec = spec_file({"schema_version": 1, "kernel": kernel, "measure": measure})
    code, out = _run(capsys, ["verify", "--spec", spec])
    assert code == 0, out.out
    kp_rows = dictionary.Embedding.kp_rows
    monkeypatch.setattr(
        dictionary.Embedding, "kp_rows", lambda self, X: kp_rows(self, X) * (1.0 + 1e-5)
    )
    code, out = _run(capsys, ["verify", "--spec", spec])
    assert code == 1
    checks = json.loads(out.out)["checks"]
    assert [c["pass"] for c in checks if c["what"] == "kp"] == [False] * 20


def test_exit_2_unsupported_pair(spec_file, capsys):
    spec = spec_file({
        "schema_version": 1,
        "kernel": {"family": "fbm", "hurst": 0.5},
        "measure": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
    })
    code, out = _run(capsys, ["eval", "--spec", spec, "--what", "kpp"])
    assert code == 2
    assert "unsupported" in out.err


def test_exit_3_unknown_key_is_named(spec_file, capsys):
    doc = json.loads(json.dumps(GG_SPEC))
    doc["kernel"]["wrong_key"] = 1
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kpp"])
    assert code == 3
    assert "wrong_key" in out.err


def test_exit_3_schema_version(spec_file, capsys):
    doc = json.loads(json.dumps(GG_SPEC))
    doc["schema_version"] = 2
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kpp"])
    assert code == 3
    assert "schema_version" in out.err


def test_exit_3_duplicate_nodes(spec_file, capsys, tmp_path):
    data = tmp_path / "dup.csv"
    data.write_text("x1,y\n0.5,1.0\n0.5,2.0\n")
    code, out = _run(
        capsys, ["bq", "--spec", spec_file(GG_SPEC), "--data", str(data)]
    )
    assert code == 3
    assert "coincide" in out.err


@pytest.mark.parametrize("what", ["kp", "kpp"])
def test_exit_3_periodic_sobolev_under_a_gaussian(spec_file, capsys, what):
    # the error names the measure and the kernel's domain, not an oracle node
    doc = {"schema_version": 1, "kernel": {"family": "periodic_sobolev", "r": 1},
           "measure": {"family": "gaussian", "mean": [0.5], "cov": [0.01]}}
    argv = ["eval", "--spec", spec_file(doc), "--what", what]
    code, out = _run(capsys, argv + (["--x", "0.5"] if what == "kp" else []))
    assert code == 3
    assert "periodic Sobolev kernels live on [0, 1]; a gaussian measure" in out.err


def test_exit_3_missing_spec_file(capsys):
    code, out = _run(capsys, ["eval", "--spec", "/nonexistent.json",
                              "--what", "kpp"])
    assert code == 3


def test_exit_4_forced_jitter(spec_file, capsys, tmp_path):
    data = tmp_path / "neardup.csv"
    data.write_text("x1,y\n0.5,1.0\n0.50000000001,2.0\n")
    spec = spec_file(GG_SPEC)
    code, out = _run(
        capsys, ["bq", "--spec", spec, "--data", str(data), "--jitter", "0"]
    )
    assert code == 4
    assert "numerical failure" in out.err
    # without the forced jitter the ladder rescues the same problem
    code, out = _run(capsys, ["bq", "--spec", spec, "--data", str(data)])
    assert code == 0
    assert json.loads(out.out)["jitter_applied"] > 0.0


def test_usage_errors_exit_3():
    with pytest.raises(SystemExit) as exc:
        run(["nope"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--what", "kpp"])
    assert exc.value.code == 3


def test_env_seed_changes_verify_points(spec_file, capsys, monkeypatch):
    spec = spec_file(GG_SPEC)
    _, base = _run(capsys, ["verify", "--spec", spec])
    monkeypatch.setenv("KED_DEFAULT_SEED", "9")
    _, seeded = _run(capsys, ["verify", "--spec", spec])
    assert base.out != seeded.out
    assert json.loads(seeded.out)["pass"] is True


def test_flag_seed_overrides_spec_seed(spec_file, capsys):
    doc = json.loads(json.dumps(GG_SPEC))
    doc["seed"] = 5
    spec = spec_file(doc)
    _, spec_seeded = _run(capsys, ["verify", "--spec", spec])
    _, flag_seeded = _run(capsys, ["verify", "--spec", spec, "--seed", "7"])
    assert spec_seeded.out != flag_seeded.out


def test_spec_seed_overrides_env(spec_file, capsys, monkeypatch):
    doc = json.loads(json.dumps(GG_SPEC))
    doc["seed"] = 5
    spec = spec_file(doc)
    _, base = _run(capsys, ["verify", "--spec", spec])
    monkeypatch.setenv("KED_DEFAULT_SEED", "9")
    _, enved = _run(capsys, ["verify", "--spec", spec])
    assert base.out == enved.out


def test_json_data_routes(spec_file, capsys, tmp_path):
    spec = spec_file(GG_SPEC)
    obj = tmp_path / "data.json"
    obj.write_text(json.dumps({"points": [[0.0]], "values": [1.0]}))
    _, from_obj = _run(capsys, ["bq", "--spec", spec, "--data", str(obj)])
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([[0.0, 1.0]]))
    _, from_rows = _run(capsys, ["bq", "--spec", spec, "--data", str(rows)])
    assert from_obj.out == from_rows.out == _golden("bq_gg.json")


def test_json_samples_route(spec_file, capsys, tmp_path):
    spec = spec_file(GG_SPEC)
    arr = tmp_path / "samples.json"
    arr.write_text(json.dumps([[0.5], [-0.3], [1.1]]))
    _, out = _run(capsys, ["mmd", "--spec", spec, "--samples", str(arr)])
    assert out.out == _golden("mmd_gg.json")


def test_multidim_point_parsing(spec_file, capsys):
    spec = spec_file({
        "schema_version": 1,
        "kernel": {"family": "gaussian", "lengthscales": [0.8, 1.5]},
        "measure": {"family": "uniform_box", "lows": [0.0, -1.0],
                    "highs": [2.0, 1.0]},
    })
    code, out = _run(
        capsys, ["eval", "--spec", spec, "--what", "kp", "--x", "0.3,0.2"]
    )
    assert code == 0
    assert json.loads(out.out)["value"] == pytest.approx(
        0.5827847062891051, rel=1e-15
    )


def test_bad_point_format(spec_file, capsys):
    code, out = _run(
        capsys,
        ["eval", "--spec", spec_file(GU_SPEC), "--what", "kp", "--x", "a,b"],
    )
    assert code == 3


def test_bad_csv_header(spec_file, capsys, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("foo,bar\n0.0,1.0\n")
    code, out = _run(
        capsys, ["bq", "--spec", spec_file(GG_SPEC), "--data", str(data)]
    )
    assert code == 3


# (file text, with a value column, the message of the InvalidSpecError or
# the parsed points and values); "row N" counts the nonempty rows
_CSV_CASES = [
    ("x1,y\n0.5,1.0\n0.25\n", True, "row 3 has 1 fields, expected 2"),
    ("x1,y\n0.5,1.0\n0.25,abc\n", True, "row 3 holds a non-numeric field"),
    ("", True, "data file is empty"),
    ("\n\n", False, "data file is empty"),
    ("x1,y\n", True, "data file has a header but no rows"),
    ("x1,y\n0.5,1.0\n \n", True, "row 3 has 1 fields, expected 2"),
    ("x1\n0.5\n \n", False, "row 3 holds a non-numeric field"),
    ('x1,y\n"0.5",1.0\n', True, ([[0.5]], [1.0])),
    ("x1,y\n# a comment\n0.5,1.0\n", True, "row 2 has 1 fields, expected 2"),
    ("x1,y\n0.5,1.0,\n", True, "row 2 has 3 fields, expected 2"),
    ("x1,x2\n0.5,1.0\n\n-0.25,1e-3\n", False, ([[0.5, 1.0], [-0.25, 0.001]], None)),
    ("x1,y\n 0.5 , 1.0 \n", True, ([[0.5]], [1.0])),
    ("x1,y\n1_0,2\n", True, ([[10.0]], [2.0])),
    ("x1,y\nnan,1.0\n", True, "data values must be finite"),
    ("x1,y\n0.1,0.2\n", False, ([[0.1]], None)),
]


@pytest.mark.parametrize("text, with_values, want", _CSV_CASES)
def test_csv_rows_and_messages(text, with_values, want):
    # the messages and values of the field-by-field csv parser
    if isinstance(want, str):
        with pytest.raises(InvalidSpecError) as err:
            cli._rows_from_csv(text, with_values)
        assert str(err.value) == want
        return
    points, values = cli._rows_from_csv(text, with_values)
    assert points.tolist() == want[0]
    assert (None if values is None else values.tolist()) == want[1]


def test_csv_rows_that_loadtxt_skips_go_to_the_field_parser(monkeypatch):
    # a loadtxt that skipped the whitespace-only row would drop it silently
    loadtxt = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda f, **kw: loadtxt(io.StringIO(f.getvalue().replace(" \n", "")), **kw)
    )
    with pytest.raises(InvalidSpecError) as err:
        cli._rows_from_csv("x1,y\n0.5,1.0\n \n", True)
    assert str(err.value) == "row 3 has 1 fields, expected 2"


def test_csv_body_keeps_the_bits_of_float():
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                             rng.uniform(-1.0, 1.0, 200)])
    lines = ["x1,y"] + [f"{repr(float(a))},{b!r}" for a, b in table.tolist()]
    points, values = cli._rows_from_csv("\n".join(lines) + "\n", True)
    want = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert np.column_stack([points, values]).tobytes() == np.array(want).tobytes()


def test_console_script_smoke(spec_file, tmp_path):
    spec = spec_file(GG_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "kembed.cli", "eval", "--spec", spec,
         "--what", "kpp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == _golden("eval_gg_kpp.json")


def test_eval_kp_where_erf_arguments_overflow(spec_file):
    # (b - x) / (sqrt 2 l) overflows to +-inf, where erf takes its limits
    doc = {
        "schema_version": 1,
        "kernel": {"family": "gaussian", "lengthscales": [1e-300]},
        "measure": {"family": "uniform_box", "lows": [0.0], "highs": [1e10]},
    }
    proc = subprocess.run(
        [sys.executable, "-m", "kembed.cli", "eval", "--spec", spec_file(doc),
         "--what", "kp", "--x", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["value"]
    # sqrt(2 pi) l / r
    assert value == pytest.approx(math.sqrt(2.0 * math.pi) * 1e-300 / 1e10, rel=1e-12)


_G1 = {"family": "gaussian", "lengthscales": [1.0]}
_BOX1 = {"family": "uniform_box", "lows": [0.0], "highs": [1.0]}
_N1 = {"family": "gaussian", "mean": [0.0], "cov": [1.0]}
_AFFINE = {"kind": "affine", "scale": [2.0], "shift": [0.5]}

# One bad value per converter kind: (kernel, measure, key path named).
_MALFORMED = {
    "number": ({"family": "matern", "nu": "abc", "lengthscale": 1}, _BOX1, "kernel.nu"),
    "integer": ({"family": "wendland", "order": 2.5, "lengthscale": 1}, _BOX1, "kernel.order"),
    "numbers": ({"family": "gaussian", "lengthscales": [1.0, "x"]}, _BOX1,
                "kernel.lengthscales[1]"),
    "integers": ({"family": "product", "children": [_G1, _G1], "block_dims": [1, "1"]},
                 _BOX1, "kernel.block_dims[1]"),
    "array": (_G1, {"family": "gaussian", "mean": [0.0], "cov": [[1.0], [2.0, 3.0]]},
              "measure.cov"),
    "terms": ({"family": "power_series", "terms": [{"alpha": [1], "coeff": [2.0]}]},
              _BOX1, "kernel.terms[0].coeff"),
    "kernel": ({"family": "composed", "base": "gaussian", "map": _AFFINE}, _BOX1,
               "kernel.base"),
    "kernels": ({"family": "sum", "children": {"a": _G1}, "weights": [1.0]}, _BOX1,
                "kernel.children"),
    "measure": ({"family": "stein", "base": _G1, "target": 0}, _N1, "kernel.target"),
    "measures": (_G1, {"family": "mixture", "components": [_BOX1, [0.0]], "weights": [0.5, 0.5]},
                 "measure.components[1]"),
    "map": ({"family": "composed", "base": _G1, "map": "affine"}, _BOX1, "kernel.map"),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_exit_3_malformed_value_names_its_key(spec_file, capsys, kind):
    kernel, measure, path = _MALFORMED[kind]
    doc = {"schema_version": 1, "kernel": kernel, "measure": measure}
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kpp"])
    assert code == 3
    assert out.err.startswith("invalid input: ")
    assert path in out.err


@pytest.mark.parametrize("kernel, measure, path", [
    ({"family": "matern", "nu": 1.5, "lengthscale": math.nan}, _BOX1, "kernel.lengthscale"),
    (_G1, {"family": "uniform_box", "lows": [0.0], "highs": [math.inf]}, "measure.highs[0]"),
    (_G1, {"family": "gaussian", "mean": [0.0], "cov": [[math.nan]]}, "measure.cov"),
], ids=["nan", "infinity", "nan_in_array"])
def test_exit_3_non_finite_value(spec_file, capsys, kernel, measure, path):
    doc = {"schema_version": 1, "kernel": kernel, "measure": measure}
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kpp"])
    assert code == 3
    assert path in out.err


_WELL_FORMED_KERNELS = [
    {"family": "gaussian", "lengthscales": [1.0, 2.0]},
    {"family": "gaussian", "matrix": [[2.0, 0.5], [0.5, 1.0]]},
    {"family": "matern", "nu": 2.5, "lengthscale": 0.7},
    {"family": "wendland", "order": 2, "lengthscale": 1.5},
    {"family": "fbm", "hurst": 0.3, "domain": [0.0, 2.0]},
    {"family": "power_series", "terms": [{"alpha": [0, 2], "coeff": 1.0}]},
    {"family": "sphere_sobolev32"},
    {"family": "sphere_smooth"},
    {"family": "periodic_sobolev", "r": 2},
    {"family": "sum", "children": [_G1, {"family": "matern", "nu": 0.5, "lengthscale": 1}],
     "weights": [0.5, 0.5]},
    {"family": "product", "children": [_G1, _G1], "block_dims": [1, 1]},
    {"family": "matrix_valued", "base": _G1, "matrix": [[1.0, 0.0], [0.0, 2.0]]},
    {"family": "composed", "base": _G1, "map": {"kind": "normal_icdf"}},
    {"family": "stein", "base": _G1, "target": _N1, "c": 1.0},
]
_WELL_FORMED_MEASURES = [
    {"family": "uniform_box", "lows": [0.0, -1.0], "highs": [1.0, 1.0]},
    {"family": "gaussian", "mean": [0.0, 1.0], "cov": [[1.0, 0.2], [0.2, 2.0]]},
    {"family": "gaussian", "mean": [0.0], "cov": 2.0},
    {"family": "sphere_uniform", "d": 2},
    {"family": "mixture", "components": [_BOX1, _N1], "weights": [0.25, 0.75]},
    {"family": "pushforward", "base": _BOX1, "map": _AFFINE},
    {"family": "empirical", "points": [[0.0], [1.0]], "weights": [0.5, 0.5]},
]


def test_eval_kpp_fbm_under_box_mixture(spec_file, capsys):
    box2 = {"family": "uniform_box", "lows": [1.0], "highs": [2.0]}
    doc = {
        "schema_version": 1,
        "kernel": {"family": "fbm", "hurst": 0.7},
        "measure": {"family": "mixture", "components": [_BOX1, box2], "weights": [0.5, 0.5]},
    }
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kpp"])
    assert code == 0
    assert json.loads(out.out)["provenance"] == "numeric_fallback"


@pytest.mark.parametrize("kernel", [
    {"family": "fbm", "hurst": 0.7},
    {"family": "matern", "nu": 1.5, "lengthscale": 1.0},
])
def test_verify_under_two_adjacent_boxes(spec_file, capsys, kernel):
    # each box's closed form is evaluated at points of the other box
    box2 = {"family": "uniform_box", "lows": [1.0], "highs": [2.0]}
    doc = {
        "schema_version": 1,
        "kernel": kernel,
        "measure": {"family": "mixture", "components": [_BOX1, box2], "weights": [0.5, 0.5]},
    }
    path = spec_file(doc)
    code, out = _run(capsys, ["verify", "--spec", path])
    assert code == 0, out.err
    assert json.loads(out.out)["pass"] is True
    code, out = _run(capsys, ["eval", "--spec", path, "--what", "kp", "--x", "0.5"])
    assert code == 0, out.err
    assert json.loads(out.out)["provenance"] == "closed_form"


@pytest.mark.parametrize("argv", [
    ["--what", "kp", "--x", "1.0"],
    ["--what", "kp", "--x", "1.7"],
    ["--what", "kernel", "--x", "1.7", "--y", "0.5"],
])
def test_exit_3_normal_icdf_outside_unit_interval(spec_file, capsys, argv):
    doc = {
        "schema_version": 1,
        "kernel": {
            "family": "composed",
            "base": {"family": "gaussian", "lengthscales": [0.8]},
            "map": {"kind": "normal_icdf"},
        },
        "measure": {"family": "uniform_box", "lows": [0.0], "highs": [1.0]},
    }
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), *argv])
    assert code == 3
    assert out.err.startswith("invalid input: ") and "normal_icdf" in out.err


_BOX1 = {"family": "uniform_box", "lows": [0.0], "highs": [1.0]}
_FAR_PAIR = ["--what", "kernel", "--x", "0", "--y", "1e200"]


_FAR_KP = ["--what", "kp", "--x", "1e200"]


@pytest.mark.parametrize("kernel, measure, argv, provenance", [
    ({"family": "matern", "nu": 2.5, "lengthscale": 1.0}, _BOX1, _FAR_PAIR, "closed_form"),
    ({"family": "wendland", "order": 2, "lengthscale": 1.0}, _BOX1, _FAR_PAIR, "closed_form"),
    ({"family": "wendland", "order": 2, "lengthscale": 1.0}, _BOX1, _FAR_KP, "numeric_fallback"),
    ({"family": "gaussian", "lengthscales": [1.0]}, _BOX1, _FAR_PAIR, "closed_form"),
    ({"family": "matern", "nu": 2.5, "lengthscale": 1.0}, _N1, _FAR_KP, "closed_form"),
    ({"family": "wendland", "order": 2, "lengthscale": 1.0}, _N1, _FAR_KP, "closed_form"),
    ({"family": "gaussian", "lengthscales": [1.0]}, _N1, _FAR_KP, "closed_form"),
    ({"family": "wendland", "order": 0, "lengthscale": 1.0}, _N1, _FAR_KP, "closed_form"),
], ids=["matern", "wendland", "wendland-kp", "gaussian",
        "matern-gauss-kp", "wendland-gauss-kp", "gaussian-gauss-kp", "wendland0-gauss-kp"])
def test_a_clipped_overflow_leaves_stderr_empty(spec_file, capsys, kernel, measure, argv, provenance):
    # a squared distance past the float range is inf, which each kernel
    # clips or sends to 0, and an embedding under a Gaussian is 0 past the
    # Gaussian's tail: the value is right, and under the suite's
    # warnings-as-errors filter no RuntimeWarning is raised
    doc = {"schema_version": 1, "kernel": kernel, "measure": measure}
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), *argv])
    pair = f"{kernel['family']}/{measure['family']}"
    want = f'{{"value": 0.0, "provenance": "{provenance}", "pair": "{pair}"}}\n'
    assert (code, out.out, out.err) == (0, want, "")


def test_exit_4_on_a_value_json_cannot_hold(spec_file, capsys):
    # (x y)^2 overflows to inf, which strict JSON has no word for
    doc = {
        "schema_version": 1,
        "kernel": {"family": "power_series", "terms": [{"alpha": [2], "coeff": 1.0}]},
        "measure": {"family": "gaussian", "mean": [0.0], "cov": [1.0]},
    }
    argv = ["eval", "--spec", spec_file(doc), "--what", "kernel", "--x", "1e200", "--y", "1e200"]
    code, out = _run(capsys, argv)
    assert code == 4 and out.out == ""
    assert out.err.startswith("numerical failure: ") and '"value": Infinity' in out.err


@pytest.mark.parametrize("y, value", [("1e-200", 1.0), ("0", 0.0)])
def test_a_power_series_of_an_overflowing_factor_is_finite(spec_file, capsys, y, value):
    # x^2 overflows and y^2 underflows, but (x y)^2 is in range
    doc = {
        "schema_version": 1,
        "kernel": {"family": "power_series", "terms": [{"alpha": [2], "coeff": 1.0}]},
        "measure": _N1,
    }
    code, out = _run(capsys, ["eval", "--spec", spec_file(doc), "--what", "kernel", "--x", "1e200", "--y", y])
    want = f'{{"value": {value}, "provenance": "closed_form", "pair": "power_series/gaussian"}}\n'
    assert (code, out.out, out.err) == (0, want, "")


def test_bq_exits_4_when_the_gram_does_not_fit(spec_file, capsys, tmp_path, monkeypatch):
    # the dense route's Gram of 20 000 nodes takes 2.98 GiB; numpy's
    # MemoryError becomes a typed failure that names the need
    def no_memory(self, X):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(kernels.Kernel, "gram", no_memory)
    doc = {"schema_version": 1, "kernel": {"family": "gaussian", "lengthscales": [0.5]}, "measure": _N1}
    x = np.random.default_rng(0).normal(size=20_000)
    data = tmp_path / "nodes.csv"
    np.savetxt(data, np.column_stack([x, np.sin(x)]), delimiter=",", header="x1,y", comments="")
    code, out = _run(capsys, ["bq", "--spec", spec_file(doc), "--data", str(data)])
    assert (code, out.out) == (4, "")
    assert out.err == ("numerical failure: the Gram matrix of 20000 nodes needs 2.98 GiB, "
                       "more memory than could be allocated\n")


def test_bq_matrix_valued_exits_3(spec_file, capsys, tmp_path):
    # a matrix-valued embedding is rejected before its Gram is built,
    # as mmd rejects it
    doc = {
        "schema_version": 1,
        "kernel": {
            "family": "matrix_valued",
            "base": _G1,
            "matrix": [[1.0, 0.2], [0.2, 1.0]],
        },
        "measure": _N1,
    }
    data = tmp_path / "three.csv"
    data.write_text("x1,y\n0.1,1.0\n0.5,2.0\n-0.3,0.5\n")
    code, out = _run(capsys, ["bq", "--spec", spec_file(doc), "--data", str(data)])
    assert code == 3
    assert out.err == "invalid input: quadrature requires a scalar-valued embedding\n"


def test_every_family_has_a_well_formed_example():
    assert {k["family"] for k in _WELL_FORMED_KERNELS} == set(cli._KERNELS[0])
    assert {m["family"] for m in _WELL_FORMED_MEASURES} == set(cli._MEASURES[0])


@pytest.mark.parametrize("obj", _WELL_FORMED_KERNELS, ids=lambda o: o["family"])
def test_well_formed_kernel_parses(obj):
    assert cli.parse_kernel(obj).family == obj["family"]


@pytest.mark.parametrize("obj", _WELL_FORMED_MEASURES, ids=lambda o: o["family"])
def test_well_formed_measure_parses(obj):
    assert cli.parse_measure(obj).family == obj["family"]


def test_gaussian_kernel_needs_one_of_its_keys():
    with pytest.raises(InvalidSpecError, match="missing key 'lengthscales' in kernel"):
        cli.parse_kernel({"family": "gaussian"})
    with pytest.raises(InvalidSpecError, match="exactly one"):
        cli.parse_kernel({"family": "gaussian", "lengthscales": [1.0], "matrix": [[1.0]]})


def test_verify_under_a_mixture_with_an_empirical_component(spec_file, capsys):
    # the oracle samples the mixture, drawing the empirical component
    # through its own sampler
    doc = {
        "schema_version": 1,
        "kernel": _G1,
        "measure": {
            "family": "mixture",
            "components": [_N1, {"family": "empirical", "points": [[0.0], [1.0]]}],
            "weights": [0.5, 0.5],
        },
    }
    path = spec_file(doc)
    for seed in ("0", "1"):
        code, out = _run(capsys, ["verify", "--spec", path, "--seed", seed])
        assert code == 0, out.err
        assert json.loads(out.out)["pass"] is True
