"""End-to-end CLI tests: exit codes, report schema, golden files, stability."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import cli_env

from kreinls import KreinError, Projection, ProjectionKind, SolveReport, cli, matio

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# (golden name, argv, expected exit code)
CASES = [
    ("classify_neutral", ["classify", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("companion_neutral", ["companion", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("decompose_neutral", ["decompose", "--space", "m2.json", "--subspace", "span_pp.json"], 0),
    ("adjoint_b3", ["adjoint", "--space", "m2.json", "--b", "b3.json"], 0),
    ("project_selfadjoint_e1", ["project", "selfadjoint", "--space", "m2.json", "--subspace", "span_e1.json"], 0),
    ("project_selfadjoint_neutral", ["project", "selfadjoint", "--space", "m2.json", "--subspace", "span_pp.json"], 2),
    ("project_normal_neutral", ["project", "normal", "--space", "m2.json", "--subspace", "span_pm.json"], 0),
    ("project_ando_e1", ["project", "ando", "--space", "m2.json", "--subspace", "span_e1.json"], 0),
    ("inverse_b1", ["solve-ils", "--space", "m2.json", "--b", "b1.json"], 0),
    ("inverse_b2", ["solve-ils", "--space", "m2.json", "--b", "b2.json"], 2),
    ("ims_b2_eye", ["solve-ils", "--space", "m2.json", "--b", "b2.json", "--c", "eye2.json"], 2),
    ("ims_b1_eye", ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json"], 0),
    ("imax_b1_eye", ["solve-imax", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json"], 2),
    ("imax_c2", ["solve-imax", "--space", "m2.json", "--b", "c_e2.json", "--c", "c_e2.json"], 0),
    ("minmax_b2", ["solve-minmax", "--space", "m2.json", "--b", "b2.json", "--c", "b2.json"], 0),
    ("pinv_b1", ["pinv", "--space", "m2.json", "--b", "b1.json"], 0),
    ("pinv_b3", ["pinv", "--space", "m2.json", "--b", "b3.json"], 2),
    ("geninv_b3", ["geninv", "--space", "m2.json", "--b", "b3.json"], 0),
    ("min_norm_b3", ["min-norm", "--space", "m2.json", "--b", "b3.json", "--c", "c_e2.json"], 0),
    ("verify_good", ["verify", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"], 0),
    ("verify_bad", ["verify", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "x_bad.json"], 2),
    ("oracle_positive", ["oracle", "--space", "m2.json", "--b", "b1.json"], 0),
    ("oracle_indefinite", ["oracle", "--space", "m2.json", "--b", "eye2.json"], 2),
    ("oracle_min", ["oracle", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"], 0),
]

ERROR_CASES = [
    ["no-such-command", "--space", "m2.json"],
    ["adjoint", "--space", "m2.json"],  # missing --b
    ["adjoint", "--space", "missing.json", "--b", "b1.json"],
    ["adjoint", "--space", "m2.json", "--b", "broken.json"],
    ["adjoint", "--space", "gram_nonherm.json", "--b", "b1.json"],
    ["adjoint", "--space", "m2.json", "--b", "eye4.json"],  # dimension mismatch
    ["project", "sideways", "--space", "m2.json", "--subspace", "span_e1.json"],
    ["oracle", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "x_nan.json"],
    # malformed tolerances: NaN or negative
    ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--tol-rank", "nan"],
    ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--tol-num", "nan"],
    ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--tol-rank", "-1"],
    ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--tol-num", "-1"],
    # a negative seed, which the random generator would refuse with a ValueError
    ["pinv", "--seed", "-1", "--space", "m2.json", "--b", "b1.json"],
    ["verify", "--seed", "-1", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"],
    ["oracle", "--seed", "-1", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"],
]


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "kreinls.cli", *argv],
        cwd=DATA,
        env=cli_env(),
        capture_output=True,
        text=True,
    )


def close(a, b):
    """Structural equality with float tolerance (LAPACK variation)."""
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[key], b[key]) for key in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            close(x, y) for x, y in zip(a, b)
        )
    return a == b


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code):
    proc = run_cli(argv)
    assert proc.returncode == code, proc.stderr
    got = json.loads(proc.stdout)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert close(got, want), f"report drifted from golden for {name}"


def test_output_is_byte_stable():
    argv = ["pinv", "--space", "m2.json", "--b", "b1.json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


def test_out_flag_mirrors_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(["classify", "--space", "m2.json", "--subspace", "span_pp.json", "--out", str(out)])
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


@pytest.mark.parametrize("argv", ERROR_CASES, ids=[" ".join(c[:2]) for c in ERROR_CASES])
def test_input_errors_exit_one(argv):
    proc = run_cli(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: "), proc.stderr


def test_fixture_values_in_reports():
    inv = json.loads(run_cli(["solve-ils", "--space", "m2.json", "--b", "b1.json"]).stdout)
    assert inv["solution"]["data"][0][0] == [1, 0]
    assert inv["residuals"]["normal_equation"] <= 1e-12

    ims = json.loads(run_cli(["solve-ils", "--space", "m2.json", "--b", "b2.json", "--c", "eye2.json"]).stdout)
    assert ims["reason"] == "RangeInclusionFails"
    assert ims["solution"] is None

    pv = json.loads(run_cli(["pinv", "--space", "m2.json", "--b", "b1.json"]).stdout)
    assert pv["solution"]["data"] == [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]

    gi = json.loads(run_cli(["geninv", "--space", "m2.json", "--b", "b3.json"]).stdout)
    assert gi["kind"] == "NormalPair"
    assert close(gi["solution"]["data"], [[[0.5, 0], [0, 0]], [[0.5, 0], [0, 0]]])
    assert max(gi["residuals"].values()) <= 1e-10


def test_tolerance_overrides_change_rank_decision(tmp_path):
    # a nearly rank-one basis: strict default keeps 2 directions,
    # a loose --tol-rank collapses it to a line
    near = tmp_path / "near_rank1.json"
    basis = np.array([[1.0, 1.0], [0.0, 1e-6]], dtype=complex)
    near.write_text(matio.canonical_dumps({"basis": matio.matrix_to_json(basis)}) + "\n")
    strict = json.loads(run_cli(["classify", "--space", "m2.json", "--subspace", str(near)]).stdout)
    loose = json.loads(
        run_cli(["classify", "--space", "m2.json", "--subspace", str(near), "--tol-rank", "1e-3"]).stdout
    )
    total = lambda rep: sum(rep["inertia"].values())
    assert total(strict) == 2
    assert total(loose) == 1
    assert loose["config_echo"]["tol_rank"] == 1e-3


def test_canonical_dumps_writes_library_values(m2):
    """Report values go to the writer as the library makes them."""
    op = m2.operator([[1.0, 0.5j], [0.0, -2.0]])
    proj = Projection(m2.operator(np.diag([1.0, 0.0])), None, ProjectionKind.SELFADJOINT)
    report = {
        "operator": op,
        "projection": proj,
        "kind": ProjectionKind.NORMAL,
        "real_vector": np.array([0.25, 3.0]),
        "complex_matrix": np.array([[1 + 2j], [3 - 1j]]),
        "complex_vector": np.array([1j, 2.0]),
        "flags": [np.bool_(True), np.bool_(False), True],
        "count": np.int64(7),
        "float": np.float64(0.1),
        "complex": 1.5 - 2j,
        "none": None,
        "nested": (1, (2.5, "x"), {"k": (None,), 3: {}}),
    }
    assert matio.canonical_dumps(report) == (
        '{"operator":{"rows":2,"cols":2,"data":[[[1,0],[0,0.5]],[[0,0],[-2,0]]]},'
        '"projection":{"rows":2,"cols":2,"data":[[[1,0],[0,0]],[[0,0],[0,0]]]},'
        '"kind":"Normal",'
        '"real_vector":[0.25,3],'
        '"complex_matrix":{"rows":2,"cols":1,"data":[[[1,2]],[[3,-1]]]},'
        '"complex_vector":{"rows":1,"cols":2,"data":[[[0,1],[2,0]]]},'
        '"flags":[true,false,true],'
        '"count":7,'
        '"float":0.10000000000000001,'
        '"complex":[1.5,-2],'
        '"none":null,'
        '"nested":[1,[2.5,"x"],{"k":[null],"3":{}}]}'
    )


# each command without one operand it needs: (argv without --space, missing flag)
MISSING_OPERAND = [
    (["adjoint"], "b"),
    (["classify"], "subspace"),
    (["companion"], "subspace"),
    (["decompose"], "subspace"),
    (["project", "normal"], "subspace"),
    (["solve-ils"], "b"),
    (["solve-ils", "--c", "eye2.json"], "b"),
    (["solve-imax"], "b"),
    (["solve-imax", "--b", "b1.json"], "c"),
    (["solve-minmax", "--b", "b2.json"], "c"),
    (["pinv"], "b"),
    (["geninv"], "b"),
    (["min-norm", "--b", "b3.json"], "c"),
    (["verify", "--b", "b1.json"], "c"),
    (["verify", "--b", "b1.json", "--c", "eye2.json"], "x"),
    (["oracle"], "b"),
    (["oracle", "--c", "eye2.json", "--x", "b1.json"], "b"),
]


def test_every_command_has_a_golden_case():
    assert set(cli.COMMANDS) <= {argv[0] for _, argv, _ in CASES}
    assert set(cli.COMMANDS) == {argv[0] for argv, _ in MISSING_OPERAND}


@pytest.mark.parametrize(
    "argv,flag", MISSING_OPERAND, ids=[" ".join(a) + " -" + f for a, f in MISSING_OPERAND]
)
def test_missing_operand_is_an_input_error(argv, flag, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert cli.main([*argv, "--space", "m2.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: this command requires --%s" % flag), err


def test_an_error_in_a_certificate_is_an_input_error(monkeypatch, capsys):
    """A report computes its certificates when the handler reads them: an error
    raised there ends in exit code 1 like any other."""

    def overflowing():
        raise KreinError("operator has non-finite entries")

    def solver(b, seed):
        return SolveReport(True, None, {}, None, lambda: None, overflowing, seed)

    monkeypatch.setitem(cli.COMMANDS, "pinv", ("", cli._solver(solver, "b")))
    monkeypatch.chdir(DATA)
    assert cli.main(["pinv", "--space", "m2.json", "--b", "b1.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: operator has non-finite entries\n"


@pytest.mark.parametrize("value", [math.inf, complex(0.0, math.nan)], ids=["inf", "complex-nan"])
def test_a_non_finite_report_value_is_an_input_error(value, monkeypatch, capsys):
    """A report value that JSON cannot hold ends in exit code 1 and an error line."""

    def solver(b, seed):
        return SolveReport(True, None, {}, None, lambda: None, lambda: (value, {}), seed)

    monkeypatch.setitem(cli.COMMANDS, "pinv", ("", cli._solver(solver, "b")))
    monkeypatch.chdir(DATA)
    assert cli.main(["pinv", "--space", "m2.json", "--b", "b1.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: report value "), err


def test_overflow_ends_in_an_error_line_without_a_numpy_warning(tmp_path, capsys):
    """B x 1e300 overflows in the space G x 1e-150 (the adjoint) and in G x 1e150 (R B R^-1,
    which every analysis of B reads): each run ends in exit code 1 with stderr starting
    at its error line, and numpy warns nothing."""
    gram = matio.matrix_from_json(json.loads((DATA / "m2.json").read_text())["gram"])
    b = matio.load_matrix(DATA / "b3.json")
    (tmp_path / "b.json").write_text(json.dumps(matio.matrix_to_json(b * 1e300)))
    cases = [("adjoint", 1e-150), ("solve-ils", 1e150), ("pinv", 1e150), ("geninv", 1e150)]
    for command, scale in cases:
        space = {"gram": matio.matrix_to_json(gram * scale)}
        (tmp_path / "space.json").write_text(json.dumps(space))
        argv = [command, "--space", str(tmp_path / "space.json"), "--b", str(tmp_path / "b.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 1, command
        out, err = capsys.readouterr()
        assert out == "", command
        assert err.startswith("error: "), err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def test_cli_does_not_import_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import kreinls.cli, sys; sys.exit('scipy' in sys.modules)"],
        env=cli_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr or "kreinls.cli imported scipy"
