"""Every name a kreinls module imports is used in that module, and no module
imports another kreinls module's private (underscore-prefixed) names.

No linter ships with the project, so this stands in for those two rules with
the standard library's ast. `__init__.py` only re-exports and is skipped.

The import footprint: `import kreinls` loads no submodule and no numpy, a
`krein` command loads only the modules it runs (`ils` never the oracle, `verify`
no random generator), and every public name still resolves from the package.
Each check runs in a fresh interpreter.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import cli_env

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinls"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "import numpy as np\nfrom .core import herm, range_of\n\nrange_of(np)\n"
    assert _unused_imports(source) == [(2, "herm")]


def _private_imports(source):
    """(line, name) of each underscore-prefixed name imported from a kreinls module."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "kreinls")
        for alias in node.names
        if alias.name.startswith("_")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert _private_imports(path.read_text()) == []


def test_the_check_finds_a_private_import():
    source = (
        "from numpy import _private\nfrom .core import herm\n"
        "from .ils import (\n    _kept,\n)\nfrom kreinls.pinv import _square\n"
    )
    assert _private_imports(source) == [(3, "_kept"), (6, "_square")]


# the public names of the package, by the module that defines them
PUBLIC = {
    "core": """KreinSpace Operator Subspace SubspaceClass SubspaceKind Tolerances classify
        contains_columns decompose_subspace full_subspace isotropic_part
        make_space neutral_range nullspace_of orthogonal_companion principal_angles
        range_inclusion range_of solve_douglas subspace_equal subspace_from_spanning
        subspace_intersection subspace_sum subspace_within zero_subspace""",
    "errors": """BadProjection DimensionMismatch InfeasibleInstance KreinError NoFactorization
        NotComplementary NotHermitian NotRegular NotSelfadjoint ParseError SingularGram
        SpaceMismatch""",
    "ils": """SolutionManifold SolveReport indefinite_inverse indefinite_inverse_in_range
        regular_range_rank_check solve_imax solve_ims verify_ims""",
    "minmax": """OperatorSplit minmax_value_identity random_fundamental_symmetry solve_immso
        split_operator verify_immso""",
    "oracle": "Certificate certify_min hilbert_limit_check is_krein_positive",
    "pinv": """GeneralizedInverse GeneralizedInverseKind canonical_pair generalized_inverse
        krein_moore_penrose mp_variational_check one_two_inverse one_two_pair
        rebuild_generalized_inverse reduced_generalized_inverse solve_min_ims_norm""",
    "projections": """Projection ProjectionKind ando_split companion_identity_check
        normal_projection oblique_projection projection_from_matrix selfadjoint_projection""",
}
SOLVERS = {"kreinls.ils", "kreinls.pinv", "kreinls.minmax", "kreinls.oracle"}


def _python(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=cli_env(), capture_output=True, text=True
    )
    assert proc.returncode in (0, 2), proc.stderr
    return proc


def test_import_kreinls_loads_no_submodule_and_no_numpy():
    script = "import json, sys, kreinls; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_python("-c", script).stdout)
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("kreinls.")] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--subspace", "span_pp.json"],
        ["companion", "--subspace", "span_pp.json"],
        ["decompose", "--subspace", "span_pp.json"],
        ["adjoint", "--b", "b3.json"],
        ["project", "ando", "--subspace", "span_e1.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_loads_only_its_modules(argv):
    """The `krein` process, run as `-m` runs it, lists sys.modules at exit."""
    script = (
        "import atexit, json, runpy, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
        "runpy.run_module('kreinls.cli', run_name='__main__', alter_sys=True)\n"
    )
    data = Path(__file__).parent / "data"
    proc = _python("-c", script, *argv, "--space", "m2.json", cwd=data)
    assert json.loads(proc.stdout)["command"] == argv[0]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "kreinls.core" in loaded
    assert loaded & SOLVERS == set()


def test_ils_does_not_load_the_oracle():
    script = "import sys, kreinls.ils; print('kreinls.oracle' in sys.modules)"
    assert _python("-c", script).stdout == "False\n"


def test_verify_loads_no_random_generator():
    """verify decides minimality in closed form: no sampler, so no numpy.random."""
    script = (
        "import json, sys\n"
        "from kreinls import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, 'numpy.random' in sys.modules]), file=sys.stderr)\n"
    )
    argv = ["verify", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json"]
    proc = _python("-c", script, *argv, cwd=Path(__file__).parent / "data")
    assert json.loads(proc.stdout)["verdict"] is True
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, False]


def test_every_public_name_resolves_from_the_package():
    script = """
import importlib, json, kreinls
public = json.loads(%r)
wrong = [name for module, names in public.items() for name in names.split()
         if getattr(kreinls, name) is not getattr(importlib.import_module("kreinls." + module), name)
         or name not in dir(kreinls)]
print(json.dumps(wrong))
""" % json.dumps(PUBLIC)
    assert json.loads(_python("-c", script).stdout) == []
