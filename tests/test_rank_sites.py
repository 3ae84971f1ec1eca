"""A rank is decided only where a new span enters the library.

`KreinSpace._rank_of_singulars` is the one count of singular values above the
rank cutoff. It is called by `metric_svd` (operators), `subspace_from_spanning`
(columns) and `nullspace_matrix` (stacked frames); every other rank is read off
what these keep. The floor, the roundoff scale of forming the factored matrix,
is a required argument, so no call can leave it out. No linter ships with the
project, so the standard library's ast checks that no other function reaches
for the count. It checks the same of `scaled_to_unit`, the one function that
picks a power of two to scale by (the only referrer of `frexp`), and of
`negligible`, the one norm test that reads `tol.num`: every other norm threshold
is a coefficient and terms passed to `norm_at_most`, never a callable. And no
library decision reads a principal angle: `ANGLE_TOL` serves only the public
`subspace_within` and `subspace_equal`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinls"
RANK_SITES = {"metric_svd", "subspace_from_spanning", "nullspace_matrix"}


def _referrers(source, name):
    """Names of the innermost functions (or "<module>") that mention `name`,
    as a plain name or an attribute."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_ranks_are_counted_only_where_a_span_enters():
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= _referrers(path.read_text(), "_rank_of_singulars")
    assert found == RANK_SITES


def test_one_function_picks_a_power_of_two():
    """Every exact scaling reads scaled_to_unit, the one referrer of frexp."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= _referrers(path.read_text(), "frexp")
    assert found == {"scaled_to_unit"}


def test_one_norm_test_reads_the_residual_tolerance():
    """`num` is read by negligible and certify_min's batched eigenvalue test; the rest
    are the Tolerances field, its validation and the CLI option that sets it."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= {(path.stem, owner) for owner in _referrers(path.read_text(), "num")}
    assert found == {
        ("core", "negligible"),
        ("core", "__post_init__"),
        ("core", "<module>"),
        ("oracle", "certify_min"),
        ("cli", "main"),
    }


def test_no_norm_test_takes_a_callable():
    """Every norm threshold is stated as a coefficient and terms, never as a lambda."""
    calls = [
        (path.name, node)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] in {"norm_at_most", "negligible"}
    ]
    assert calls
    for name, call in calls:
        args = [*call.args, *(kw.value for kw in call.keywords)]
        assert not any(isinstance(a, ast.Lambda) for a in args), (name, call.lineno)


# the (module, function) pairs that may mention each name of the angle rule: only the
# public comparisons built on it; a projection is validated against its target's kept
# basis, never through projection_from_matrix, which re-spans its range
ANGLE_RULE_REFERRERS = {
    "ANGLE_TOL": {("core", "<module>"), ("core", "subspace_within")},
    "principal_angles": {("core", "subspace_within")},
    "subspace_within": {("core", "subspace_equal")},
    "subspace_equal": set(),
    "projection_from_matrix": set(),
}


def test_no_library_decision_reads_a_principal_angle():
    for name, allowed in ANGLE_RULE_REFERRERS.items():
        found = {
            (path.stem, owner)
            for path in PACKAGE.glob("*.py")
            for owner in _referrers(path.read_text(), name)
        }
        assert found == allowed, name


def test_the_check_finds_every_referrer():
    source = (
        "class Space:\n    def _count(self, s):\n        return s\n\n"
        "def decided(sp, s):\n    return sp._count(s)\n\n"
        "def outer(sp):\n    def inner(s):\n        return sp._count(s)\n    return inner\n\n"
        "kept = Space._count\n"
    )
    assert _referrers(source, "_count") == {"decided", "inner", "<module>"}
