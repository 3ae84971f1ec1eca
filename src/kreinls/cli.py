"""Batch command-line front-end.

Loads a space and operands from JSON files, runs one command, and prints a
machine-readable report on stdout (optionally mirrored to --out). Exit code
0 means computed and feasible, 2 computed but infeasible (or a failed
verification verdict), 1 input error. Output is canonical: fixed key order
and 17-significant-digit floats, so a fixed input + seed is byte-stable.
"""

import gc
import sys

if __name__ == "__main__":  # a one-shot process: no cyclic GC pass over what the imports make
    gc.disable()

import argparse

import numpy as np

from . import matio
from .core import (
    Operator,
    Tolerances,
    classical_form,
    decompose_subspace,
    orthogonal_companion,
    subspace_from_spanning,
)
from .errors import KreinError, NotRegular, ParseError


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit 1)."""

    def error(self, message):
        raise ParseError(message)


# ---------------------------------------------------------------------------
# operands and report pieces
# ---------------------------------------------------------------------------

def _operator(space, args, flag):
    path = getattr(args, flag)
    if path is None:
        raise ParseError("this command requires --%s" % flag)
    return Operator(space, matio.load_matrix(path))


def _subspace(space, args):
    if args.subspace is None:
        raise ParseError("this command requires --subspace")
    return subspace_from_spanning(space, matio.load_subspace_basis(args.subspace))


def _solve_report(rep):
    manifold = rep.manifold
    return {
        "feasible": rep.feasible,
        "reason": rep.reason,
        "conditions": rep.conditions,
        "solution": rep.solution,
        "perturbation_basis": manifold.perturbation_space.basis if manifold else None,
        "value": rep.value,
        "residuals": {"normal_equation": rep.residual_normal_eq},
        "certificates": rep.certificates,
    }


def _projected(q, **rest):
    """Report body of a computed projection: its matrix, then the mode's extras."""
    return {"feasible": True, "reason": None, "solution": q, **rest}


def _projection_body(q):
    op, adj = q.op, q.op.adjoint()
    residuals = {"idempotency": (op @ op - op).norm(), "normality": (op @ adj - adj @ op).norm()}
    return _projected(q, kind=q.kind.value, residuals=residuals)


# ---------------------------------------------------------------------------
# command handlers: (space, args) -> (exit code, report body)
# ---------------------------------------------------------------------------

def _solver(fn, *flags):
    """Handler for a solver taking the operands named by flags and a seed. fn is the
    solver or its name in kreinls, looked up when the command runs: a command
    imports only its own solver's module."""

    def handler(space, args):
        solve = getattr(sys.modules[__package__], fn) if isinstance(fn, str) else fn
        rep = solve(*(_operator(space, args, flag) for flag in flags), seed=args.seed)
        return (0 if rep.feasible else 2), _solve_report(rep)

    return handler


_inverse = _solver("indefinite_inverse", "b")
_ims = _solver("solve_ims", "b", "c")


def _adjoint(space, args):
    return 0, {"solution": _operator(space, args, "b").adjoint()}


def _classify(space, args):
    cls = _subspace(space, args).classification
    return 0, {
        "class": cls.kind.value,
        "regular": cls.regular,
        "pseudo_regular": cls.pseudo_regular,
        "inertia": {"positive": cls.n_positive, "negative": cls.n_negative, "zero": cls.n_zero},
    }


def _companion(space, args):
    comp = orthogonal_companion(_subspace(space, args))
    return 0, {
        "basis": comp.basis,
        "dim": comp.dim,
        "class": comp.classification.kind.value,
    }


def _decompose(space, args):
    s_plus, s_minus = decompose_subspace(_subspace(space, args))
    return 0, {
        "plus_basis": s_plus.basis,
        "minus_basis": s_minus.basis,
        "plus_class": s_plus.classification.kind.value,
        "minus_class": s_minus.classification.kind.value,
    }


def _project(space, args):
    from .projections import ando_split, normal_projection, selfadjoint_projection

    sub = _subspace(space, args)
    if args.mode == "normal":
        return 0, _projection_body(normal_projection(sub))
    try:
        q = selfadjoint_projection(sub)
    except NotRegular:
        return 2, {"feasible": False, "reason": "RangeNotRegular"}
    if args.mode == "selfadjoint":
        return 0, _projection_body(q)
    q_plus, q_minus = ando_split(q)
    return 0, _projected(q, plus=q_plus, minus=q_minus)


def _geninv(space, args):
    from .pinv import canonical_pair

    b = _operator(space, args, "b")
    gi = canonical_pair(b)
    bd = b @ gi.d
    db = gi.d @ b
    return 0, {
        "feasible": True,
        "reason": None,
        "solution": gi.d,
        "kind": gi.kind.value,
        "q": gi.q,
        "p": gi.p,
        "residuals": {
            "identity_bdb": (bd @ b - b).norm(),
            "identity_dbd": (db @ gi.d - gi.d).norm(),
            "normality_bd": (bd @ bd.adjoint() - bd.adjoint() @ bd).norm(),
            "normality_db": (db @ db.adjoint() - db.adjoint() @ db).norm(),
        },
    }


def _verify(space, args):
    from .ils import verify_ims

    b, c, x = (_operator(space, args, flag) for flag in "bcx")
    verdict = verify_ims(x, b, c)
    unit, ug, _ = classical_form(b)  # B = 2^e U: ||B* G R0|| = 2^e ||U* G R0||, the gated gradient
    residual = np.linalg.norm(ug @ (b @ x - c).matrix, 2) * (unit.norm() and b.norm() / unit.norm())
    return (0 if verdict else 2), {"verdict": verdict, "residuals": {"normal_equation": residual}}


def _oracle(space, args):
    # minimality of X when (B, C, X) are all given, positivity of B otherwise
    from .oracle import certify_min, is_krein_positive

    b = _operator(space, args, "b")
    if args.c is not None and args.x is not None:
        c, x = _operator(space, args, "c"), _operator(space, args, "x")
        cert = certify_min(b, c, x, trials=1000, seed=args.seed)
    else:
        cert = is_krein_positive(b)
    return (0 if cert.verdict else 2), {
        "verdict": cert.verdict,
        "trials": cert.trials,
        "min_eigen_seen": cert.min_eigen_seen,
        "witness": cert.witness,
    }


COMMANDS = {
    "adjoint": ("indefinite adjoint of B", _adjoint),
    "classify": ("sign classification of a subspace", _classify),
    "companion": ("orthogonal companion of a subspace", _companion),
    "decompose": ("fundamental decomposition of a subspace", _decompose),
    "project": ("projection onto a subspace (selfadjoint | normal | ando)", _project),
    "solve-ils": (
        "indefinite least squares: inverse of B, or min for (B, C)",
        lambda space, args: (_inverse if args.c is None else _ims)(space, args),
    ),
    "solve-imax": ("indefinite least-squares maximum for (B, C)", _solver("solve_imax", "b", "c")),
    "solve-minmax": ("stationary min-max problem for (B, C)", _solver("solve_immso", "b", "c")),
    "pinv": ("Krein-space Moore-Penrose inverse of B", _solver("krein_moore_penrose", "b")),
    "geninv": ("generalized inverse from canonical normal projections", _geninv),
    "min-norm": ("minimal-X#X solution of BX = C", _solver("solve_min_ims_norm", "b", "c")),
    "verify": ("check a candidate X for the minimum problem (B, C)", _verify),
    "oracle": ("Krein positivity of B, or minimality of X for (B, C)", _oracle),
}

_ECHOED = ("space", "b", "c", "x", "subspace", "seed", "tol_rank", "tol_num")


def _build_parser(argv):
    """All commands with their help; options only on the one argv invokes."""
    parser = _Parser(prog="krein", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="<command>")
    sub.required = True
    invoked = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if name != invoked:
            continue
        if name == "project":
            p.add_argument("mode", choices=["selfadjoint", "normal", "ando"])
        p.add_argument("--space", required=True, help="space file {\"gram\": <matrix>}")
        p.add_argument("--b", help="operator file (matrix schema)")
        p.add_argument("--c", help="right-hand-side operator file")
        p.add_argument("--x", help="candidate solution file")
        p.add_argument("--subspace", help="subspace file {\"basis\": <matrix>}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-rank", type=float, default=None, dest="tol_rank")
        p.add_argument("--tol-num", type=float, default=None, dest="tol_num")
        p.add_argument("--out", help="also write the report to this file")
    return parser


@np.errstate(all="ignore")  # no numpy warning: a non-finite value ends in `error:`
def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        num = Tolerances.num if args.tol_num is None else args.tol_num
        tol = Tolerances(rank=args.tol_rank, num=num)
        if args.seed < 0:  # the library's own check, made once for every command
            raise KreinError("seed must be nonnegative, got %d" % args.seed)
        space = matio.load_space(args.space, tol)
        code, body = COMMANDS[args.command][1](space, args)
        head = {"command": args.command}
        if "mode" in args:  # project's positional mode leads its report and echo
            head["mode"] = args.mode
        report = {**head, **body, "config_echo": {**head, **{k: getattr(args, k) for k in _ECHOED}}}
        text = matio.canonical_dumps(report) + "\n"
        if args.out:  # before stdout: a failed write prints no report
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise KreinError("cannot write %s: %s" % (args.out, exc)) from exc
    except KreinError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def run():
    """The `krein` process: main, then exit with every object frozen (also after
    --help or a usage error), so that finalization runs no cyclic-GC pass over
    numpy's objects."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
