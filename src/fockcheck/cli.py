"""Command-line front end.

Subcommands::

    verify TARGET [flags]
    character --qmax Q --form {trace,product,sum} [--json]
    jacobi --which {DA,A} --qmax Q
    decompose --nmax N --kmax K [--json]
    apply "EXPR"

``verify`` takes one of the 14 suites (clifford, heisenberg, sectors,
decomposition, virasoro-half, virasoro-one, virasoro-lambda, doubling,
eigenvalues, identities, characters, iso, winf, charged), ``virasoro``
(optionally one ``--family``) or ``all`` (``--jobs N``); ``VERIFY_FLAGS``
lists the flags each target takes, and any other flag is a usage error.

Exit status: 0 when every check passes, 1 on any verification failure,
2 on a usage error, including an ``--out`` path that cannot be written (it
is opened before any check runs).  Half-integer flags are written as
``p/2`` literals (``--weight-cut 15/2``); no decimal input is accepted
anywhere.  Sizes below their floors (0 for ``--mmax``, ``--kmax``,
``--qmax``, ``--nmax`` and ``--weight-cut``, 1/2 for ``--max-index``) are
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from multiprocessing import Pool

from . import suites as _suites
from . import virasoro as vir
from .fock import FockState, enumerate_basis, format_state, parse_fraction, parse_half
from .heisenberg import h_mode
from .modeops import ModeOperator
from .verify import VerificationReport
from .winf import jk_mode_neutral

USAGE_ERROR = 2


class UsageError(Exception):
    """A command line the program cannot run; reported as ``error:`` with exit status 2."""


def _open_out(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines)
    if out_path:
        with _open_out(out_path, "w") as handle:
            handle.write(text + "\n")
    print(text)


def _report_lines(reports: list[VerificationReport], as_json: bool) -> list[str]:
    if as_json:
        return [json.dumps(rep.to_dict(), sort_keys=True) for rep in reports]
    return [rep.summary() for rep in reports]


def _size_flag(text: str) -> int:
    """A non-negative ``int`` size (``--mmax``, ``--kmax``, ``--qmax``, ``--nmax``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _half_flag(floor2: int):
    """A half-integer flag whose twice-encoded value is at least ``floor2``."""

    def parse(text: str) -> int:
        try:
            value2 = parse_half(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if value2 < floor2:
            raise argparse.ArgumentTypeError(f"must be at least {Fraction(floor2, 2)}, not {Fraction(value2, 2)}")
        return value2

    return parse


def _fraction_flag(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockcheck", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run an exact verification suite")
    ver.add_argument("target", choices=sorted(_suites.SUITES) + ["virasoro", "all"])
    ver.add_argument("--weight-cut", type=_half_flag(0), default=None, metavar="p/2")
    ver.add_argument("--max-index", type=_half_flag(1), default=None, metavar="p/2")
    ver.add_argument("--mmax", type=_size_flag, default=None)
    ver.add_argument("--kmax", type=_size_flag, default=None)
    ver.add_argument("--family", choices=["half", "half~", "one", "one~", "lambda"])
    ver.add_argument("--lambda", type=_fraction_flag, default=None, metavar="p/q")
    ver.add_argument("--b", type=_fraction_flag, default=None, metavar="p/q")
    ver.add_argument("--jobs", type=int, default=None)
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--out", default=None, metavar="FILE")

    cha = sub.add_parser("character", help="print a truncated graded dimension")
    cha.add_argument("--qmax", type=_size_flag, required=True)
    cha.add_argument("--form", choices=["trace", "product", "sum"], default="trace")
    cha.add_argument("--json", action="store_true")
    cha.add_argument("--out", default=None, metavar="FILE")

    jac = sub.add_parser("jacobi", help="check a product/sum identity coefficient-exactly")
    jac.add_argument("--which", choices=["DA", "A"], required=True)
    jac.add_argument("--qmax", type=_size_flag, required=True)
    jac.add_argument("--json", action="store_true")
    jac.add_argument("--out", default=None, metavar="FILE")

    dec = sub.add_parser("decompose", help="tabulate sector dimensions against p(k)")
    dec.add_argument("--nmax", type=_size_flag, default=4)
    dec.add_argument("--kmax", type=_size_flag, default=8)
    dec.add_argument("--json", action="store_true")
    dec.add_argument("--out", default=None, metavar="FILE")

    app = sub.add_parser("apply", help="apply an operator expression to a state")
    app.add_argument("expression")
    return parser


_GRID = {"--mmax": "mmax", "--weight-cut": "weight_cut2"}

# ``verify TARGET [--family F]``: each flag it takes -> the keyword that flag becomes
VERIFY_FLAGS: dict[tuple[str, str | None], dict[str, str]] = {
    ("clifford", None): {"--max-index": "max_index2", "--weight-cut": "weight_cut2"},
    ("heisenberg", None): _GRID,
    ("sectors", None): {"--kmax": "kmax"},
    ("decomposition", None): {},
    ("virasoro-half", None): _GRID,
    ("virasoro-one", None): _GRID,
    ("virasoro-lambda", None): _GRID,
    ("doubling", None): {"--weight-cut": "weight_cut2"},
    ("eigenvalues", None): {"--weight-cut": "weight_cut2"},
    ("identities", None): _GRID,
    ("characters", None): {},
    ("iso", None): _GRID,
    ("winf", None): {"--kmax": "kmax", "--mmax": "nmax", "--weight-cut": "weight_cut2"},  # the commutator grid
    ("charged", None): _GRID,
    ("virasoro", None): {},
    **{("virasoro", family): _GRID for family in ("half", "half~", "one", "one~")},
    ("virasoro", "lambda"): {**_GRID, "--lambda": "lam", "--b": "b"},
    ("all", None): {"--jobs": "jobs"},
}
_TUNING_FLAGS = ("--weight-cut", "--max-index", "--mmax", "--kmax", "--lambda", "--b", "--jobs")


def _verify_params(args) -> dict:
    """The keywords of ``verify``; a flag its target does not take is a usage error."""
    flags = VERIFY_FLAGS.get((args.target, args.family))
    if flags is None:
        raise UsageError(f"verify {args.target} does not take --family")
    params = {}
    for flag in _TUNING_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in flags:
            target = args.target if args.family is None else f"{args.target} --family {args.family}"
            raise UsageError(f"verify {target} does not take {flag}")
        params[flags[flag]] = value
    return params


def _run_virasoro(
    family: str | None, mmax: int | None = None, weight_cut2: int = 20, lam=Fraction(1, 2), b=Fraction(0)
) -> list[VerificationReport]:
    if family is None:
        suites = ("virasoro-half", "virasoro-one", "virasoro-lambda", "doubling", "eigenvalues")
        return [rep for suite in suites for rep in _suites.run_suite(suite)]
    basis = enumerate_basis(weight_cut2)
    if family == "lambda":
        return [_suites.lambda_bracket(lam, b, 3 if mmax is None else mmax, basis)]
    mmax = 4 if mmax is None else mmax
    reports = [_suites.family_bracket(family, mmax, basis)]
    if family == "one~":
        reports.append(_suites.l1_tilde_relation(mmax, weight_cut2))
    return reports


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes for ``--jobs``: never more than the CPUs or the tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def _worker(name: str) -> list[VerificationReport]:
    return _suites.run_suite(name)


def _verify_all(jobs: int = 1) -> list[VerificationReport]:
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, not {jobs}")
    names = list(_suites.SUITES)
    size = pool_size(jobs, len(names))
    if size > 1:
        with Pool(size) as pool:
            chunks = pool.map(_worker, names)
    else:
        chunks = [_worker(name) for name in names]
    return [rep for chunk in chunks for rep in chunk]


def cmd_verify(args) -> int:
    params = _verify_params(args)
    if args.target == "all":
        reports = _verify_all(**params)
    elif args.target == "virasoro":
        reports = _run_virasoro(args.family, **params)
    else:
        reports = _suites.run_suite(args.target, **params)
    _emit(_report_lines(reports, args.json), args.out)
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_character(args) -> int:
    from .qchar import char_product_form, char_sum_form, char_trace

    qmax_half = 2 * args.qmax
    series = {
        "trace": lambda: char_trace(qmax_half),
        "product": lambda: char_product_form(qmax_half),
        "sum": lambda: char_sum_form(qmax_half),
    }[args.form]()
    if args.json:
        lines = [json.dumps(record, sort_keys=True) for record in series.records()]
    else:
        lines = [f"z^{rec['z']} q^{Fraction(rec['qhalf'], 2)}: {rec['coeff']}" for rec in series.records()]
    _emit(lines, args.out)
    return 0


def cmd_jacobi(args) -> int:
    from .qchar import jacobi_check

    report = jacobi_check(args.which, args.qmax)
    _emit(_report_lines([report], args.json), args.out)
    return 0 if report.passed else 1


def cmd_decompose(args) -> int:
    from .grading import partition_count, sector_basis

    lines = []
    ok = True
    for n in range(-args.nmax, args.nmax + 1):
        for k in range(args.kmax + 1):
            dim = len(sector_basis(n, k))
            pk = partition_count(k)
            match = dim == pk
            ok = ok and match
            if args.json:
                lines.append(json.dumps({"n": n, "k": k, "dim": dim, "p": pk, "match": match}, sort_keys=True))
            else:
                lines.append(f"n={n:+d} k={k} dim={dim} p(k)={pk} match={match}")
    _emit(lines, args.out)
    return 0 if ok else 1


_TOKEN_RES = [
    (re.compile(r"phi\[(-?\d+)/2\]$"), lambda m: ModeOperator(int(m.group(1)))),
    (re.compile(r"h\[(-?\d+)\]$"), lambda m: h_mode(int(m.group(1)))),
    (re.compile(r"Lhalf\[(-?\d+)\]$"), lambda m: vir.l_half_mode(int(m.group(1)))),
    (re.compile(r"L1\[(-?\d+)\]$"), lambda m: vir.sugawara_l1_mode(int(m.group(1)))),
    (
        re.compile(r"Llb\[(-?\d+(?:/\d+)?),(-?\d+(?:/\d+)?);(-?\d+)\]$"),
        lambda m: vir.lambda_family(parse_fraction(m.group(1)), parse_fraction(m.group(2))).mode(int(m.group(3))),
    ),
    (re.compile(r"J\[(\d+),(-?\d+)\]$"), lambda m: jk_mode_neutral(int(m.group(1)), int(m.group(2)))),
]


def _token_operator(token: str):
    for pattern, build in _TOKEN_RES:
        matched = pattern.match(token)
        if matched:
            return build(matched)
    raise ValueError("unknown operator token")


def parse_expression(expr: str) -> FockState:
    """Apply whitespace-separated operator tokens, right to left, to ``|0>``.

    An error names the failing token and its position, e.g. ``token 2 of 3``.
    """
    tokens = expr.split()
    if not tokens or tokens[-1] != "|0>":
        raise ValueError("expression must end in the state literal |0>")
    state = FockState.vacuum()
    for pos in reversed(range(len(tokens) - 1)):
        try:
            state = _token_operator(tokens[pos]).apply(state)
        except ValueError as exc:
            raise ValueError(f"token {pos + 1} of {len(tokens)}, {tokens[pos]!r}: {exc}") from exc
    return state


def cmd_apply(args) -> int:
    try:
        state = parse_expression(args.expression)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(format_state(state))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": cmd_verify,
        "character": cmd_character,
        "jacobi": cmd_jacobi,
        "decompose": cmd_decompose,
        "apply": cmd_apply,
    }
    try:
        if getattr(args, "out", None):
            # before any check runs; appending leaves an existing file as it is
            # when a usage error turns up later
            _open_out(args.out, "a").close()
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
