"""Command-line front end.

Subcommands::

    verify {clifford,heisenberg,virasoro,winf,iso,identities,all} [flags]
    character --qmax Q --form {trace,product,sum} [--json]
    jacobi --which {DA,A} --qmax Q
    decompose --nmax N --kmax K [--json]
    apply "EXPR"

Exit status: 0 when every check passes, 1 on any verification failure,
2 on a usage error.  Half-integer flags are written as ``p/2`` literals
(``--weight-cut 15/2``); no decimal input is accepted anywhere.
"""

from __future__ import annotations

import argparse
import json
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


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    print(text)


def _report_lines(reports: list[VerificationReport], as_json: bool) -> list[str]:
    if as_json:
        return [rep.to_json() for rep in reports]
    return [rep.summary() for rep in reports]


def _half_flag(text: str) -> int:
    try:
        return parse_half(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    ver.add_argument("--weight-cut", type=_half_flag, default=None, metavar="p/2")
    ver.add_argument("--max-index", type=_half_flag, default=None, metavar="p/2")
    ver.add_argument("--mmax", type=int, default=None)
    ver.add_argument("--kmax", type=int, default=None)
    ver.add_argument("--family", choices=["half", "half~", "one", "one~", "lambda"])
    ver.add_argument("--lambda", dest="lam", type=_fraction_flag, default=Fraction(1, 2), metavar="p/q")
    ver.add_argument("--b", type=_fraction_flag, default=Fraction(0), metavar="p/q")
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--json", action="store_true")
    ver.add_argument("--out", default=None, metavar="FILE")

    cha = sub.add_parser("character", help="print a truncated graded dimension")
    cha.add_argument("--qmax", type=int, required=True)
    cha.add_argument("--form", choices=["trace", "product", "sum"], default="trace")
    cha.add_argument("--json", action="store_true")
    cha.add_argument("--out", default=None, metavar="FILE")

    jac = sub.add_parser("jacobi", help="check a product/sum identity coefficient-exactly")
    jac.add_argument("--which", choices=["DA", "A"], required=True)
    jac.add_argument("--qmax", type=int, required=True)
    jac.add_argument("--json", action="store_true")
    jac.add_argument("--out", default=None, metavar="FILE")

    dec = sub.add_parser("decompose", help="tabulate sector dimensions against p(k)")
    dec.add_argument("--nmax", type=int, default=4)
    dec.add_argument("--kmax", type=int, default=8)
    dec.add_argument("--json", action="store_true")
    dec.add_argument("--out", default=None, metavar="FILE")

    app = sub.add_parser("apply", help="apply an operator expression to a state")
    app.add_argument("expression")
    return parser


def _suite_params(args) -> dict:
    params: dict = {}
    if args.weight_cut is not None:
        params["weight_cut2"] = args.weight_cut
    if args.mmax is not None:
        params["mmax"] = args.mmax
    return params


def _run_named_suite(args) -> list[VerificationReport]:
    name = args.target
    params = _suite_params(args)
    if name == "clifford" and args.max_index is not None:
        params["max_index2"] = args.max_index
    if name in ("winf", "sectors") and args.kmax is not None:
        params["kmax"] = args.kmax
    if name == "winf" and args.mmax is not None:
        params["nmax"] = params.pop("mmax")  # the commutator mode grid
    return _suites.run_suite(name, **params)


# ``verify virasoro --family F``: the suite to run and the checks of it to report
_FAMILY_CHECKS = {
    "half": (_suites.suite_virasoro_half, ("virasoro_half",)),
    "half~": (_suites.suite_virasoro_half, ("virasoro_half_tilde",)),
    "one": (_suites.suite_virasoro_one, ("virasoro_one_sugawara",)),
    "one~": (_suites.suite_virasoro_one, ("virasoro_one_tilde", "l1_tilde_mode_relation")),
}


def _run_virasoro(args) -> list[VerificationReport]:
    if args.family is None:
        reports = []
        for suite in ("virasoro-half", "virasoro-one", "virasoro-lambda", "doubling", "eigenvalues"):
            reports.extend(_suites.run_suite(suite))
        return reports
    mmax = args.mmax if args.mmax is not None else 4
    cut2 = args.weight_cut if args.weight_cut is not None else 20
    if args.family in _FAMILY_CHECKS:
        suite, checks = _FAMILY_CHECKS[args.family]
        return [rep for rep in suite(mmax=mmax, weight_cut2=cut2) if rep.check in checks]

    family = vir.lambda_family(args.lam, args.b)
    return [
        _suites.virasoro_bracket(
            "virasoro_lambda", family, vir.central_charge(args.lam), min(mmax, 3), enumerate_basis(cut2)
        )
    ]


def _worker(name: str) -> list[VerificationReport]:
    return _suites.run_suite(name)


def cmd_verify(args) -> int:
    if args.target == "virasoro":
        reports = _run_virasoro(args)
    elif args.target == "all":
        names = list(_suites.SUITES)
        if args.jobs > 1:
            with Pool(args.jobs) as pool:
                chunks = pool.map(_worker, names)
        else:
            chunks = [_worker(name) for name in names]
        reports = [rep for chunk in chunks for rep in chunk]
    else:
        reports = _run_named_suite(args)
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


def parse_expression(expr: str) -> FockState:
    """Apply whitespace-separated operator tokens, right to left, to ``|0>``."""
    tokens = expr.split()
    if not tokens or tokens[-1] != "|0>":
        raise ValueError("expression must end in the state literal |0>")
    state = FockState.vacuum()
    for token in reversed(tokens[:-1]):
        for pattern, build in _TOKEN_RES:
            matched = pattern.match(token)
            if matched:
                state = build(matched).apply(state)
                break
        else:
            raise ValueError(f"unknown operator token {token!r}")
    return state


def cmd_apply(args) -> int:
    print(format_state(parse_expression(args.expression)))
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
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
