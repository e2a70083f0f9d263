"""Command-line front end: compute, subdivide, certify, verify.

Exit codes are CI-oriented: 0 on success, 1 when a mathematical check
fails (a verify suite reports failures, `interlace` answers false, an
input triangulation is not uniform), 2 on usage or input errors.  All
result output goes to stdout and is byte-stable for fixed inputs;
wall-clock timings go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import verify as verify_mod
from .complexes import SchemaError, complex_from_json
from .localh import _require_simplex_base, c_coefficients, local_h, local_h_via_uniform
from .perm import E_NR_BUDGET, E_nr, d_nk, d_nkj, p_nk
from .poly import Poly, PolyParseError, format_poly, parse_poly, poly_to_json
from .realroot import interlace_report
from .triangulate import (
    FACETS_CAP,
    TABLES_N_CAP,
    NotUniformError,
    Triangulation,
    UnknownKindError,
    _check_input_facets,
    check_simplex,
    f_triangle,
    f_triangle_of,
    identity,
    random_triangulation,
    refine,
    stellar,
    triangulation_from_json,
    triangulation_to_json,
)

FORMATS = ("text", "json", "csv")

# Values one integer spec such as --seeds 1..20 may list.
INT_SPEC_CAP = 10_000

class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


def _parse_int_spec(text: str, what: str) -> tuple[int, ...]:
    """Accept '4', '2,3,4', and '1..20' range shorthand."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            if ".." in piece:
                lo, hi = piece.split("..", 1)
                a, b = int(lo), int(hi)
                if b < a:
                    raise ValueError
            else:
                a = b = int(piece)
        except ValueError:
            raise CliError(f"cannot parse {what} {text!r}") from None
        if len(out) + b - a + 1 > INT_SPEC_CAP:
            raise CliError(f"{what} {text!r} lists more than {INT_SPEC_CAP} values")
        out.extend(range(a, b + 1))
    return tuple(out)


def _load_triangulation(path: str) -> Triangulation:
    """Read triangulation JSON; a bare complex is lifted to identity.

    Inputs with a facet on more than ``INPUT_FACET_CAP`` vertices are
    refused before anything else is checked against their faces."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"input is not valid JSON: {err}") from err
    if isinstance(obj, dict) and "facets" in obj and "carrier" not in obj:
        K = complex_from_json(obj)
        _check_input_facets(K)
        return identity(K)
    return triangulation_from_json(obj)


def _emit_poly(f: Poly, fmt: str, key: str = "local_h") -> None:
    if fmt == "text":
        print(format_poly(f))
    elif fmt == "json":
        print(json.dumps({key: poly_to_json(f)}, sort_keys=True))
    else:
        rows = [[str(k), str(c)] for k, c in enumerate(f)]
        sys.stdout.write(_render_grid(["power", "coefficient"], rows, "csv"))


def _render_grid(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row + [""] * (len(header) - len(row)))
        return buf.getvalue()
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _table_data(which: int, n_max: int):
    if which == 1:
        header = [""] + [f"k={k}" for k in range(n_max + 1)]
        rows = [[f"n={n}"] + [format_poly(d_nk(n, k)) for k in range(n + 1)]
                for n in range(n_max + 1)]
    else:
        k = which - 1
        header = [""] + [f"j={j}" for j in range(n_max + 1)]
        rows = [[f"n={n}"] + [format_poly(d_nkj(n, k, j)) for j in range(n + 1)]
                for n in range(k, n_max + 1)]
    return header, rows


def cmd_tables(args) -> int:
    if args.n > TABLES_N_CAP:
        raise CliError(f"tables are limited to n <= {TABLES_N_CAP}")
    if args.n < 0:
        raise CliError("n must be nonnegative")
    header, rows = _table_data(args.which, args.n)
    if args.format == "json":
        body = {
            "table": args.which,
            "n": args.n,
            "rows": [{"label": r[0], "cells": r[1:]} for r in rows],
        }
        print(json.dumps(body, sort_keys=True))
    else:
        sys.stdout.write(_render_grid(header, rows, args.format))
    return 0


def cmd_localh(args) -> int:
    T = _load_triangulation(args.input)
    n = len(_require_simplex_base(T))
    if args.emit_c:
        c = c_coefficients(T)
        body = {"n": c.n, "c": [[k, j, v] for k, j, v in c.entries()]}
        print(json.dumps(body, sort_keys=True))
        return 0
    if args.via_uniform:
        check_simplex(args.via_uniform, n)
        F = f_triangle(args.via_uniform, n)
        ell = local_h_via_uniform(F, c_coefficients(T))
    else:
        ell = local_h(T)
    _emit_poly(ell, args.format)
    return 0


def cmd_subdivide(args) -> int:
    T = _load_triangulation(args.input)
    kind = args.kind
    if kind.startswith("stellar:"):
        try:
            g = tuple(int(v) for v in kind.split(":", 1)[1].split(","))
        except ValueError:
            raise CliError(f"bad stellar face in {kind!r}") from None
        out = stellar(T, g)
    elif kind.startswith("random:"):
        try:
            steps = int(kind.split(":", 1)[1])
            if steps < 0:
                raise ValueError
        except ValueError:
            raise CliError(f"bad step count in {kind!r}") from None
        if len(T.total.facets) != 1:
            raise CliError("random refinement starts from the trivial "
                           "triangulation; input must be a single simplex")
        out = random_triangulation(T.base.vertices, steps, seed=args.seed)
    else:
        try:
            out = refine(T, kind)
        except UnknownKindError:
            raise CliError(f"unknown kind {kind!r} (use sd, esd:R, "
                           f"stellar:V1,V2,..., random:STEPS)") from None
    print(json.dumps(triangulation_to_json(out), sort_keys=True))
    return 0


def cmd_interlace(args) -> int:
    f = parse_poly(args.f)
    g = parse_poly(args.g)
    report = interlace_report(f, g)
    if args.format == "json":
        body = {
            "interlaces": report.ok,
            "reason": report.reason,
            "f_roots": report.f_isolation.pretty() if report.f_isolation else None,
            "g_roots": report.g_isolation.pretty() if report.g_isolation else None,
        }
        print(json.dumps(body, sort_keys=True))
    elif args.format == "csv":
        row = [str(report.ok).lower(), report.reason]
        sys.stdout.write(_render_grid(["interlaces", "reason"], [row], "csv"))
    else:
        print("true" if report.ok else "false")
        if args.explain:
            print(f"reason: {report.reason}")
            if report.f_isolation:
                print(f"roots of f: {report.f_isolation.pretty()}")
            if report.g_isolation:
                print(f"roots of g: {report.g_isolation.pretty()}")
    return 0 if report.ok else 1


def cmd_ftriangle(args) -> int:
    if (args.input is None) == (args.kind is None):
        raise CliError("give exactly one of --input or --kind")
    if args.input:
        T = _load_triangulation(args.input)
        try:
            F = f_triangle_of(T)
        except NotUniformError as err:
            print(f"not uniform: {err}", file=sys.stderr)
            return 1
    else:
        if args.n is None:
            raise CliError("--kind needs --n")
        check_simplex(args.kind, args.n)
        F = f_triangle(args.kind, args.n)
    if args.format == "json":
        print(json.dumps({"n": F.n, "rows": [list(r) for r in F.rows]},
                         sort_keys=True))
    else:
        header = [""] + [f"i={i}" for i in range(F.n + 1)]
        rows = [[f"j={j}"] + [str(c) for c in row] for j, row in enumerate(F.rows)]
        sys.stdout.write(_render_grid(header, rows, args.format))
    return 0


def cmd_stat_poly(args) -> int:
    params = _parse_int_spec(args.params, "--params")
    family = args.family
    try:
        if family == "d" and len(params) == 2:
            poly, name = d_nk(*params), "d_{%d,%d}" % params
        elif family == "d" and len(params) == 3:
            poly, name = d_nkj(*params), "d_{%d,%d,%d}" % params
        elif family == "p" and len(params) == 2:
            poly, name = p_nk(*params), "p_{%d,%d}" % params
        elif family == "E" and len(params) == 2:
            poly, name = E_nr(*params), "E_{%d,%d}" % params
        else:
            raise CliError(f"family {family!r} takes "
                           f"{'2 or 3' if family == 'd' else '2'} parameters")
    except ValueError as err:
        raise CliError(str(err)) from err
    _emit_poly(poly, args.format, key=name)
    return 0


def _report_body(report) -> dict:
    return {
        "suite": report.suite,
        "cases_run": report.cases_run,
        "failures": [
            {"case": dict((k, v) for k, v in f.params), "detail": f.detail}
            for f in report.failures
        ],
    }


def cmd_verify(args) -> int:
    # Parsed when run_suite first reads it, so a value the suite does not
    # read is refused as unread, not as malformed.
    def lazy(text, flag):
        yield from _parse_int_spec(text, flag)

    def ints(text, flag):
        return None if text is None else lazy(text, flag)

    kinds = None if args.kinds is None else tuple(map(str.strip, args.kinds.split(",")))
    try:
        report = verify_mod.run_suite(
            args.suite, ns=ints(args.n, "--n"), seeds=ints(args.seeds, "--seeds"),
            steps=args.steps, rs=ints(args.r, "--r"), kinds=kinds, k_max=args.k)
    except ValueError as err:
        raise CliError(str(err)) from err
    if args.format == "json":
        print(json.dumps(_report_body(report), sort_keys=True))
    elif args.format == "csv":
        rows = [[case.label, str(case.ok).lower(), case.detail]
                for case in report.cases]
        sys.stdout.write(_render_grid(["case", "ok", "detail"], rows, "csv"))
    else:
        print(f"suite {report.suite}: {report.cases_run} cases, "
              f"{len(report.failures)} failures")
        for case in report.cases:
            if not case.ok:
                print(f"  FAIL {case.label}: {case.detail}")
            elif args.verbose:
                print(f"  ok {case.label}: {case.detail}")
    print(f"# wall time: {report.seconds:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call only.

    Later calls return the same parser, and each ``parse_args`` on it
    still returns a fresh namespace.  The ``cmd_*`` handlers are bound
    when the parser is built; a caller must not add arguments to the
    shared parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default text)")

    parser = argparse.ArgumentParser(
        prog="subdiv",
        description="Local h-polynomials of subdivided simplices: compute, "
                    "subdivide, and certify real-rootedness and interlacing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", parents=[common],
                       help="print the d-polynomial reference tables")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True,
                   help="1: d_{n,k}; 2: d_{n,1,j}; 3: d_{n,2,j}")
    p.add_argument("--n", type=int, required=True, help="largest n row")
    p.set_defaults(handler=cmd_tables)

    p = sub.add_parser("localh", parents=[common],
                       help="local h-polynomial of a triangulation JSON file")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="triangulation JSON (a bare complex is treated as "
                        "its identity triangulation)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--via-uniform", metavar="KIND", default=None,
                       help="print the local h of the sd or esd:R refinement "
                            "of the input, computed from its coefficient "
                            "matrix instead of the refined complex; limited "
                            f"to n <= {TABLES_N_CAP} base vertices and "
                            f"{FACETS_CAP} refined facets")
    group.add_argument("--emit-c", action="store_true",
                       help="print the coefficient matrix as JSON "
                            '{"n": n, "c": [[k, j, value], ...]}')
    p.set_defaults(handler=cmd_localh)

    p = sub.add_parser("subdivide",
                       help="apply a subdivision and print the result JSON")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--kind", required=True,
                   help="sd | esd:R | stellar:V1,V2,... | random:STEPS; "
                        f"sd and esd:R are limited to {FACETS_CAP} "
                        "refined facets")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for random:STEPS (default 0)")
    p.set_defaults(handler=cmd_subdivide)

    p = sub.add_parser("interlace", parents=[common],
                       help="decide whether the first polynomial interlaces "
                            "the second; exit 1 when it does not")
    p.add_argument("f", help="polynomial, e.g. '1+4x+x^2'")
    p.add_argument("g", help="polynomial, e.g. 'x+4x^2+x^3'")
    p.add_argument("--explain", action="store_true",
                   help="also print root isolation intervals")
    p.set_defaults(handler=cmd_interlace)

    p = sub.add_parser("ftriangle", parents=[common],
                       help="face-count triangle of a uniform family or an "
                            "input triangulation")
    p.add_argument("--input", default=None, metavar="FILE")
    p.add_argument("--kind", default=None, help="sd | esd:R")
    p.add_argument("--n", type=int, default=None, help="vertex count with --kind")
    p.set_defaults(handler=cmd_ftriangle)

    p = sub.add_parser("stat-poly", parents=[common],
                       help="print one permutation-statistic polynomial")
    p.add_argument("--family", choices=("d", "p", "E"), required=True)
    p.add_argument("--params", required=True,
                   help="comma-separated indices: d takes n,k or n,k,j; "
                        "p takes n,k; E takes n,r with n^2 (r-1) <= "
                        f"{E_NR_BUDGET}")
    p.set_defaults(handler=cmd_stat_poly)

    # No prefix matching, so --seed is refused rather than read as --seeds.
    p = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                       help="run one verification suite")
    p.add_argument("suite", choices=verify_mod.SUITE_NAMES)
    p.add_argument("--n", default=None,
                   help="n values, e.g. '4' or '2,3,4' or '2..4'; the range "
                        "suites thm-dnkj, cor-2sd and prop-dnkj run n = "
                        "0..max(N), and cor-sd, prop-dnkj-rec, prop-esdr and "
                        "foata run n = 1..max(N); a run lists at most "
                        f"{verify_mod.CASE_CAP} cases")
    p.add_argument("--seeds", default=None, help="seed list, e.g. '1..20'")
    p.add_argument("--steps", type=int, default=None,
                   help="cap on random refinement steps (step count is "
                        "seed mod cap+1)")
    p.add_argument("--r", default=None,
                   help="edgewise parameters, e.g. '2,3'; prop-esdr runs "
                        "r = 1..max(R); E_nr(n, r) is refused past "
                        f"n^2 (r-1) = {E_NR_BUDGET}")
    p.add_argument("--kinds", default=None,
                   help="refinement kinds, e.g. 'sd,esd:2,esd:3'")
    p.add_argument("--k", type=int, default=None,
                   help="iteration cap for suites that iterate")
    p.add_argument("--verbose", action="store_true",
                   help="print passing cases too (text format)")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SchemaError as err:
        print(f"error at {err.path or '<root>'}: {err.message}", file=sys.stderr)
        return 2
    except (PolyParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
