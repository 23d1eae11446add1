"""Command-line surface: dimension tables, series solving, verification.

Exit codes: 0 pass, 1 verification failure, 2 usage, 3 constraint violation
(a resonant Einstein datum among them), 4 solver inconsistency, 5 numerical
failure (a launch or an integration that cannot proceed).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .analysis import verify_case
from .cases import CASES, ConstraintError, catalog_json, get_case
from .exact import rat
from .integrate import TOL_RATIO, NumericalFailure
from .reptheory import AloffWallach, dim_W, dim_W_s5
from .solver import InconsistentSystem, einstein_series, solve_series

EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3
EXIT_SOLVER = 4
EXIT_NUMERICAL = 5


def _exact(name: str, value: str) -> Fraction:
    try:
        return rat(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConstraintError(
            f"parameter {name!r} must be an exact rational 'p/q': {exc}"
        ) from exc


def _parse_params(items) -> dict[str, Fraction]:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ConstraintError(f"--param needs name=value, got {item!r}")
        name, _, value = item.partition("=")
        params[name.strip()] = _exact(name, value)
    return params


def _check_names(case_ids, params: dict, einstein: bool = False) -> None:
    """Reject a parameter name that none of the requested cases reads."""
    accepted = sorted({name for cid in case_ids
                       for name in get_case(cid).param_names(einstein)})
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(f"no requested case reads the parameter(s) {', '.join(unknown)}; "
                         f"accepted names: {', '.join(accepted)}")


def _output(payload: str, out: str | None) -> str:
    """Write the payload to the file `out`, or return it for stdout."""
    if not out:
        return payload
    with open(out, "w") as fh:
        fh.write(payload + "\n")
    return ""


def cmd_dims(args) -> tuple[int, str]:
    rows = []
    if args.m_max < 0:
        raise ValueError(f"--m-max must be >= 0, got {args.m_max}")
    parts = [args.part] if args.part else ["h", "v"]
    if args.orbit == "s5":
        for m in range(args.m_max + 1):
            for part in parts:
                rows.append({"m": m, "part": part, "dim": dim_W_s5(m, part)})
    else:
        if args.k is None or args.l is None:
            raise ValueError(f"--orbit {args.orbit} needs --k and --l")
        aw = AloffWallach(args.k, args.l)
        for m in range(args.m_max + 1):
            for part in parts:
                rows.append({"m": m, "part": part,
                             "dim": dim_W(aw, args.orbit, m, part)})
    if args.format == "json":
        return 0, json.dumps(rows)
    if args.format == "csv":
        return 0, "\n".join(["m,part,dim", *(f"{r['m']},{r['part']},{r['dim']}"
                                              for r in rows)])
    return 0, "\n".join(f"m={r['m']:2d}  part={r['part']}  dim={r['dim']}" for r in rows)


def cmd_series(args) -> tuple[int, str]:
    params = _parse_params(args.param)
    _check_names([args.case], params, args.einstein)
    if args.einstein:
        sol = einstein_series(args.case, params, _exact("lambda", args.lam or "0"),
                              order=args.order, k=args.k, l=args.l)
    else:
        sol = solve_series(args.case, params, order=args.order,
                           k=args.k, l=args.l)
    return 0, _output(json.dumps(sol.to_json(), indent=2), args.out)


def _verify_one(job) -> dict:
    case_id, params, kw = job
    return verify_case(case_id, params, **kw)


def _fill_defaults(case_id: str, params: dict) -> dict:
    """The parameters the case reads; unspecified initial values default to
    1, free slots to 0."""
    case = get_case(case_id)
    names = case.param_names()
    out = {name: v for name, v in params.items() if name in names}
    for name in case.required_params:
        out.setdefault(name, Fraction(1))
    for slot in case.slots:
        out.setdefault(slot.param, Fraction(0))
    return out


def cmd_verify(args) -> tuple[int, str]:
    params = _parse_params(args.param)
    kw = dict(k=args.k, l=args.l, t0=args.t0, t_end=args.t_end, tol=args.tol,
              order=args.order)
    if args.fault_inject:
        fn, _, order = args.fault_inject.partition(":")
        kw["fault_inject"] = (fn, int(order))
    cases = [cid.strip().upper() for cid in args.case.split(",")]
    _check_names(cases, params)
    jobs = [(cid, _fill_defaults(cid, params), kw) for cid in cases]
    if args.jobs > 1 and len(jobs) > 1:
        # the pool may start all its workers up front: no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(jobs))) as pool:
            reports = list(pool.map(_verify_one, jobs))
    else:
        reports = [_verify_one(job) for job in jobs]
    out = reports[0] if len(reports) == 1 else reports
    code = 0 if all(r["ok"] for r in reports) else EXIT_VERIFY
    return code, _output(json.dumps(out, indent=2, default=str), args.out)


def cmd_cases(args) -> tuple[int, str]:
    return 0, json.dumps(catalog_json(), indent=2)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="awflow",
        description="Singular initial value problems for cohomogeneity-one "
                    "special-holonomy and Einstein metrics over Aloff-Wallach "
                    "orbits: exact series, smoothness checks, numerical "
                    "continuation and residual monitors.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="equivariant-map dimension tables")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--orbit", required=True, choices=["u12", "u12-z2", "s5"])
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--part", choices=["h", "v"], default=None)
    p.add_argument("--format", choices=["json", "csv", "pretty"],
                   default="pretty")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("series", help="solve a singular IVP as an exact series")
    p.add_argument("--case", required=True, choices=sorted(CASES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--param", action="append", metavar="NAME=P/Q",
                   help="exact rational parameter (repeatable)")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--einstein", action="store_true",
                   help="solve the Einstein system instead of the holonomy one")
    p.add_argument("--lambda", dest="lam", default="0",
                   help="Einstein constant (exact rational)")
    p.add_argument("--out", default=None, help="write the JSON here")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the verification ladder for a case")
    p.add_argument("--case", required=True,
                   help="case id, or comma-separated ids (run with --jobs)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--param", action="append", metavar="NAME=P/Q")
    p.add_argument("--t0", type=float, default=1e-2)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="continuation tolerance; the DOP853 step loop runs at "
                        f"rtol = atol = TOL / {TOL_RATIO}")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--fault-inject", default=None, metavar="FN:ORDER",
                   help=argparse.SUPPRESS)  # test mode: corrupt one coefficient
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cases", help="dump the singular-orbit case catalog")
    p.set_defaults(func=cmd_cases)
    return ap


def _join_negative_lambda(argv) -> list[str]:
    """'--lambda -1/2' as '--lambda=-1/2': argparse takes '-1/2' for an option.
    Any abbreviation from '--la' up is joined too ('--l' is its own option)."""
    out: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        prev = out[-1] if out else ""
        if (len(prev) > 3 and "--lambda".startswith(prev) and arg[:1] == "-"
                and arg[1:2].isdigit()):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_lambda(argv))
    try:
        code, text = args.func(args)
    except ConstraintError as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except InconsistentSystem as exc:
        print(f"solver inconsistency: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout: point it at devnull, as the Python
            # docs advise, so that the flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
