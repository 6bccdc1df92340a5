"""Command line surface: reproducible reports over exact scalars.

Every report is deterministic for a given invocation: scalars are emitted
as exact literals, collections in fixed orders, and the payload carries
the parameters, backend, and library version but no timestamps.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the report
says which) or a parameter lies outside the command's domain (``check
failed:`` on stderr, nothing on stdout), 2 invalid input, 141 (128 +
SIGPIPE) stdout was closed before the report was written out.

The argument parser is built on the first call to ``main`` and reused by
every later call in the same process.  That is safe: ``parse_args``
returns a fresh ``Namespace`` each time and the parser keeps no state
from one call to the next, errors included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import InvalidInput, QuadralabError
from .freealg import LABELS_CHL, LABELS_Z, generators
from .geometry import PointTable, minor_factorization_report, verify_gamma
from .graded import DEFAULT_DEGREE_CAP, GradedQuotient
from .center import (
    central_pair_identity_report,
    chl_identity_report,
    chl_symbolic_central,
    chl_z1,
    chl_z2,
    sklyanin_central_pair,
    squares_identity_report,
    z2_over_base,
)
from .presentations import (
    angle_invariant,
    chl_to_sklyanin_params,
    chl_z_relations,
    classify_chl,
    invariant_table,
    sklyanin_relations,
)
from .scalars import DEFAULT_PRIME, PrimeField, RingOps, parse_scalar
from .selftest import run_acceptance
from .symmetry import (
    gamma_maps,
    heisenberg_checks,
    orbits,
    point_action_is_faithful,
    psi_maps,
)


def _literal(value):
    """Render any scalar-ish value as an exact literal."""
    if isinstance(value, (RingOps, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_literal(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _literal(v) for k, v in value.items()}
    return value


def _emit(payload, fmt):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        _print_table(payload)


def _print_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                print(f"{pad}-")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def _tuple_option(text, n, name):
    parts = text.split(",")
    if len(parts) != n:
        raise InvalidInput(f"--{name} needs {n} comma-separated scalars")
    return tuple(parse_scalar(p.strip()) for p in parts)


def _base_payload(args, **params):
    return {
        "version": __version__,
        "parameters": {k: _literal(v) for k, v in params.items()},
        **({} if not getattr(args, "mod_p", None) else {"prime": args.mod_p}),
    }


def _abc_params(args):
    if args.abc:
        a, b, c = _tuple_option(args.abc, 3, "abc")
        return a, b, c
    raise InvalidInput("--abc a,b,c is required")


def _alpha_params(args):
    missing = [n for n in ("alpha", "beta", "gamma") if getattr(args, n) is None]
    if missing:
        raise InvalidInput(f"missing --{missing[0]}")
    return parse_scalar(args.alpha), parse_scalar(args.beta), parse_scalar(args.gamma)


def _abcd_params(args):
    if not args.abcd:
        raise InvalidInput("--abcd a,b,c,d is required")
    return _tuple_option(args.abcd, 4, "abcd")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_hilbert(args):
    alpha, beta, gamma = _alpha_params(args)
    if args.degree < 0:
        raise InvalidInput(f"--degree must be non-negative, got {args.degree}")
    if args.mod_p is not None:
        try:
            PrimeField(args.mod_p)
        except ValueError as exc:
            raise InvalidInput(f"--mod-p: {exc}") from None
    quotient = GradedQuotient(sklyanin_relations(alpha, beta, gamma),
                              p=args.mod_p or DEFAULT_PRIME)
    backend = "exact" if args.mod_p is None else "modular"
    profile = quotient.hilbert_function(args.degree, backend=backend, force=args.force)
    payload = _base_payload(args, alpha=alpha, beta=beta, gamma=gamma)
    payload.update(profile.as_dict())
    _emit(payload, args.format)
    return 0


def cmd_points(args):
    a, b, c = _abc_params(args)
    table = PointTable(a, b, c)
    payload = _base_payload(args, a=a, b=b, c=c)
    payload["strata"] = {
        label: [[_literal(x) for x in p.coords] for p in pts]
        for label, pts in table.strata.items()
    }
    payload["graph"] = [
        [[_literal(x) for x in p.coords], [_literal(x) for x in q.coords]]
        for p, q in table.graph()
    ]
    payload["distinct"] = table.all_distinct()
    _emit(payload, args.format)
    return 0 if payload["distinct"] else 1


def cmd_verify_gamma(args):
    alpha, beta, gamma = _alpha_params(args)
    a, b, c = _abc_params(args)
    report = verify_gamma(alpha, beta, gamma, a, b, c)
    payload = _base_payload(args, alpha=alpha, beta=beta, gamma=gamma, a=a, b=b, c=c)
    payload["report"] = report
    _emit(payload, args.format)
    return 1 if report["failures"] else 0


def cmd_minors(args):
    if args.alpha is None and args.beta is None and args.gamma is None:
        report = minor_factorization_report()
        params = {"alpha": "symbolic", "beta": "symbolic", "gamma": "symbolic"}
    else:
        alpha, beta, gamma = _alpha_params(args)
        report = minor_factorization_report(alpha, beta, gamma)
        params = {"alpha": alpha, "beta": beta, "gamma": gamma}
    payload = _base_payload(args, **params)
    payload["factorizations"] = {
        f"h{i}{j}": {k: _literal(v) for k, v in entry.items()}
        for (i, j), entry in sorted(report.items())
    }
    _emit(payload, args.format)
    return 0


def cmd_autos(args):
    a, b, c = _abc_params(args)
    report = heisenberg_checks(a, b, c)
    table = PointTable(a, b, c)
    psis = psi_maps(a, b, c)
    non_coord = [p for label in ("0", "1", "2", "3") for p in table.strata[label]]
    parts = orbits(non_coord, list(psis))
    payload = _base_payload(args, a=a, b=b, c=c)
    payload["group_relations"] = report
    payload["orbits"] = {
        "non_coordinate": [len(o) for o in parts],
        "coordinate_fixed": [len(o) for o in orbits(table.strata["inf"],
                                                    list(gamma_maps()))],
        "faithful": point_action_is_faithful(non_coord, psis[0], psis[1]),
    }
    _emit(payload, args.format)
    ok = all(report.values()) and payload["orbits"]["faithful"]
    return 0 if ok else 1


def cmd_chl(args):
    a, b, c, d = _abcd_params(args)
    payload = _base_payload(args, a=a, b=b, c=c, d=d)
    if args.chl_action == "classify":
        cls = classify_chl(a, b, c, d)
        payload["locus"] = cls.locus
        payload["excluded"] = cls.excluded
        if cls.special_alpha is not None:
            payload["special_alpha"] = _literal(cls.special_alpha)
        if cls.correspondence:
            corr = cls.correspondence
            payload["alpha"] = _literal(corr.alpha)
            payload["beta"] = _literal(corr.beta)
            payload["gamma"] = _literal(corr.gamma)
            payload["parameter_sum"] = _literal(corr.sigma_pi)
        if cls.vanishing:
            payload["vanishing_factors"] = list(cls.vanishing)
        _emit(payload, args.format)
        return 0
    if args.chl_action == "params":
        corr = chl_to_sklyanin_params(a, b, c, d)
        payload.update({
            "alpha": _literal(corr.alpha),
            "beta": _literal(corr.beta),
            "gamma": _literal(corr.gamma),
            "beta_presented": _literal(corr.beta_presented),
            "mu": _literal(corr.mu),
            "nu": _literal(corr.nu),
            "pqrs": _literal(corr.pqrs),
            "parameter_sum": _literal(corr.sigma_pi),
            "parameter_sum_presented": _literal(corr.sigma_pi_presented),
        })
        _emit(payload, args.format)
        return 0
    # center: the rendered Z1 and Z2 themselves are checked, on one quotient
    x_form, z_form = chl_z1(a, b, c, d)
    quotient = GradedQuotient(chl_z_relations(a, b, c, d, verify=False))
    ok1, _ = quotient.is_central(z_form)
    payload["Z1_x_basis"] = x_form.render(LABELS_CHL)
    payload["Z1_z_basis"] = z_form.render(LABELS_Z)
    payload["Z1_central"] = ok1
    try:
        psi, z2 = chl_z2(a, b, c, d)
        ok2, _ = quotient.is_central(z2_over_base(psi, z2))
        payload["Z2_z_basis"] = z2.render(LABELS_Z)
        payload["Z2_central"] = ok2
    except QuadralabError as exc:
        payload["Z2_central"] = None
        payload["Z2_note"] = str(exc)
        ok2 = True
    sym = (True, True)
    if args.symbolic:
        # Z1 and Z2 certified over the rational function field in a,b,c,d
        sym = chl_symbolic_central()
        payload["symbolic"] = {"Z1_central": sym[0], "Z2_central": sym[1]}
    _emit(payload, args.format)
    return 0 if ok1 and ok2 and all(sym) else 1


def cmd_center(args):
    alpha, beta, gamma = _alpha_params(args)
    quotient = GradedQuotient(sklyanin_relations(alpha, beta, gamma))
    payload = _base_payload(args, alpha=alpha, beta=beta, gamma=gamma)
    x = generators()
    squares = {}
    for g in range(4):
        ok, _ = quotient.is_central(x[g] * x[g])
        squares[f"x{g}^2"] = ok
    payload["squares_central"] = squares
    try:
        om0, om1 = sklyanin_central_pair(alpha, beta, gamma)
        payload["pair_central"] = {
            "omega0": quotient.is_central(om0)[0],
            "omega1": quotient.is_central(om1)[0],
        }
    except QuadralabError as exc:
        payload["pair_central"] = {"note": str(exc)}
    _emit(payload, args.format)
    return 0


def cmd_identities(args):
    payload = {
        "version": __version__,
        "squares_suite": {f"{k[0]}@{k[1]}": v
                          for k, v in sorted(squares_identity_report().items())},
        "central_pair_suite": central_pair_identity_report(),
        "parameter_sum_suite": chl_identity_report(),
    }
    _emit(payload, args.format)
    ok = (all(payload["squares_suite"].values())
          and all(payload["central_pair_suite"].values())
          and all(payload["parameter_sum_suite"].values()))
    return 0 if ok else 1


def cmd_iso_invariants(args):
    alpha, beta, gamma = _alpha_params(args)
    space = sklyanin_relations(alpha, beta, gamma)
    table = invariant_table(alpha, beta, gamma)
    payload = _base_payload(args, alpha=alpha, beta=beta, gamma=gamma)
    computed = angle_invariant(space)
    rows = {}
    ok = True
    for perm in sorted(table):
        match = computed[perm] == table[perm]
        ok = ok and match
        rows["".join(map(str, perm))] = {
            "computed": _literal(computed[perm]),
            "expected": _literal(table[perm]),
            "match": match,
        }
    payload["invariants"] = rows
    _emit(payload, args.format)
    return 0 if ok else 1


def cmd_selftest(args):
    results = run_acceptance(args.only or None)
    if args.format == "json":
        print(json.dumps({"version": __version__,
                          "results": [r.as_dict() for r in results]}, indent=2))
    else:
        for r in results:
            print(r.line())
            print(f"{r.name} {r.seconds:.1f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadralab",
        description="exact verification toolkit for the quadratic algebra families "
                    "A(alpha,beta,gamma) and R(a,b,c,d)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False, abc=False, abcd=False, degree=False):
        p.add_argument("--format", choices=("table", "json"), default="table")
        if alpha:
            p.add_argument("--alpha")
            p.add_argument("--beta")
            p.add_argument("--gamma")
        if abc:
            p.add_argument("--abc", help="square roots a,b,c as scalar literals")
        if abcd:
            p.add_argument("--abcd", help="parameters a,b,c,d as scalar literals")
        if degree:
            p.add_argument("--degree", type=int, default=4)
            p.add_argument("--force", action="store_true",
                           help=f"override the degree cap (default {DEFAULT_DEGREE_CAP}, "
                                "env QUADRALAB_DEGREE_CAP)")
            p.add_argument("--mod-p", dest="mod_p", type=int, default=None,
                           help=f"modular backend prime (=1 mod 4), e.g. {DEFAULT_PRIME}")

    p = sub.add_parser("hilbert", help="graded dimensions of A(alpha,beta,gamma)")
    common(p, alpha=True, degree=True)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("points", help="the twenty-point table and its bijection")
    common(p, abc=True)
    p.set_defaults(fn=cmd_points)

    p = sub.add_parser("verify-gamma", help="four-assertion zero-locus verification")
    common(p, alpha=True, abc=True)
    p.set_defaults(fn=cmd_verify_gamma)

    p = sub.add_parser("minors", help="minor factorizations (symbolic without --alpha)")
    common(p, alpha=True)
    p.set_defaults(fn=cmd_minors)

    p = sub.add_parser("autos", help="automorphism group relations and orbits")
    common(p, abc=True)
    p.set_defaults(fn=cmd_autos)

    p = sub.add_parser("center", help="central elements of A(alpha,beta,gamma)")
    common(p, alpha=True)
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("chl", help="the R(a,b,c,d) family")
    p.add_argument("chl_action", choices=("classify", "params", "center"))
    common(p, abcd=True)
    p.add_argument("--symbolic", action="store_true",
                   help="for center: also certify Z1/Z2 over the function field")
    p.set_defaults(fn=cmd_chl)

    p = sub.add_parser("identities", help="the free-algebra identity suite")
    common(p)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("iso-invariants", help="permutation invariants vs the table")
    common(p, alpha=True)
    p.set_defaults(fn=cmd_iso_invariants)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p)
    p.add_argument("--only", nargs="*", help="criterion names, e.g. A1 A2")
    p.set_defaults(fn=cmd_selftest)
    return parser


#: the status a shell reports for a program that SIGPIPE ended
EXIT_BROKEN_PIPE = 141


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); what is still buffered
        # goes to /dev/null, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadralabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
