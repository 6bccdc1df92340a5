"""Seeded inputs, operations and verdicts for the four benchmark workloads.

A workload is built once per process by ``build(name, seed)``; that is the
set-up the benchmark times.  Set-up parses scalars and assembles free-algebra
elements only: it builds no ideal slice and no echelon.  Each workload returns
a ``Plan``: a fixed list of operations that make up one pass, whether an
untimed warm-up pass comes first, and a text digest of every generated input.
Operations share one state dict for the whole run; quotients are created in
it by the first operation that needs them.

Every operation is one verdict.  ``Op.run(state)`` calls the library and
returns True when the answer matches what is known independently of the code
under test; it returns False or raises otherwise.  An operation marked
``probe`` reproduces a known defect: it runs and is timed with the others,
but its outcome is reported on its own instead of as a verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from quadralab import graded, presentations
from quadralab.freealg import FreeElement, anticommutator, commutator, generators
from quadralab.poly import FunctionField, PolyRing
from quadralab.scalars import gaussian, parse_scalar

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

PRIME = 65537
OVERFLOW_PRIME = 2147483713
GENERIC_DIMS = [1, 4, 10, 16, 19, 20, 20]
SKLYANIN_POINT = ("2", "-3", "-1/5")
GENERIC_POINT = ("2", "3", "5")
CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

# small exact values the seeded parameters are drawn from
PARAM_VALUES = [Fraction(v) for v in (2, 3, 4, 5, -2, -3, -4, -5)] + [
    Fraction(n, d) for n, d in ((1, 2), (1, 3), (-1, 2), (-1, 3), (3, 2), (2, 3))
]


@dataclass
class Op:
    kind: str
    run: Callable[[dict], bool]
    probe: bool = False
    # False for ops that spend most of their time in numpy on large arrays:
    # their speed follows memory and BLAS threads, not the pure-Python
    # calibration loop, so their latency is reported raw (speed.py)
    at_reference: bool = True


@dataclass
class Plan:
    ops: list
    digest: list = field(default_factory=list)
    min_ops: int = 1
    warmup: bool = False


def lit(q) -> str:
    """Exact literal of a Fraction (or int) in the library's scalar grammar."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def sklyanin_point(rng):
    """(alpha, beta, gamma) on alpha+beta+gamma+alpha*beta*gamma = 0, none in {0, 1, -1}."""
    while True:
        a, b = rng.sample(PARAM_VALUES, 2)
        if 1 + a * b == 0:
            continue
        g = -(a + b) / (1 + a * b)
        if g not in (0, 1, -1):
            return a, b, g


def generic_point(rng):
    """(alpha, beta, gamma) off the Sklyanin locus, with alpha*beta*gamma != 0."""
    while True:
        a, b, g = rng.sample(PARAM_VALUES, 3)
        if a + b + g + a * b * g != 0:
            return a, b, g


def build(name: str, seed: int) -> Plan:
    return BUILDERS[name](random.Random(seed))


# ---------------------------------------------------------------------------
# hilbert: Hilbert prefixes, each on a fresh GradedQuotient as the CLI does
# ---------------------------------------------------------------------------


def _hilbert_dims(params, degree, prime=None):
    quotient = graded.GradedQuotient(presentations.sklyanin_relations(*params),
                                     p=prime or PRIME)
    backend = "modular" if prime else "exact"
    return quotient.hilbert_function(degree, backend=backend).dims


def _binomials(top):
    return [comb(n + 3, 3) for n in range(top + 1)]


def _build_hilbert(rng) -> Plan:
    generic = tuple(parse_scalar(v) for v in GENERIC_POINT)
    sklyanin = tuple(parse_scalar(v) for v in SKLYANIN_POINT)

    def expect(params, degree, prime, dims):
        return lambda state: _hilbert_dims(params, degree, prime) == dims

    # A(2,3,5) exact runs to degree 5, not 6: the degree-6 prefix is one
    # 5-6 s op whose time follows the host's speed swings during it, which
    # no calibration before and after can correct for (perfbench/README.md)
    ops = [
        Op("generic_exact_d5", expect(generic, 5, None, GENERIC_DIMS[:6])),
        Op("generic_modp_d6", expect(generic, 6, PRIME, GENERIC_DIMS), at_reference=False),
        Op("sklyanin_exact_d5", expect(sklyanin, 5, None, _binomials(5))),
        Op("sklyanin_modp_d6", expect(sklyanin, 6, PRIME, _binomials(6)), at_reference=False),
        # ROADMAP item 4: the mod-p kernel overflows for p > 2^17 and
        # reports dims below the exact ones.
        Op("generic_modp_d6_p2147483713",
           expect(generic, 6, OVERFLOW_PRIME, GENERIC_DIMS), probe=True, at_reference=False),
    ]
    digest = [GENERIC_POINT, SKLYANIN_POINT]
    for _ in range(2):
        point = sklyanin_point(rng)
        params = tuple(gaussian(v) for v in point)
        ops.append(Op("seeded_sklyanin_exact_d4", expect(params, 4, None, _binomials(4))))
        digest.append(("sklyanin", *map(lit, point)))
    for _ in range(2):
        point = generic_point(rng)
        params = tuple(gaussian(v) for v in point)

        def bounded(state, params=params):
            # a rank mod p can only drop, so modular dims bound exact ones
            exact = _hilbert_dims(params, 4)
            modular = _hilbert_dims(params, 4, PRIME)
            return exact[:3] == [1, 4, 10] and all(e <= m for e, m in zip(exact, modular))

        ops.append(Op("seeded_generic_exact_vs_modp_d4", bounded))
        digest.append(("generic", *map(lit, point)))
    return Plan(ops, digest)


# ---------------------------------------------------------------------------
# membership: seeded queries against A(2,3,5) and the Sklyanin point
# ---------------------------------------------------------------------------


def relation_elements(params):
    """The six relations, written out from their defining formula.

    c_i = [x0,xi] - alpha_i {xj,xk},  a_i = {x0,xi} - [xj,xk]  for cyclic (i,j,k).
    """
    x = generators()
    out = []
    for (i, j, k), lam in zip(CYCLIC, params):
        out.append(commutator(x[0], x[i]) - anticommutator(x[j], x[k]).scale(lam))
        out.append(anticommutator(x[0], x[i]) - commutator(x[j], x[k]))
    return out


class _Queries:
    """Seeded query elements over one algebra.

    Members are explicit sums c * w * r * w'.  Every ideal element maps to
    zero in the commutative quotient, which for alpha*beta*gamma != 0 is
    k[x0..x3]/(x_i x_j, i != j); so the coefficients of the pure powers
    x_g^n are zero on the ideal, and any element with a nonzero pure-power
    coefficient is a non-member.
    """

    def __init__(self, rng, params):
        self.rng = rng
        self.relations = relation_elements(params)
        self.digest = []

    def scalar(self):
        rng = self.rng
        re = rng.choice([v for v in range(-6, 7) if v])
        im = rng.choice([0, 0, 1, -1, 2])
        self.digest.append(f"{re}{im:+d}i")
        return gaussian(re, im)

    def word(self, n):
        w = tuple(self.rng.randrange(4) for _ in range(n))
        self.digest.append(w)
        return w

    def mixed_word(self, n):
        while True:
            w = tuple(self.rng.randrange(4) for _ in range(n))
            if len(set(w)) > 1:
                self.digest.append(w)
                return w

    def member(self, n, terms=3):
        one = gaussian(1)
        h = FreeElement()
        for _ in range(terms):
            left = self.rng.randrange(n - 1)
            k = self.rng.randrange(6)
            rel = self.relations[k]
            self.digest.append(("rel", k))
            piece = (FreeElement.from_word(self.word(left), one) * rel
                     * FreeElement.from_word(self.word(n - 2 - left), one))
            h = h + piece.scale(self.scalar())
        if h.is_zero():
            return self.member(n, terms)
        return h

    def combination(self, words):
        out = FreeElement()
        for w in words:
            out = out + FreeElement.from_word(w, self.scalar())
        return out


def pure_power_coefficients(f, n):
    return [f.terms.get((g,) * n) for g in range(4)]


def _membership_ops(rng, key, params, central):
    """The per-algebra share of a membership pass.

    The seed draws the cheap queries (degrees 3-4, centrality of degree-2
    elements) and the certificates.  The dense degree-5 queries are a fixed
    set, the same in every run: they sit between the two and hold the median
    latency, so that `op_p50_ms` does not move with the seed.
    """
    qs = _Queries(rng, params)
    fixed = _Queries(random.Random(f"membership-{key}-degree-5"), params)
    ops = []

    def quotient(state):
        if key not in state:
            state[key] = graded.GradedQuotient(presentations.sklyanin_relations(*params))
        return state[key]

    def normal_form(source, n, words, terms):
        # the normal form is a class function that keeps pure-power coefficients
        u = source.combination([source.word(n) for _ in range(words)])
        reps = (u + source.member(n, terms), u + source.member(n, terms))

        def run(state):
            q = quotient(state)
            first, second = (q.normal_form(r) for r in reps)
            return first == second and (pure_power_coefficients(first, n)
                                        == pure_power_coefficients(u, n))

        return Op(f"normal_form_d{n}", run)

    def contains(source, n, terms):
        h = source.member(n, terms)
        g = source.rng.randrange(4)
        non = (source.member(n, terms) + source.combination([source.mixed_word(n)])
               + FreeElement.from_word((g,) * n, source.scalar()))
        return [Op(f"contains_member_d{n}", lambda s: quotient(s).contains(h) is True),
                Op(f"contains_nonmember_d{n}", lambda s: quotient(s).contains(non) is False)]

    ops.append(normal_form(qs, 3, 4, 3))
    ops += contains(qs, 3, 3) + contains(qs, 4, 3)
    for _ in range(2):
        z = FreeElement()
        for element in central:
            z = z + element.scale(qs.scalar())
        ops.append(Op("is_central_true", lambda s, z=z: quotient(s).is_central(z)[0] is True))
        # x0*x_i is not central in either algebra, so adding it breaks centrality
        i = qs.rng.randrange(1, 4)
        w = z + FreeElement.from_word((0, i), qs.scalar())
        ops.append(Op("is_central_false",
                      lambda s, w=w: quotient(s).is_central(w)[0] is False))
    for _ in range(3):
        ops += contains(fixed, 5, 12)
    ops += [normal_form(fixed, 5, 8, 6) for _ in range(2)]
    for n in (3, 4, 4, 4, 4):
        h = qs.member(n, terms=2)

        def certify(state, h=h):
            q = quotient(state)
            cert = q.membership_certificate(h)
            return cert is not None and graded.verify_certificate(q.space, cert, h)

        ops.append(Op(f"certificate_d{n}", certify))
    return ops, qs.digest + fixed.digest


def _build_membership(rng) -> Plan:
    x = generators()
    squares = [g * g for g in x]

    generic = tuple(parse_scalar(v) for v in GENERIC_POINT)
    # A(2,3,5): the four squares are central (the README's `center` report)
    generic_ops, d1 = _membership_ops(rng, "generic", generic, squares)

    sklyanin = tuple(parse_scalar(v) for v in SKLYANIN_POINT)
    _, be, ga = sklyanin
    # the degree-2 central pair of a nondegenerate Sklyanin algebra
    omega0 = -squares[0] + squares[1] + squares[2] + squares[3]
    omega1 = squares[0] + squares[1].scale(be * ga) - squares[2].scale(ga) + squares[3].scale(be)
    sklyanin_ops, d2 = _membership_ops(rng, "sklyanin", sklyanin, [omega0, omega1])

    ops = generic_ops + sklyanin_ops
    rng.shuffle(ops)
    return Plan(ops, [GENERIC_POINT, SKLYANIN_POINT] + d1 + d2, min_ops=100, warmup=True)


# ---------------------------------------------------------------------------
# symbolic: Z1, Z2 and a negative control over Q(i)(a,b,c,d)
# ---------------------------------------------------------------------------


def _build_symbolic(rng) -> Plan:
    # center and cli are imported only by the workloads that use them, so
    # that each workload's set-up time covers what it needs
    from quadralab import center

    ring = PolyRing(("a", "b", "c", "d"))
    F = FunctionField(ring)
    a, b, c, d = F.gens()
    # any nonzero multiple of a*z0^2 breaks centrality, since Z1 is central
    scale = rng.choice(PARAM_VALUES)
    shift = F.coerce(gaussian(scale)) * a

    def quotient(state):
        if "q" not in state:
            space = presentations.chl_z_relations(a, b, c, d, field=F, verify=False)
            state["q"] = graded.GradedQuotient(space)
        return state["q"]

    def z1(state):
        return center.chl_z1_central(a, b, c, d, field=F, quotient=quotient(state))[0] is True

    def z2(state):
        return center.chl_z2_central(a, b, c, d, field=F, quotient=quotient(state))[0] is True

    def negative(state):
        _, z1_form = center.chl_z1(a, b, c, d, field=F)
        z0 = generators(F)[0]
        return quotient(state).is_central(z1_form + (z0 * z0).scale(shift))[0] is False

    ops = [Op("z1_central", z1), Op("z2_central", z2), Op("z1_plus_a_z0sq_not_central", negative)]
    return Plan(ops, ["Q(i)(a,b,c,d)", ("negative_control_scale", lit(scale))])


# ---------------------------------------------------------------------------
# reports: the README commands through cli.main, stdout captured
# ---------------------------------------------------------------------------


def golden_commands():
    """[(argv, expected stdout)] for the README commands, hilbert excluded."""
    with open(os.path.join(GOLDEN_DIR, "commands.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    out = []
    for entry in manifest:
        with open(os.path.join(GOLDEN_DIR, entry["stdout"]), encoding="utf-8", newline="") as fh:
            out.append((shlex.split(entry["command"]), fh.read()))
    return out


def run_cli(argv):
    """(exit code, stdout) of quadralab.cli.main run in-process."""
    from quadralab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _quadric_point(rng):
    """A generic (a,b,c,d) on ac + bd = 0: the twelve genericity factors are nonzero."""
    small = [Fraction(v) for v in (1, 2, -1, -2)]
    while True:
        a, b, d = (rng.choice(small) for _ in range(3))
        c = -b * d / a
        p, q, r, s = a + b, a - b, c + d, c - d
        factors = (a, b, c, d, p + r, p - r, p + s, p - s, q + r, q - r, q + s, q - s)
        if all(factors):
            return a, b, c, d


def _build_reports(rng) -> Plan:
    ops = []
    digest = []
    for argv, expected in golden_commands():
        def golden(state, argv=argv, expected=expected):
            code, out = run_cli(argv)
            return code == 0 and out == expected

        ops.append(Op(argv[0] if argv[0] != "chl" else f"chl_{argv[1]}", golden))
        digest.append(argv)

    # verify-gamma and chl center run on four seeded points each: of the 25
    # ops of a pass, 10 are cheaper than chl center and 10 dearer, so the
    # median falls in the middle of the five chl center ops, and the 90th
    # percentile in the middle of the five verify-gamma ops, the dearest
    root_sets = [[lit(v) for v in rng.sample(range(2, 10), 3)] for _ in range(4)]
    abc = ",".join(root_sets[0])
    alpha, beta, gamma = (lit(v) for v in generic_point(rng))
    s_alpha, s_beta, s_gamma = (lit(v) for v in sklyanin_point(rng))
    abcd_sets = [",".join(lit(v) for v in _quadric_point(rng)) for _ in range(4)]
    abcd = abcd_sets[0]

    seeded = [
        ("seeded_points", ["points", "--abc", abc], lambda p: p["distinct"] is True),
        ("seeded_minors", ["minors", f"--alpha={alpha}", f"--beta={beta}", f"--gamma={gamma}"],
         lambda p: len(p["factorizations"]) == 15),
        ("seeded_autos", ["autos", "--abc", abc], lambda p: p["orbits"]["faithful"] is True),
        ("seeded_center",
         ["center", f"--alpha={s_alpha}", f"--beta={s_beta}", f"--gamma={s_gamma}"],
         lambda p: p["pair_central"] == {"omega0": True, "omega1": True}),
        ("seeded_chl_classify", ["chl", "classify", f"--abcd={abcd}"],
         lambda p: p["locus"] == "generic"),
        ("seeded_chl_params", ["chl", "params", f"--abcd={abcd}"],
         lambda p: "beta_presented" in p),
        ("seeded_iso_invariants",
         ["iso-invariants", f"--alpha={alpha}", f"--beta={beta}", f"--gamma={gamma}"],
         lambda p: all(row["match"] for row in p["invariants"].values())),
    ]
    for roots in root_sets:
        squares = [lit(Fraction(r) ** 2) for r in roots]
        seeded.append((
            "seeded_verify_gamma",
            ["verify-gamma", "--alpha", squares[0], "--beta", squares[1],
             "--gamma", squares[2], "--abc", ",".join(roots)],
            lambda p: p["report"]["failures"] == []))
    for point in abcd_sets:
        seeded.append((
            "seeded_chl_center", ["chl", "center", f"--abcd={point}"],
            lambda p: p["Z1_central"] is True and p["Z2_central"] in (True, None)))

    for kind, argv, check in seeded:
        argv = argv + ["--format", "json"]

        def run(state, argv=argv, check=check):
            code, out = run_cli(argv)
            return code == 0 and check(json.loads(out))

        ops.append(Op(kind, run))
        digest.append(argv)
    return Plan(ops, digest, min_ops=110, warmup=True)


BUILDERS = {
    "hilbert": _build_hilbert,
    "membership": _build_membership,
    "symbolic": _build_symbolic,
    "reports": _build_reports,
}
