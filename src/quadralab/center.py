"""Central elements and the symbolic identities behind them.

Two independent verification routes are kept deliberately separate:

* ``GradedQuotient.is_central`` decides centrality by exact degree-3
  ideal membership (one commutator per generator); over Q(i)(a,b,c,d)
  each member carries a polynomial certificate, solved over Q(i) and
  re-expanded (``graded.ParametricSlices``);
* the identity suite expands explicit free-algebra combinations of the
  relations with polynomial coefficients and checks that they reproduce
  the commutators in question, with zero residual.  It is expanded over
  Q(i)[params], not the function field: the squares suite has only
  polynomial coefficients, and the central pair is stated times the
  nonzero denominator of its eliminated parameter.

Both hold for symbolic parameters, so the central elements of the two
families are certified for all parameter values at once.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionViolated
from .extension import ExtensionElement
from .freealg import (
    FreeElement,
    anticommutator,
    commutator,
    generators,
)
from .graded import GradedQuotient
from .poly import FunctionField, PolyRing, ideal_slice_membership
from .presentations import (
    CHLParams,
    chl_z_relations,
    sklyanin_elements,
    sklyanin_relations,
    x_to_z_matrix,
)
from .freealg import apply_linear
from .scalars import GaussianRational, QI_I, QI_ONE, QQi
from .symmetry import ChlPsi


# ---------------------------------------------------------------------------
# the degree-two central elements
# ---------------------------------------------------------------------------


def sklyanin_central_pair(alpha, beta, gamma):
    """The two central degree-2 elements of a nondegenerate A(alpha,beta,gamma).

    Requires alpha+beta+gamma+alpha*beta*gamma = 0 and parameters outside
    {0, 1, -1}, all in Q(i).  Returns (omega0, omega1) with

        omega0 = -x0^2 + x1^2 + x2^2 + x3^2
        omega1 =  x0^2 + beta*gamma*x1^2 - gamma*x2^2 + beta*x3^2
    """
    al, be, ga = (QQi.coerce(v) for v in (alpha, beta, gamma))
    if al + be + ga + al * be * ga:
        raise PreconditionViolated("alpha+beta+gamma+alpha*beta*gamma != 0")
    for name, v in (("alpha", al), ("beta", be), ("gamma", ga)):
        if not v or v == 1 or v == -1:
            raise PreconditionViolated(f"{name} in {{0, 1, -1}}")
    x = generators()
    sq = [g * g for g in x]
    omega0 = -sq[0] + sq[1] + sq[2] + sq[3]
    omega1 = sq[0] + sq[1].scale(be * ga) - sq[2].scale(ga) + sq[3].scale(be)
    return omega0, omega1


def chl_z1(a, b, c, d, field=QQi):
    """The degree-2 central element of R(a,b,c,d), in both bases.

    Returns (x_form, z_form): the x-basis element
    a(x1x3+x3x1) + b(x2x4+x4x2) + c(x2^2+x4^2) + d(x1^2+x3^2) and its
    z-basis rewriting 2(b+c)z0^2 + 2(a+d)z1^2 + 2(d-a)z2^2 + 2(c-b)z3^2.
    The two are verified equal under the basis change.
    """
    a, b, c, d = (field.coerce(v) for v in (a, b, c, d))
    CHLParams(a, b, c, d)  # validates the nonzero-tuple requirement
    x = generators(field)  # read as x1..x4
    x1, x2, x3, x4 = x
    x_form = (
        anticommutator(x1, x3).scale(a)
        + anticommutator(x2, x4).scale(b)
        + (x2 * x2 + x4 * x4).scale(c)
        + (x1 * x1 + x3 * x3).scale(d)
    )
    z = generators(field)  # read as z0..z3
    two = field.coerce(2)
    z_form = (
        (z[0] * z[0]).scale(two * (b + c))
        + (z[1] * z[1]).scale(two * (a + d))
        + (z[2] * z[2]).scale(two * (d - a))
        + (z[3] * z[3]).scale(two * (c - b))
    )
    rewritten = apply_linear(x_to_z_matrix(field), x_form)
    if rewritten != z_form:
        raise AssertionError("x-basis and z-basis forms disagree under the basis change")
    return x_form, z_form


def chl_z1_central(a, b, c, d, field, quotient):
    """(central?, failing generator) for the z-basis element, degree-3 membership."""
    _, z_form = chl_z1(a, b, c, d, field)
    return quotient.is_central(z_form)


def chl_z2(a, b, c, d, field=QQi):
    """The second central element, over the fourth-root tower.

    Z2 = (a+d)(q2 q3)^-2 z0^2 + (b+c)(q2 q3)^2 z1^2
       + (c-b)(q3/q2)^2 z2^2 + (d-a)(q2/q3)^2 z3^2,

    which is exactly psi(Z1)/2 for the order-4 automorphism psi: the z2^2
    coefficient carries tau3^2 = (q3/q2)^2 because psi sends z3 to tau3 z2,
    and symmetrically for z3^2.  The coefficients are read off psi's taus
    (tau0 = -q2 q3, tau1 = (q2 q3)^-1), not inverted again.  The equality
    with psi(Z1)/2 is asserted.  Returns (psi, Z2).
    """
    psi = ChlPsi(a, b, c, d, field=field)
    tower = psi.field
    a_, b_, c_, d_ = psi.params.as_tuple()
    t0, t1, t2, t3 = psi.taus
    z = generators(tower)
    z2 = (
        (z[0] * z[0]).scale(tower.coerce(a_ + d_) * t1 ** 2)
        + (z[1] * z[1]).scale(tower.coerce(b_ + c_) * t0 ** 2)
        + (z[2] * z[2]).scale(tower.coerce(c_ - b_) * t3 ** 2)
        + (z[3] * z[3]).scale(tower.coerce(d_ - a_) * t2 ** 2)
    )
    _, z1_form = chl_z1(a, b, c, d, field)
    z1_lifted = FreeElement({w: tower.coerce(v) for w, v in z1_form.terms.items()})
    half = tower.coerce(Fraction(1, 2))
    if psi.map(z1_lifted).scale(half) != z2:
        raise AssertionError("Z2 does not equal psi(Z1)/2")
    return psi, z2


def z2_over_base(psi, z2):
    """(q2 q3)^2 Z2, rewritten with base-field coefficients.

    The fourth powers of the roots collapse, so every coefficient is a
    constant of the tower; centrality is invariant under that unit
    scaling, so this element is central exactly when Z2 is.
    """
    base = {}
    for w, v in z2.scale((psi.q2 * psi.q3) ** 2).terms.items():
        while isinstance(v, ExtensionElement):
            if not v.is_constant():
                raise AssertionError("(q2 q3)^2 Z2 does not have base-field coefficients")
            v = v.constant_part()
        base[w] = v
    return FreeElement(base)


def chl_z2_central(a, b, c, d, field, quotient):
    """Degree-3 membership check for Z2 over the base field (``z2_over_base``)."""
    psi, z2 = chl_z2(a, b, c, d, field)
    return quotient.is_central(z2_over_base(psi, z2))


def chl_symbolic_central():
    """(Z1 central?, Z2 central?, Z1 + a z0^2 fails at z1?) over Q(i)(a,b,c,d), on one quotient.

    The negative control's answer comes from the function-field
    non-membership path: the generic rank and its syzygies.
    """
    F = FunctionField(PolyRing(("a", "b", "c", "d")))
    a, b, c, d = F.gens()
    quotient = GradedQuotient(chl_z_relations(a, b, c, d, field=F, verify=False))
    z0 = generators(F)[0]
    control = chl_z1(a, b, c, d, F)[1] + (z0 * z0).scale(a)
    return (chl_z1_central(a, b, c, d, field=F, quotient=quotient)[0],
            chl_z2_central(a, b, c, d, field=F, quotient=quotient)[0],
            quotient.is_central(control) == (False, 1))


# ---------------------------------------------------------------------------
# the free-algebra identity suite
# ---------------------------------------------------------------------------


def squares_identity_report():
    """The four identity families proving the squares central.

    For every cyclic (i,j,k), the stated combinations of {x_m, c_i} and
    [x_m, a_i] collapse to (a1+a2+a3+a1*a2*a3) times a single commutator
    with a square.  Every coefficient is a polynomial, so the suite is
    expanded over Q(i)[a1,a2,a3] and holds over Q(i)(a1,a2,a3) with it.
    Returns {(family, i): residual-is-zero}.
    """
    field = PolyRing(("a1", "a2", "a3"))
    a1, a2, a3 = field.gens()
    sigma_pi = a1 + a2 + a3 + a1 * a2 * a3
    x = generators(field)
    c, a = sklyanin_elements((a1, a2, a3), field)
    al = {1: a1, 2: a2, 3: a3}
    one = field.one()
    report = {}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        ai, aj, ak = al[i], al[j], al[k]
        sq = lambda g: x[g] * x[g]

        lhs = (
            anticommutator(x[i], c[i]).scale(aj + ak)
            - commutator(x[i], a[i]).scale(ai * (aj * ak + one))
            - (anticommutator(x[j], c[j]) + commutator(x[j], a[j])).scale(ai * (ak + one))
            + (anticommutator(x[k], c[k]) + commutator(x[k], a[k])).scale(ai * (aj - one))
        )
        rhs = commutator(x[0], sq(i)).scale(sigma_pi)
        report[("x0-xi2", i)] = (lhs - rhs).is_zero()

        lhs = (
            anticommutator(x[j], a[i]).scale(aj + ak)
            + commutator(x[j], c[i]).scale(aj * ak + one)
            - (anticommutator(x[i], a[j]).scale(aj) + commutator(x[i], c[j])).scale(ak + one)
            + (commutator(x[0], a[k]) - anticommutator(x[0], c[k])).scale(aj - one)
        )
        rhs = commutator(x[k], sq(j)).scale(sigma_pi)
        report[("xk-xj2", i)] = (lhs - rhs).is_zero()

        # the [xi, cj] coefficient here is -(ai*ak + 1); the variant
        # -ai*(aj*ak + 1) fails, as does a minus on the last bracket
        lhs = (
            anticommutator(x[i], a[j]).scale(ai + ak)
            - commutator(x[i], c[j]).scale(ai * ak + one)
            + (anticommutator(x[0], c[k]) - commutator(x[0], a[k])).scale(ai + one)
            + (anticommutator(x[j], a[i]).scale(ai) - commutator(x[j], c[i])).scale(ak - one)
        )
        rhs = commutator(x[k], sq(i)).scale(-sigma_pi)
        report[("xk-xi2", i)] = (lhs - rhs).is_zero()

        # signs fixed by solving the 6-bracket linear system: the first two
        # terms enter positively and the last bracket negatively
        lhs = (
            anticommutator(x[0], c[i]).scale(aj + ak)
            + commutator(x[0], a[i]).scale(ai * (aj * ak + one))
            + (anticommutator(x[k], a[j]).scale(aj) - commutator(x[k], c[j])).scale(ai * (ak + one))
            - (anticommutator(x[j], a[k]).scale(ak) + commutator(x[j], c[k])).scale(ai * (aj - one))
        )
        rhs = commutator(x[i], sq(0)).scale(-sigma_pi)
        report[("xi-x02", i)] = (lhs - rhs).is_zero()
    return report


def central_pair_identities():
    """{name: (lhs, rhs)} of the two identities behind the central pair.

    With a3 eliminated through a1+a2+a3+a1*a2*a3 = 0, a3 = -(a1+a2)/D for
    D = 1+a1*a2.  Both identities are stated times D over Q(i)[a1,a2]: c3
    enters only as D*c3 = D[x0,x3] + (a1+a2){x1,x2}, every coefficient of
    "x0-com" and its right side carry the factor D, and the c3 bracket of
    "x1-omega0" already carried it.  D is a nonzero scalar of
    Q(i)(a1,a2), so D*(lhs - rhs) = 0 exactly when lhs = rhs there.
    """
    ring = PolyRing(("a1", "a2"))
    a1, a2 = ring.gens()
    one = ring.one()
    d = one + a1 * a2
    s = a1 + a2  # -D*a3
    x = generators(ring)
    c, a = sklyanin_elements((a1, a2, ring.zero()), ring)  # c[3] = [x0,x3] here
    dc3 = c[3].scale(d) + anticommutator(x[1], x[2]).scale(s)
    sq = [g * g for g in x]

    x0_com = (
        anticommutator(x[1], c[1]).scale(d - a2 * s)
        - commutator(x[1], a[1]).scale(a2 * s)
        + anticommutator(x[2], c[2]).scale(d - s)
        - commutator(x[2], a[2]).scale(s)
        + anticommutator(x[3], dc3).scale(one - a2)
        - commutator(x[3], a[3]).scale(a2 * d)
    )
    x1_omega0 = (
        (anticommutator(x[0], c[1]) + commutator(x[0], a[1]).scale(a1)).scale(one + a2)
        + commutator(x[3], c[2]).scale(one - a1)
        + anticommutator(x[3], a[2]).scale(one + a1 + a1 * a2 * 2)
        - (commutator(x[2], dc3) + anticommutator(x[2], a[3]).scale(d))
    )
    return {
        "x0-com": (x0_com, commutator(x[0], sq[1] + sq[2] + sq[3]).scale(d)),
        "x1-omega0": (x1_omega0, commutator(x[1], -sq[0] + sq[1] + sq[2] + sq[3])
                      .scale((one + a1) * (one + a2))),
    }


def central_pair_identity_report():
    """The two identities behind the Sklyanin-type central pair.

    Over Q(i)(a1,a2) with a3 = -(a1+a2)/(1+a1*a2), from the constraint
    a1+a2+a3+a1*a2*a3 = 0.  Each is decided on its statement times
    D = 1+a1*a2 over Q(i)[a1,a2] (``central_pair_identities``), which
    vanishes exactly when the identity holds.  Returns {name:
    residual-is-zero}.
    """
    return {name: (lhs - rhs).is_zero()
            for name, (lhs, rhs) in central_pair_identities().items()}


def chl_identity_report():
    """The two commutative identities behind the parameter correspondence.

    First: ab r^2 + ab s^2 + cd p^2 + cd q^2 = 2(ac+bd)(ad+bc), an
    unconditional polynomial identity once p,q,r,s are expanded.  Second:
    the cleared-denominator expression for the parameter-sum combination
    equals 2(ab+cd)(p^2 q^2 - r^2 s^2) modulo the quadric polynomial
    ac+bd, certified by slice membership.
    """
    ring = PolyRing(("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    p, q, r, s = a + b, a - b, c + d, c - d
    report = {}
    first = a * b * (r * r + s * s) + c * d * (p * p + q * q) - (
        (a * c + b * d) * (a * d + b * c)
    ).scale(GaussianRational(2))
    report["square-combination"] = first.is_zero()

    lhs = (
        (r * r - p * p) * (r * r - q * q) * a * b
        + (p * p - s * s) * (q * q - s * s) * a * b
        + (q * q - s * s) * (r * r - q * q) * c * d
        + (r * r - p * p) * (p * p - s * s) * c * d
    )
    rhs = ((a * b + c * d) * (p * p * q * q - r * r * s * s)).scale(GaussianRational(2))
    report["sum-product-combination"] = (
        ideal_slice_membership(lhs - rhs, [a * c + b * d]) is not None)
    return report


# ---------------------------------------------------------------------------
# generator search for the quantized-enveloping-style presentation
# ---------------------------------------------------------------------------


def uqsl2_generator_search(alpha):
    """Search degree-1 binomials Y+, Y-, K, K' satisfying the four relations

        K Y+ = -i Y+ K,   K Y- = +i Y- K,
        K' Y+ = +i Y+ K', K' Y- = -i Y- K',
        [Y+, Y-] = i (K'^2 - K^2),
        [K, K'] = i alpha (Y+^2 - Y-^2)

    in A(alpha, 1, -1) for alpha in Q(i), via degree-2 normal forms.
    Candidates are all
    x_m + e*x_n with m < n and e in {1, -1, i, -i}; assignments with Y+
    projectively equal to K or K' (or Y- likewise) are reported separately
    as degenerate.  Returns (solutions, degenerate_hits) where a solution
    records the four chosen binomials by (m, n, e) triples.
    """
    al = QQi.coerce(alpha)
    if not al or al == 1 or al == -1:
        raise PreconditionViolated("alpha must avoid {0, 1, -1}")
    quotient = GradedQuotient(sklyanin_relations(al, 1, -1))
    i = QI_I
    x = generators()
    units = (QI_ONE, -QI_ONE, i, -i)
    candidates = []
    for m in range(4):
        for n in range(m + 1, 4):
            for e in units:
                candidates.append(((m, n, e), x[m] + x[n].scale(e)))

    # prune pairwise: braiding pairs (K, Y) with K Y = s i Y K
    braid = {}
    for s, tag in ((-1, "minus"), (1, "plus")):
        si = i if s > 0 else -i
        pairs = []
        for km, kf in candidates:
            for ym, yf in candidates:
                if km == ym:
                    continue
                if quotient.contains(kf * yf - (yf * kf).scale(si)):
                    pairs.append((km, ym))
        braid[tag] = set(pairs)

    solutions = []
    degenerate = []
    for kk, kf in candidates:
        for kpk, kpf in candidates:
            if kk == kpk:
                continue
            for ypk, ypf in candidates:
                if (kk, ypk) not in braid["minus"] or (kpk, ypk) not in braid["plus"]:
                    continue
                for ymk, ymf in candidates:
                    if (kk, ymk) not in braid["plus"] or (kpk, ymk) not in braid["minus"]:
                        continue
                    if ymk == ypk:
                        continue
                    rel3 = commutator(ypf, ymf) - (kpf * kpf - kf * kf).scale(i)
                    if not quotient.contains(rel3):
                        continue
                    rel4 = commutator(kf, kpf) - (ypf * ypf - ymf * ymf).scale(i * al)
                    if not quotient.contains(rel4):
                        continue
                    assignment = {"Y+": ypk, "Y-": ymk, "K": kk, "K'": kpk}
                    if len({ypk, ymk, kk, kpk}) < 4:
                        degenerate.append(assignment)
                    else:
                        solutions.append(assignment)
    return solutions, degenerate

