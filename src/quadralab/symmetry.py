"""Graded automorphisms: the Heisenberg-type generators and their action.

The maps psi_1, psi_2, psi_3 permute-and-scale the generators using the
square roots (a, b, c) of the parameters; together with the scalar i they
generate a group of order 4^3 acting on A(alpha,beta,gamma) whenever
alpha*beta*gamma is nonzero.  The sign involutions gamma_i = psi_i^2 up to
scalar form a Klein four-group that acts for every parameter choice.

Every map here (the psi_i, the gamma_i, sigma and the R(a,b,c,d) map
below) is permute-and-scale, and ``LinearAutomorphism`` is built from,
and holds, its permutation and four scalars: composing, inverting and
acting take O(4) scalar work and never an elimination.  The dense matrix
is built only for a reader that compares matrices.

Points of the twenty-point configuration transform by the inverse
transpose of the generator matrices (the dual-space action); with that
convention psi_1 sends (abc, a, b, c) to (a, -ia, i, 1).

The R(a,b,c,d) side has an order-4 automorphism in the z-basis whose
coefficients live in a fourth-root tower; its defining identities are
verified both numerically and with formal roots.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DegenerateParameters, PreconditionViolated
from .extension import ExtensionField
from .freealg import FreeElement
from .geometry import GAMMA_PATTERNS, ProjectivePoint
from .presentations import (
    CHLParams,
    RelationSpace,
    chl_z_coefficients,
    chl_z_relations,
)
from .scalars import QI_I, QI_ONE, QI_ZERO, PrimeField, QQi


class LinearAutomorphism:
    """A permute-and-scale substitution x_j -> scales[j] * x_{perm[j]}.

    Every map of the group has one nonzero entry per row and column, so
    composing, inverting, powering and moving a point or a word are O(4)
    scalar work.  The constructor takes the permutation of 0..3 and the
    four scalars; a perm that is not a permutation, or a zero scale, is
    refused with DegenerateParameters.  ``matrix`` builds the dense form
    on demand, in apply_linear's convention (column j holds the
    coefficients of the image of generator j).  The scalars must have
    ``inverse()``: Q(i), a root tower or a function field; a
    ``PrimeField``, whose values are plain ints, is refused with
    PreconditionViolated.
    """

    def __init__(self, field, perm, scales, label=""):
        if isinstance(field, PrimeField):
            raise PreconditionViolated(
                f"{label or 'map'} needs scalars with inverse(), not the ints of F_{field.p}")
        scales = tuple(field.coerce(s) for s in scales)
        if sorted(perm) != [0, 1, 2, 3] or len(scales) != 4 or not all(scales):
            raise DegenerateParameters(f"{label or 'map'} is singular")
        self.field, self.perm, self.scales, self.label = field, tuple(perm), scales, label

    @property
    def matrix(self):
        zero = self.field.zero()
        m = [[zero] * 4 for _ in range(4)]
        for j, (r, s) in enumerate(zip(self.perm, self.scales)):
            m[r][j] = s
        return m

    def __call__(self, f: FreeElement) -> FreeElement:
        """The algebra map: each word letter by letter, times its scales."""
        perm, scales = self.perm, self.scales
        out = {}
        for w, c in f.terms.items():
            for letter in w:
                c = c * scales[letter]
            out[tuple(perm[letter] for letter in w)] = c
        return FreeElement(out)

    def compose(self, other: "LinearAutomorphism") -> "LinearAutomorphism":
        """self after other."""
        return LinearAutomorphism(
            self.field,
            tuple(self.perm[k] for k in other.perm),
            tuple(self.scales[k] * s for k, s in zip(other.perm, other.scales)),
            f"{self.label}*{other.label}",
        )

    def inverse(self) -> "LinearAutomorphism":
        perm, scales = [0] * 4, [None] * 4
        for j, (r, s) in enumerate(zip(self.perm, self.scales)):
            perm[r], scales[r] = j, s.inverse()
        return LinearAutomorphism(self.field, perm, scales, f"{self.label}^-1")

    def power(self, n: int) -> "LinearAutomorphism":
        """self composed with itself n >= 0 times."""
        out = LinearAutomorphism(self.field, (0, 1, 2, 3), (self.field.one(),) * 4, "id")
        for _ in range(n):
            out = self.compose(out)
        return out

    @cached_property
    def cofactors(self):
        """prod_{k != j} scales[k] for j = 0..3, formed on first use."""
        s0, s1, s2, s3 = self.scales
        s01, s23 = s0 * s1, s2 * s3
        return (s1 * s23, s0 * s23, s01 * s3, s01 * s2)

    def on_point(self, p: ProjectivePoint) -> ProjectivePoint:
        """Dual action, the inverse transpose: q[perm[j]] = p[j] / scales[j].

        Each coordinate is taken times the product of all four scales,
        q[perm[j]] = p[j] * cofactors[j], which is the same projective
        point and needs no inverse; ``ProjectivePoint`` normalises it once.
        """
        q = [None] * 4
        for j, (r, c) in enumerate(zip(self.perm, self.cofactors)):
            q[r] = p[j] * c
        return ProjectivePoint(q)

    def is_scalar(self):
        """The scalar c with matrix = c*id, or None."""
        c = self.scales[0]
        if self.perm == (0, 1, 2, 3) and all(s == c for s in self.scales):
            return c
        return None

    def __repr__(self):
        return f"LinearAutomorphism({self.label or self.matrix})"


# ---------------------------------------------------------------------------
# the generator tables
# ---------------------------------------------------------------------------


def psi_maps(a, b, c):
    """The three permute-and-scale maps over Q(i) built from the square roots.

    psi_i sends x0 -> a_j a_k x_i, x_i -> -i x0, x_j -> -i a_j x_k,
    x_k -> -a_k x_j for the cyclic (i,j,k).
    """
    a, b, c = (QQi.coerce(v) for v in (a, b, c))
    if not (a and b and c):
        raise DegenerateParameters("square roots a, b, c must be nonzero")
    i = QI_I
    roots = {1: a, 2: b, 3: c}
    out = []
    for idx, (j, k) in zip((1, 2, 3), ((2, 3), (3, 1), (1, 2))):
        # generator -> (image generator, scale)
        images = {0: (idx, roots[j] * roots[k]), idx: (0, -i),
                  j: (k, -i * roots[j]), k: (j, -roots[k])}
        perm, scales = zip(*(images[g] for g in range(4)))
        out.append(LinearAutomorphism(QQi, perm, scales, label=f"psi{idx}"))
    return tuple(out)


def gamma_maps():
    """The three diagonal sign involutions, over Q(i)."""
    return tuple(
        LinearAutomorphism(QQi, (0, 1, 2, 3), [-1 if k in pattern else 1 for k in range(4)],
                           label=f"gamma{idx}")
        for idx, pattern in GAMMA_PATTERNS.items())


def contragredient_table(a, b, c):
    """The dual-basis substitution matrices for psi_1..psi_3, roots in Q(i).

    These coincide exactly with the inverses of the psi matrices, which
    is verified by heisenberg_checks.  (The x1* entry of the third row is
    -b^-1 x2*: an extra factor of i sometimes quoted there fails even up
    to overall scalar.)
    """
    a, b, c = (QQi.coerce(v) for v in (a, b, c))
    i = QI_I
    zero = QI_ZERO
    tables = []
    specs = [
        # psi1*: x0*->i x1*, x1*->(bc)^-1 x0*, x2*->-c^-1 x3*, x3*->i b^-1 x2*
        {(1, 0): i, (0, 1): (b * c).inverse(), (3, 2): -c.inverse(), (2, 3): i / b},
        # psi2*: x0*->i x2*, x1*->i c^-1 x3*, x2*->(ac)^-1 x0*, x3*->-a^-1 x1*
        {(2, 0): i, (3, 1): i / c, (0, 2): (a * c).inverse(), (1, 3): -a.inverse()},
        # psi3*: x0*->i x3*, x1*->-b^-1 x2*, x2*->i a^-1 x1*, x3*->(ab)^-1 x0*
        {(3, 0): i, (2, 1): -b.inverse(), (1, 2): i / a, (0, 3): (a * b).inverse()},
    ]
    for spec in specs:
        m = [[zero] * 4 for _ in range(4)]
        for (r, col), v in spec.items():
            m[r][col] = v
        tables.append(m)
    return tables


# ---------------------------------------------------------------------------
# relation preservation and the scalar criterion
# ---------------------------------------------------------------------------


def preserves_relations(phi: LinearAutomorphism, space: RelationSpace) -> bool:
    """True iff the induced degree-2 map fixes the relation row space."""
    # phi is invertible, so the image rows keep rank 6
    return RelationSpace(space.field, [phi(e) for e in space.elements]).spans_same(space)


def sklyanin_criterion(lambdas, alphas, cyclic) -> bool:
    """The three scalar conditions for a permute-and-scale map to extend.

    l0*li/(lj*lk) = -1, l0*lj/(lk*li) = -alpha_j, l0*lk/(li*lj) = alpha_k,
    with indices read along the cyclic triple; all scalars are in Q(i).
    """
    l0, li, lj, lk = (QQi.coerce(v) for v in lambdas)
    if not (l0 and li and lj and lk):
        raise DegenerateParameters("all four scalars must be nonzero")
    i, j, k = cyclic
    alpha = {1: QQi.coerce(alphas[0]), 2: QQi.coerce(alphas[1]),
             3: QQi.coerce(alphas[2])}
    return (
        l0 * li / (lj * lk) == -QI_ONE
        and l0 * lj / (lk * li) == -alpha[j]
        and l0 * lk / (li * lj) == alpha[k]
    )


# ---------------------------------------------------------------------------
# group-structure report
# ---------------------------------------------------------------------------


def heisenberg_checks(a, b, c) -> dict:
    """Verify the stated group relations among the generator maps.

    The square roots (a, b, c) are in Q(i) and the parameters are
    (a^2, b^2, c^2).  Checks: psi_i psi_{i+1} = i psi_{i+1} psi_i;
    psi_i^2 equals the stated scalar times the matching sign involution;
    the fourth powers of the normalized maps are the identity (computed
    through nu_i^4, no root adjunction needed); the sign involutions
    compose as a Klein four-group; the stated dual-basis matrices are the
    inverses of the psi matrices; and each psi satisfies the scalar
    criterion.  Returns {relation: holds?} in that order.
    """
    a, b, c = (QQi.coerce(v) for v in (a, b, c))
    alphas = (a * a, b * b, c * c)
    report = {}
    psis = psi_maps(a, b, c)
    gammas = gamma_maps()
    i = QI_I

    # each identity f = c g is read as the ratio f g^-1 being the scalar c
    def ratio(f, g):
        return f.compose(g.inverse()).is_scalar()

    # braiding: psi1 psi2 = i psi2 psi1 and cyclic variants
    for (u, v) in ((0, 1), (1, 2), (2, 0)):
        uv, vu = psis[u].compose(psis[v]), psis[v].compose(psis[u])
        report[f"psi{u+1}psi{v+1} = i psi{v+1}psi{u+1}"] = ratio(uv, vu) == i

    # squares: psi1^2 = -i b c gamma1 etc.
    scalars = (-i * b * c, -i * a * c, -i * a * b)
    for t in range(3):
        sq = psis[t].compose(psis[t])
        report[f"psi{t+1}^2 = scalar * gamma{t+1}"] = ratio(sq, gammas[t]) == scalars[t]

    # normalized fourth powers: psi_t^4 equals nu_t^4 times the identity,
    # where a nu1^2 = b nu2^2 = c nu3^2 = -i a b c
    nu_sq = ((-i) * a * b * c / a, (-i) * a * b * c / b, (-i) * a * b * c / c)
    for t in range(3):
        report[f"epsilon{t+1}^4 = identity"] = psis[t].power(4).is_scalar() == nu_sq[t] ** 2

    # Klein four-group of sign involutions
    g12 = gammas[0].compose(gammas[1])
    report["gamma1 gamma2 = gamma3"] = ratio(g12, gammas[2]) == QI_ONE
    for t in range(3):
        report[f"gamma{t+1}^2 = identity"] = gammas[t].compose(gammas[t]).is_scalar() == QI_ONE

    # stated dual-basis matrices are the inverses of the psi matrices
    stated = contragredient_table(a, b, c)
    for t in range(3):
        report[f"dual table {t+1} = psi{t+1}^-1"] = stated[t] == psis[t].inverse().matrix

    # scalar criterion for the psi maps; lambdas listed as (l0, li, lj, lk)
    lambda_sets = (
        ((b * c, -i, -i * b, -c), (1, 2, 3)),
        ((a * c, -i, -i * c, -a), (2, 3, 1)),
        ((a * b, -i, -i * a, -b), (3, 1, 2)),
    )
    for t, (lams, cyc) in enumerate(lambda_sets):
        report[f"scalar criterion psi{t+1}"] = sklyanin_criterion(lams, alphas, cyc)
    return report


# ---------------------------------------------------------------------------
# orbits on point sets
# ---------------------------------------------------------------------------


def orbits(points, maps) -> list:
    """Orbit partition of the points under the group generated by the maps.

    Breadth-first closure with normalized-point equality; maps act on
    points through their dual (inverse-transpose) matrices.  Orbits are
    reported in the order their seeds appear.  The closure uses the maps
    alone: on a finite orbit an injective map's forward images already
    include its inverse images (and the closure ends only on finite orbits).
    """
    gens = list(maps)
    out = []
    seen = set()
    for seed in points:
        if seed in seen:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g.on_point(p)
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        seen |= orbit
        out.append(sorted(orbit, key=lambda p: tuple(str(c) for c in p.coords)))
    return out


def point_action_is_faithful(points, psi1, psi2) -> bool:
    """The 16 projective classes psi1^m psi2^n act by distinct permutations.

    The points must be closed under psi1 and psi2.  The dual action is a
    group action, so psi1^m psi2^n permutes the points as P1^m P2^n, where
    P1 and P2 are the permutations psi1 and psi2 induce: one image of
    each point under each map gives all sixteen.
    """
    pts = list(points)
    index = {p: k for k, p in enumerate(pts)}
    powers = []
    for g in (psi1, psi2):
        perm = tuple(index[g.on_point(p)] for p in pts)
        pw = [tuple(range(len(pts)))]
        for _ in range(3):
            pw.append(tuple(perm[k] for k in pw[-1]))
        powers.append(pw)
    perms = {tuple(p1[k] for k in p2) for p1 in powers[0] for p2 in powers[1]}
    return len(perms) == 16


# ---------------------------------------------------------------------------
# the order-4 automorphism on the R(a,b,c,d) side
# ---------------------------------------------------------------------------


def chl_rho_values(params: CHLParams):
    """(rho2, rho3): the fourth powers of the scaling roots.

    rho2 = mu2*nu2/(kappa2*lambda2) and rho3 = -mu3*nu3/(kappa3*lambda3)
    = -da/(bc).  The sign on rho3 is forced: the map below multiplies the
    third relation pair by tau0*tau3/(tau1*tau2) = -q3^4, and that ratio
    must equal +da/(bc) for the images to be relation multiples.  (A
    sign-free da/(bc) fails: the images then land outside the relation
    row space, which verify() would report.)
    """
    a, b, c, d = params.as_tuple()
    num2 = (a + b - c + d) * (-a + b - c - d)
    den2 = (-a + b + c + d) * (a + b + c - d)
    if not den2:
        raise PreconditionViolated("denominator of rho2 vanishes")
    if not (b * c):
        raise PreconditionViolated("denominator of rho3 vanishes")
    # a root tower needs a nonzero radicand
    if not num2:
        raise PreconditionViolated("rho2 vanishes")
    if not (d * a):
        raise PreconditionViolated("rho3 vanishes")
    return num2 / den2, -(d * a) / (b * c)


class ChlPsi:
    """The z-basis map z0 -> t0 z1, z1 -> t1 z0, z2 -> t2 z3, z3 -> t3 z2
    with t0 = -q2 q3, t1 = 1/(q2 q3), t2 = q2/q3, t3 = q3/q2 for formal
    fourth roots q2, q3 of rho2, rho3."""

    def __init__(self, a, b, c, d, field=QQi):
        a, b, c, d = (field.coerce(v) for v in (a, b, c, d))
        self.params = CHLParams(a, b, c, d)
        self.base_field = field
        rho2, rho3 = chl_rho_values(self.params)
        tower = ExtensionField(ExtensionField(field, "q2", 4, rho2), "q3", 4, rho3)
        self.field = tower
        q2 = tower.coerce(tower.base.root())
        q3 = tower.root()
        self.q2, self.q3 = q2, q3
        t0 = -(q2 * q3)
        t1 = (q2 * q3).inverse()
        t2 = q2 / q3
        t3 = q3 / q2
        self.taus = (t0, t1, t2, t3)
        self.map = LinearAutomorphism(tower, (1, 0, 3, 2), self.taus, label="psi")

    def verify(self) -> dict:
        """Order-4 facts and relation preservation, over the formal tower.

        Relation preservation is certified by the six scalar identities
        expressing each transformed relation as a multiple of a relation:
        with c_i, a_i the z-basis relation elements,

            psi(c1) =  t2 t3 c1            psi(a1) = -t2 t3 a1
            psi(c2) = -(mu2/lam2) t3 t1 a2  psi(a2) = (nu2/kap2) t3 t1 c2
            psi(c3) = -(mu3/lam3) t1 t2 a3  psi(a3) = -(nu3/kap3) t1 t2 c3
        """
        tower = self.field
        t0, t1, t2, t3 = self.taus
        out = {}
        sq = self.map.compose(self.map)
        out["psi^2(z0) = -z0"] = sq.perm[0] == 0 and sq.scales[0] == tower.coerce(-1)
        out["psi^4 = identity"] = self.map.power(4).is_scalar() == tower.one()
        out["tau0 tau1 = -1"] = t0 * t1 == tower.coerce(-1)
        out["tau2 tau3 = 1"] = t2 * t3 == tower.one()

        space = chl_z_relations(*self.params.as_tuple(), field=self.base_field,
                                verify=False)
        lifted = [
            FreeElement({w: tower.coerce(v) for w, v in e.terms.items()})
            for e in space.elements
        ]
        c_rel = {1: lifted[0], 2: lifted[2], 3: lifted[4]}
        a_rel = {1: lifted[1], 2: lifted[3], 3: lifted[5]}
        coeffs = chl_z_coefficients(self.params)
        (k1, m1, l1, n1), (k2, m2, l2, n2), (k3, m3, l3, n3) = coeffs
        expectations = [
            ("psi(c1)", c_rel[1], c_rel[1].scale(t2 * t3)),
            ("psi(a1)", a_rel[1], a_rel[1].scale(-(t2 * t3))),
            ("psi(c2)", c_rel[2], a_rel[2].scale(-(tower.coerce(m2 / l2)) * t3 * t1)),
            ("psi(a2)", a_rel[2], c_rel[2].scale(tower.coerce(n2 / k2) * t3 * t1)),
            ("psi(c3)", c_rel[3], a_rel[3].scale(-(tower.coerce(m3 / l3)) * t1 * t2)),
            ("psi(a3)", a_rel[3], c_rel[3].scale(-(tower.coerce(n3 / k3)) * t1 * t2)),
        ]
        for name, source, expected in expectations:
            image = self.map(source)
            out[f"{name} is the stated relation multiple"] = image == expected
        return out
