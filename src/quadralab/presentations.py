"""Relation spaces of the two quadratic-algebra families and their invariants.

``A(alpha, beta, gamma)`` is generated by x0..x3 with six relations

    [x0, xi] = alpha_i {xj, xk},    {x0, xi} = [xj, xk]

for cyclic (i,j,k) of (1,2,3).  ``R(a, b, c, d)`` is generated by x1..x4
with the six relations (R1)-(R6); in the half-sum basis z0..z3 those become
six bracket relations of the same shape with coefficients linear in
a, b, c, d.  Everything here is a statement about the 6-dimensional row
space inside the 16-dimensional degree-2 component.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import (
    DegenerateParameters,
    DegeneratePresentation,
    NoUniqueSolution,
    PreconditionViolated,
)
from .extension import ExtensionField
from .freealg import (
    FreeElement,
    anticommutator,
    apply_linear,
    commutator,
    generators,
)
from .linalg import SparseEchelon
from .scalars import QI_I, QQi

#: substitution x1,x2,x3,x4 -> z-basis: x1=z1+z2, x2=z0+z3, x3=z1-z2, x4=z0-z3
def x_to_z_matrix(field=QQi):
    one = field.one()
    zero = field.zero()
    m = [[zero] * 4 for _ in range(4)]
    m[1][0] = one
    m[2][0] = one
    m[0][1] = one
    m[3][1] = one
    m[1][2] = one
    m[2][2] = -one
    m[0][3] = one
    m[3][3] = -one
    return m


class RelationSpace:
    """Six degree-2 relations stored as sparse rows over the word basis.

    Rank 6 is checked on construction with the exact backend; degenerate
    parameter choices raise DegeneratePresentation naming the collapsed
    rows.
    """

    def __init__(self, field, elements, label="", row_names=None):
        if len(elements) != 6:
            raise ValueError(f"expected 6 relations, got {len(elements)}")
        self.field = field
        self.elements = list(elements)
        self.label = label
        self.row_names = list(row_names) if row_names else [f"r{k+1}" for k in range(6)]
        self.rows = [e.coefficient_vector(2) for e in self.elements]
        ech = SparseEchelon(field)
        collapsed = []
        for name, row in zip(self.row_names, self.rows):
            if ech.insert(row) is None:
                collapsed.append(name)
        self.echelon = ech
        if ech.rank < 6:
            raise DegeneratePresentation(ech.rank, collapsed, label)

    def spans_same(self, other: "RelationSpace") -> bool:
        # both spaces have rank 6 by construction, so one inclusion is enough
        return all(self.echelon.contains(r) for r in other.rows)

    def transformed(self, matrix, label="") -> "RelationSpace":
        """Apply a generator substitution to every relation."""
        images = [apply_linear(matrix, e) for e in self.elements]
        return RelationSpace(
            self.field,
            images,
            label=label or f"{self.label}<transformed>",
            row_names=self.row_names,
        )

    def __repr__(self):
        return f"RelationSpace({self.label or 'anonymous'})"


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CHLParams:
    a: object
    b: object
    c: object
    d: object

    def __post_init__(self):
        if not (self.a or self.b or self.c or self.d):
            raise DegenerateParameters("(a,b,c,d) must be a nonzero 4-tuple")

    @property
    def p(self):
        return self.a + self.b

    @property
    def q(self):
        return self.a - self.b

    @property
    def r(self):
        return self.c + self.d

    @property
    def s(self):
        return self.c - self.d

    @property
    def quadric_value(self):
        return self.a * self.c + self.b * self.d

    @property
    def on_quadric(self) -> bool:
        return not self.quadric_value

    def genericity_factors(self):
        """The twelve factors whose product is the genericity condition."""
        p, q, r, s = self.p, self.q, self.r, self.s
        return [
            ("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d),
            ("p+r", p + r), ("p-r", p - r), ("p+s", p + s), ("p-s", p - s),
            ("q+r", q + r), ("q-r", q - r), ("q+s", q + s), ("q-s", q - s),
        ]

    def vanishing_factors(self):
        return [name for name, value in self.genericity_factors() if not value]

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


# ---------------------------------------------------------------------------
# the two presentations
# ---------------------------------------------------------------------------

CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def sklyanin_elements(alphas, field):
    """({i: c_i}, {i: a_i}) with c_i = [x0,xi] - alpha_i{xj,xk}, a_i = {x0,xi} - [xj,xk].

    alphas are (alpha_1, alpha_2, alpha_3), already in field.
    """
    x = generators(field)
    c, a = {}, {}
    for (i, j, k), lam in zip(CYCLIC, alphas):
        c[i] = commutator(x[0], x[i]) - anticommutator(x[j], x[k]).scale(lam)
        a[i] = anticommutator(x[0], x[i]) - commutator(x[j], x[k])
    return c, a


def sklyanin_relations(alpha, beta, gamma, field=QQi) -> RelationSpace:
    """Rows c1,a1,c2,a2,c3,a3 of ``sklyanin_elements``."""
    alphas = [field.coerce(v) for v in (alpha, beta, gamma)]
    c, a = sklyanin_elements(alphas, field)
    return RelationSpace(
        field,
        [e for i in (1, 2, 3) for e in (c[i], a[i])],
        label=f"A({alphas[0]},{alphas[1]},{alphas[2]})",
        row_names=[f"{kind}{i}" for i in (1, 2, 3) for kind in "ca"],
    )


def chl_relations(a, b, c, d, field=QQi) -> RelationSpace:
    """The six relations (R1)-(R6) on generators x1..x4 (indices 0..3)."""
    a, b, c, d = (field.coerce(v) for v in (a, b, c, d))
    CHLParams(a, b, c, d)  # refuses a zero tuple
    x1, x2, x3, x4 = generators(field)
    elements = [
        x4 * x3 * a + x3 * x4 * b + x3 * x2 * c + x4 * x1 * d,
        x3 * x2 * a + x2 * x3 * b + x4 * x3 * c + x1 * x2 * d,
        x2 * x1 * a + x1 * x2 * b + x1 * x4 * c + x2 * x3 * d,
        x1 * x4 * a + x4 * x1 * b + x2 * x1 * c + x3 * x4 * d,
        (x3 * x1 - x1 * x3) * a + (x4 * x4 - x2 * x2) * c,
        (x4 * x2 - x2 * x4) * b + (x3 * x3 - x1 * x1) * d,
    ]
    return RelationSpace(
        field,
        elements,
        label=f"R({a},{b},{c},{d})",
        row_names=[f"R{k}" for k in range(1, 7)],
    )


def chl_z_coefficients(params: CHLParams):
    """(kappa_i, mu_i, lambda_i, nu_i) for the z-basis relations, i = 1,2,3.

    Row shapes: c_i = kappa_i[z0,zi] - mu_i{zj,zk},
                a_i = lambda_i{z0,zi} - nu_i[zj,zk].
    """
    a, b, c, d = params.as_tuple()
    return (
        (a - b - c + d, -a - b + c + d, a + b + c + d, a - b + c - d),
        (-a + b + c + d, a + b - c + d, a + b + c - d, -a + b - c - d),
        (b, d, c, a),
    )


def chl_z_relations(a, b, c, d, field=QQi, verify=True) -> RelationSpace:
    """The z-basis presentation of R(a,b,c,d).

    With verify=True the row space is checked equal to the image of the
    (R1)-(R6) rows under the substitution x1=z1+z2, x2=z0+z3, x3=z1-z2,
    x4=z0-z3.
    """
    a, b, c, d = (field.coerce(v) for v in (a, b, c, d))
    params = CHLParams(a, b, c, d)
    z = generators(field)
    elements = []
    names = []
    for (i, j, k), (kap, mu, lam, nu) in zip(CYCLIC, chl_z_coefficients(params)):
        elements.append(
            commutator(z[0], z[i]).scale(kap) - anticommutator(z[j], z[k]).scale(mu)
        )
        names.append(f"c{i}")
        elements.append(
            anticommutator(z[0], z[i]).scale(lam) - commutator(z[j], z[k]).scale(nu)
        )
        names.append(f"a{i}")
    space = RelationSpace(
        field,
        elements,
        label=f"Rz({a},{b},{c},{d})",
        row_names=names,
    )
    if verify:
        x_space = chl_relations(a, b, c, d, field)
        image = x_space.transformed(x_to_z_matrix(field), label="R->z image")
        if not space.spans_same(image):
            raise AssertionError(
                "z-basis relations do not span the substituted (R1)-(R6) rows"
            )
    return space


# ---------------------------------------------------------------------------
# parameter correspondence and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SklyaninCorrespondence:
    alpha: object
    beta: object
    gamma: object
    mu: tuple
    nu: tuple
    pqrs: tuple

    @property
    def sigma_pi(self):
        prod = self.alpha * self.beta * self.gamma
        return self.alpha + self.beta + self.gamma + prod

    @property
    def beta_presented(self):
        """The second parameter of the presentation the algebra satisfies.

        The quoted ratio formula for beta and the relation rows disagree
        by one sign (the anticommutator relation in the second family
        carries -(q+r)/(p+s), not +(q+r)/(p+s)); the row space actually
        rewrites, through the scaled basis, onto the relations of
        A(alpha, -beta, gamma).  Both values are exposed: ``beta`` is the
        quoted formula, this property the machine-verified one.
        """
        return -self.beta

    @property
    def presented_triple(self):
        return (self.alpha, self.beta_presented, self.gamma)

    @property
    def sigma_pi_presented(self):
        al, be, ga = self.presented_triple
        return al + be + ga + al * be * ga


def chl_to_sklyanin_params(a, b, c, d) -> SklyaninCorrespondence:
    """Map a generic quadric point (a,b,c,d) of Q(i)^4 to its (alpha,beta,gamma).

    alpha = (r^2-p^2)/(q^2-s^2), beta = (p^2-s^2)/(r^2-q^2), gamma = cd/ab,
    with p=a+b, q=a-b, r=c+d, s=c-d, plus the scaling data mu_i, nu_i.
    See ``SklyaninCorrespondence.beta_presented`` for the sign caveat on
    the second parameter.
    """
    a, b, c, d = (QQi.coerce(v) for v in (a, b, c, d))
    params = CHLParams(a, b, c, d)
    if not params.on_quadric:
        raise PreconditionViolated(f"ac+bd = {params.quadric_value} != 0")
    vanishing = params.vanishing_factors()
    if vanishing:
        raise PreconditionViolated(", ".join(f"{name} = 0" for name in vanishing))
    p, q, r, s = params.p, params.q, params.r, params.s
    alpha = (r * r - p * p) / (q * q - s * s)
    beta = (p * p - s * s) / (r * r - q * q)
    gamma = (c * d) / (a * b)
    mu = ((r - p) / (q - s), (p - s) / (r - q), d / b)
    nu = ((q + s) / (p + r), (q + r) / (p + s), a / c)
    for t in range(3):
        expected = (alpha, beta, gamma)[t]
        if mu[t] / nu[t] != expected:
            raise AssertionError(f"mu_{t+1}/nu_{t+1} does not reproduce parameter {t+1}")
    return SklyaninCorrespondence(alpha, beta, gamma, mu, nu, (p, q, r, s))


def scaled_basis_matches_sklyanin_form(a, b, c, d) -> bool:
    """Rewrite the z-relations in the nu-scaled basis and compare row spaces.

    For a generic quadric point (a,b,c,d) of Q(i)^4, the relation rows
    give {z0,zi} = nu_i'[zj,zk] with nu_2' equal to
    MINUS the quoted (q+r)/(p+s) ratio (and nu_1', nu_3' equal to the
    quoted values); the scaled basis therefore uses the row-derived
    values.  With v0 = z0, vi = s_i z_i for square roots
    s1^2 = nu2'*nu3', s2^2 = nu3'*nu1' and the coherent choice
    s3 = s1*s2/nu3', the row space of R(a,b,c,d) becomes exactly that of
    A(alpha, beta_presented, gamma).  Formal square roots are adjoined
    when the products are not squares.
    """
    corr = chl_to_sklyanin_params(a, b, c, d)
    nu1, nu2, nu3 = corr.nu[0], -corr.nu[1], corr.nu[2]
    tower = ExtensionField(ExtensionField(QQi, "s1", 2, nu2 * nu3), "s2", 2, nu3 * nu1)
    s1 = tower.coerce(tower.base.root())
    s2 = tower.root()
    s3 = s1 * s2 / tower.coerce(nu3)
    z_space = chl_z_relations(a, b, c, d, verify=False)
    lifted = [
        FreeElement({w: tower.coerce(v) for w, v in e.terms.items()})
        for e in z_space.elements
    ]
    # substitute z1 -> v1/s1 etc.; the v-letters reuse the same indices
    zero = tower.zero()
    m = [[zero] * 4 for _ in range(4)]
    m[0][0] = tower.one()
    m[1][1] = s1.inverse()
    m[2][2] = s2.inverse()
    m[3][3] = s3.inverse()
    rewritten = [apply_linear(m, e) for e in lifted]
    target = sklyanin_relations(
        tower.coerce(corr.alpha),
        tower.coerce(corr.beta_presented),
        tower.coerce(corr.gamma),
        field=tower,
    )
    # the substitution is invertible, so the rewritten rows keep rank 6
    return RelationSpace(tower, rewritten).spans_same(target)


#: the twelve parameter points on the two special lines where the
#: genericity product vanishes (six per line)
EXCLUDED_L1 = (
    (0, "i", 1, 0),
    (1, 0, 0, "i"),
    (1, "-i", -1, "i"),
    (1, "i", 1, "i"),
    (1, -1, "i", "i"),
    (1, 1, "-i", "i"),
)
EXCLUDED_L2 = (
    (0, "-i", 1, 0),
    (1, 0, 0, "-i"),
    (1, "i", -1, "-i"),
    (1, "-i", 1, "-i"),
    (1, -1, "-i", "-i"),
    (1, 1, "i", "-i"),
)


@dataclass(frozen=True)
class Classification:
    locus: str                      # off-quadric | degenerate | generic | l1 | l2
    excluded: bool = False
    special_alpha: object = None    # the alpha of A(alpha,1,-1) on l1/l2
    correspondence: SklyaninCorrespondence = None
    vanishing: tuple = ()


def classify_chl(a, b, c, d) -> Classification:
    """Place a Q(i) point (a,b,c,d) on the quadric, the lines l1/l2, or neither."""
    a, b, c, d = (QQi.coerce(v) for v in (a, b, c, d))
    params = CHLParams(a, b, c, d)
    if not params.on_quadric:
        return Classification("off-quadric")
    i = QI_I
    on_l1 = not (a + i * d) and not (c + i * b)
    on_l2 = not (a - i * d) and not (c - i * b)
    vanishing = tuple(params.vanishing_factors())
    corr = None
    if not vanishing:
        corr = chl_to_sklyanin_params(a, b, c, d)
    if on_l1 or on_l2:
        locus = "l1" if on_l1 else "l2"
        u = b + d + i * b - i * d
        v = b + d - i * b + i * d
        if locus == "l2":
            u, v = v, u
        return Classification(
            locus,
            excluded=bool(vanishing),
            special_alpha=(u * u) / (v * v) if v else None,
            correspondence=corr,
            vanishing=vanishing,
        )
    if vanishing:
        return Classification("degenerate", vanishing=vanishing)
    return Classification("generic", correspondence=corr)


# ---------------------------------------------------------------------------
# isomorphism invariants
# ---------------------------------------------------------------------------


def _solve_scalar(field, r_base: dict, r_w: dict):
    """The unique t with base - t*weighted in the row space, from their residuals."""
    if not r_w:
        raise NoUniqueSolution(
            "underdetermined" if not r_base else "inconsistent: no scalar works"
        )
    if not r_base:
        return field.zero()
    col, wval = next(iter(r_w.items()))
    num = r_base.get(col)
    if num is None:
        raise NoUniqueSolution("inconsistent: residuals are not proportional")
    # confirm proportionality on every coordinate before dividing
    for cc in set(r_base) | set(r_w):
        lhs = r_base.get(cc)
        rhs = r_w.get(cc)
        if (lhs is None) != (rhs is None):
            raise NoUniqueSolution("inconsistent: residuals are not proportional")
        if lhs is not None and lhs * wval != rhs * num:
            raise NoUniqueSolution("inconsistent: residuals are not proportional")
    return num / wval


#: the six index pairs u < v, each followed by its complementary pair
PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))


def angle_invariant(space: RelationSpace) -> dict:
    """{perm: (mu1*nu1, mu2*nu2, mu3*nu3)} for all 24 generator permutations.

    For the permutation (p,q,r,s) the six scalars are defined by requiring

        [xp,xq] - mu1 {xr,xs},   nu1 {xp,xq} - [xr,xs],
        [xp,xr] - mu2 {xs,xq},   nu2 {xp,xr} - [xs,xq],
        [xp,xs] - mu3 {xq,xr},   nu3 {xp,xs} - [xq,xr]

    to lie in the relation row space.  Every one of them is a signed
    pair scalar: for u < v with complementary pair {w, t}, mu_uv is the
    unique scalar with [xu,xv] - mu_uv {xw,xt} in the row space, and
    m(u,v) = mu_uv, m(v,u) = -mu_uv, since [xv,xu] = -[xu,xv] and
    {xw,xt} = {xt,xw}.  Then mu1 = m(p,q) and nu1 = m(r,s), so the triple
    of (p,q,r,s) is

        (m(p,q) m(r,s), m(p,r) m(s,q), m(p,s) m(q,r)).

    The six commutators and six anticommutators are reduced once each
    and the six mu_uv solved once; NoUniqueSolution is raised when one of
    them is not unique, which leaves every permutation without a triple.
    """
    field = space.field
    one = field.one()
    reduce = space.echelon.reduce
    # 4u + v is the index of the word xu xv
    com = {(u, v): reduce({4 * u + v: one, 4 * v + u: -one}) for u, v in PAIRS}
    anti = {(u, v): reduce({4 * u + v: one, 4 * v + u: one}) for u, v in PAIRS}
    # PAIRS[k ^ 1] is the complement of PAIRS[k]
    mu = {uv: _solve_scalar(field, com[uv], anti[PAIRS[k ^ 1]])
          for k, uv in enumerate(PAIRS)}

    def m(u, v):
        return mu[u, v] if u < v else -mu[v, u]

    return {
        (p, q, r, s): (m(p, q) * m(r, s), m(p, r) * m(s, q), m(p, s) * m(q, r))
        for p, q, r, s in permutations(range(4))
    }


def invariant_table(alpha, beta, gamma):
    """Expected invariant triple for all 24 generator permutations.

    Seeds one representative per rotation orbit and closes under the rule
    <p,r,s,q> = (l2, l3, l1).  The seed values were derived by solving the
    six defining memberships by hand; note that the four seeds in the
    second group are cyclic shifts of one another, not a single shared
    value.
    """
    seeds = {
        (0, 1, 2, 3): (alpha, beta, gamma),
        (1, 0, 3, 2): (alpha, beta, gamma),
        (2, 3, 0, 1): (alpha, beta, gamma),
        (3, 2, 1, 0): (alpha, beta, gamma),
        (0, 1, 3, 2): (-alpha, -gamma, -beta),
        (1, 2, 3, 0): (-gamma, -beta, -alpha),
        (2, 1, 0, 3): (-gamma, -beta, -alpha),
        (3, 1, 2, 0): (-beta, -alpha, -gamma),
    }
    table = dict(seeds)
    frontier = list(seeds.items())
    while frontier:
        (p, q, r, s), (l1, l2, l3) = frontier.pop()
        rotated = ((p, r, s, q), (l2, l3, l1))
        if rotated[0] not in table:
            table[rotated[0]] = rotated[1]
            frontier.append(rotated)
        elif table[rotated[0]] != rotated[1]:
            raise AssertionError(f"inconsistent invariant table at {rotated[0]}")
    if len(table) != 24:
        raise AssertionError(f"invariant table covers {len(table)} != 24 permutations")
    return table


# ---------------------------------------------------------------------------
# commutative quotient, degree 2
# ---------------------------------------------------------------------------

SYM_BASIS = tuple((i, j) for i in range(4) for j in range(i, 4))
SYM_INDEX = {pair: k for k, pair in enumerate(SYM_BASIS)}


def symmetrize_row(row: dict) -> dict:
    """Image of a degree-2 coefficient row under xi (x) xj -> xi v xj."""
    out = {}
    for idx, coeff in row.items():
        i, j = divmod(idx, 4)
        key = SYM_INDEX[(min(i, j), max(i, j))]
        s = out.get(key)
        s = coeff if s is None else s + coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def commutative_quotient_deg2(space: RelationSpace):
    """(dimension, pivot monomial pairs) of the symmetrized relation image.

    The image lies in the 10-dim symmetric square; the pivots are the
    lex-first ones of its echelon basis.
    """
    ech = SparseEchelon(space.field)
    for row in space.rows:
        ech.insert(symmetrize_row(row))
    return ech.rank, [SYM_BASIS[c] for c in ech.pivots()]
