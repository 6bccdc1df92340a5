"""The zero locus of the relations in P^3 x P^3.

The six relations of A(alpha,beta,gamma), read as (1,1)-forms, cut out a
subscheme of P^3 x P^3.  Its first projection is the vanishing locus of
the fifteen 4x4 minors of a 6x4 matrix M of linear forms (M x^T = 0
reproduces the relations); the second projection likewise comes from a
4x6 matrix M'.  When alpha*beta*gamma and the quantity
alpha+beta+gamma+alpha*beta*gamma are both nonzero, the locus is twenty
distinct points forming the graph of an explicit bijection, and this
module verifies every piece of that picture by exact evaluation.

``maximal_minors`` builds the fifteen minors of a 6x4 matrix (M, or M'
transposed) by Laplace expansion over shared 2x2 minors.  At the twenty
points the minors are not evaluated one by one: at a graph pair (p, p'),
M(p) p'^T = 0 puts p' in the kernel of M(p), so its rank is at most 3 and
all of them vanish at p (likewise M'(p')^T p^T = 0 at p').  Both products
are dot products of relation rows with the pair's evaluation row.

Square roots (a, b, c) of the parameters are explicit inputs throughout,
so the twenty-point table stays inside Q(i) for rational fixtures.
"""

from __future__ import annotations

from math import lcm

from .errors import DegenerateParameters, PreconditionViolated
from .linalg import SparseEchelon
from .poly import (
    MultiPoly,
    PolyRing,
    det4,
    ideal_slice_membership,
    proportionality_scalar,
)
from .presentations import sklyanin_relations
from .scalars import QI_I, QI_ONE, QI_ZERO, QQi

X_VARS = ("x0", "x1", "x2", "x3")
PARAM_VARS = ("alpha", "beta", "gamma")


def x_ring() -> PolyRing:
    return PolyRing(X_VARS)


def symbolic_ring() -> PolyRing:
    return PolyRing(PARAM_VARS + X_VARS)


def matrix_m(alpha, beta, gamma, ring):
    """The 6x4 matrix of linear forms with M x^T = 0 in the algebra."""
    al, be, ga = (ring.coerce(v) for v in (alpha, beta, gamma))
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    return [
        [-x1, x0, -al * x3, -al * x2],
        [-x2, -be * x3, x0, -be * x1],
        [-x3, -ga * x2, -ga * x1, x0],
        [-x3, -x2, x1, -x0],
        [-x1, -x0, -x3, x2],
        [-x2, x3, -x0, -x1],
    ]


def matrix_m_prime(alpha, beta, gamma, ring):
    """The 4x6 matrix of linear forms with x M' = 0 in the algebra."""
    al, be, ga = (ring.coerce(v) for v in (alpha, beta, gamma))
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    return [
        [-x1, -x2, -x3, -x3, -x1, -x2],
        [x0, be * x3, ga * x2, x2, -x0, -x3],
        [al * x3, x0, ga * x1, -x1, x3, -x0],
        [al * x2, be * x1, x0, -x0, -x2, x1],
    ]


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _linear_letter(exp, ring):
    letters = [k for k, e in enumerate(exp) if e]
    if len(letters) != 1 or exp[letters[0]] != 1:
        raise ValueError("matrix entries must be linear forms in x0..x3")
    name = ring.variables[letters[0]]
    return X_VARS.index(name)


def _linear_coefficients(matrix, ring):
    """Each entry of a matrix of linear forms as its (letter, coefficient) pairs."""
    return [[[(_linear_letter(e, ring), c) for e, c in entry.terms.items()]
             for entry in row] for row in matrix]


def _matrix_rows(alpha, beta, gamma):
    """M and M' transposed as linear coefficients and as relation rows.

    Returns ((m, m_rows), (mpt, mp_rows)): m and mpt hold each entry's
    (letter, coefficient) pairs, and m_rows[i] is row i of M x^T, mp_rows[i]
    column i of x M', as relation rows.  A relation row is indexed
    4 * (left letter) + (right letter); the entries of M stand left of x_j,
    those of M' right of x_j.
    """
    ring = x_ring()
    m = _linear_coefficients(matrix_m(alpha, beta, gamma, ring), ring)
    mpt = _linear_coefficients(_transpose(matrix_m_prime(alpha, beta, gamma, ring)), ring)
    m_rows = [{k * 4 + j: c for j, entry in enumerate(row) for k, c in entry} for row in m]
    mp_rows = [{j * 4 + k: c for j, entry in enumerate(row) for k, c in entry} for row in mpt]
    return (m, m_rows), (mpt, mp_rows)


def verify_matrix_consistency(alpha, beta, gamma) -> dict:
    """Check both matrix encodings against the relation rows.

    Each row of M x^T is a signed relation row (the order mixes the
    commutator-type and anticommutator-type relations), and the six rows
    match six distinct relations, so the row spaces agree exactly; same
    for x M'.
    """
    space = sklyanin_relations(alpha, beta, gamma)
    (_, m_rows), (_, mp_rows) = _matrix_rows(alpha, beta, gamma)
    report = {"m_matches": [], "m_prime_matches": []}
    for label, rows, key in (("M", m_rows, "m_matches"),
                             ("M'", mp_rows, "m_prime_matches")):
        for i, row in enumerate(rows):
            match = None
            for j, rel in enumerate(space.rows):
                for sign in (1, -1):
                    if row == {c: v * sign for c, v in rel.items()}:
                        match = (space.row_names[j], sign)
                        break
                if match:
                    break
            if match is None:
                raise AssertionError(f"{label} row {i+1} is not a signed relation row")
            report[key].append(match)
        if len({name for name, _ in report[key]}) != 6:
            raise AssertionError(f"{label} rows do not span the relation space")
    return report


# ---------------------------------------------------------------------------
# minors and their factorizations
# ---------------------------------------------------------------------------

MINOR_PAIRS = tuple(
    (i, j) for i in range(1, 7) for j in range(i + 1, 7)
)


def maximal_minors(rows) -> dict:
    """The fifteen 4x4 minors of a 6x4 matrix, keyed by the deleted rows.

    ``{(i, j): minor}`` over ``MINOR_PAIRS``, where the minor keeps the
    rows other than i<j (1-based).  Each is the Laplace expansion along the
    column blocks (0, 1) | (2, 3): a signed sum over the six ways to split
    its four rows into two pairs, of (left 2x2 minor) * (right 2x2 minor).
    The 2 x 15 two-by-two minors are shared, each computed once.  Entries
    may be any ring elements with +, -, * (polynomials or scalars); the
    minors of a 4x6 matrix are those of its transpose.
    """
    if len(rows) != 6 or any(len(r) != 4 for r in rows):
        raise ValueError("expected a 6x4 matrix")
    left, right = {}, {}
    for r in range(6):
        a = rows[r]
        for s in range(r + 1, 6):
            b = rows[s]
            left[r, s] = a[0] * b[1] - a[1] * b[0]
            right[r, s] = a[2] * b[3] - a[3] * b[2]
    out = {}
    for i, j in MINOR_PAIRS:
        k0, k1, k2, k3 = (k for k in range(6) if k + 1 not in (i, j))
        # the pair at positions u < v of the four takes columns (0, 1),
        # with sign (-1)^(u + v + 1)
        out[i, j] = (
            left[k0, k1] * right[k2, k3]
            - left[k0, k2] * right[k1, k3]
            + left[k0, k3] * right[k1, k2]
            + left[k1, k2] * right[k0, k3]
            - left[k1, k3] * right[k0, k2]
            + left[k2, k3] * right[k0, k1]
        )
    return out


def mirror_x0(poly: MultiPoly) -> MultiPoly:
    """poly(-x0, x1, x2, x3): the terms of odd degree in x0 change sign."""
    k = poly.ring.variables.index("x0")
    return MultiPoly(poly.ring, {e: -c if e[k] % 2 else c for e, c in poly.terms.items()})


def quadrics(alpha, beta, gamma, ring):
    """The four quadrics q, q1, q2, q3 attached to the parameters."""
    al, be, ga = (ring.coerce(v) for v in (alpha, beta, gamma))
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    sq = [x0 * x0, x1 * x1, x2 * x2, x3 * x3]
    q = sq[0] + sq[1] + sq[2] + sq[3]
    q1 = sq[0] - be * ga * sq[1] - ga * sq[2] + be * sq[3]
    q2 = sq[0] + ga * sq[1] - al * ga * sq[2] - al * sq[3]
    q3 = sq[0] - be * sq[1] + al * sq[2] - al * be * sq[3]
    return q, q1, q2, q3


def quadric_determinant(alpha, beta, gamma):
    """det of the 4x4 coefficient matrix of (q, q1, q2, q3).

    Works for numeric or symbolic parameters; equals the negative square
    of alpha+beta+gamma+alpha*beta*gamma.
    """
    field = next((v.ring for v in (alpha, beta, gamma) if isinstance(v, MultiPoly)), QQi)
    al, be, ga = (field.coerce(v) for v in (alpha, beta, gamma))
    one = field.one()
    rows = [
        [one, one, one, one],
        [one, -be * ga, -ga, be],
        [one, ga, -al * ga, -al],
        [one, -be, al, -al * be],
    ]
    return det4(rows)


def stated_minor_forms(alpha, beta, gamma, ring):
    """The stated factored form of each minor of M, keyed by its pair.

    Twelve minors are a bilinear factor times one of q, q1, q2, q3.  The
    three square-type pairs (3,4), (2,6), (1,5) map to two forms of the
    same minor: (form in the squares, combination of q with q3, q2, q1).
    """
    al, be, ga = (ring.coerce(v) for v in (alpha, beta, gamma))
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    s0, s1, s2, s3 = x0 * x0, x1 * x1, x2 * x2, x3 * x3
    q, q1, q2, q3 = quadrics(al, be, ga, ring)
    return {
        (2, 3): (x0 * x1 - al * x2 * x3) * q,
        (4, 6): (x0 * x1 + al * x2 * x3) * q1,
        (2, 4): (x0 * x1 - x2 * x3) * q2,
        (3, 6): (x0 * x1 + x2 * x3) * q3,
        (1, 3): (x0 * x2 - be * x1 * x3) * q,
        (1, 4): (x0 * x2 + x1 * x3) * q1,
        (4, 5): (x0 * x2 + be * x1 * x3) * q2,
        (3, 5): (x0 * x2 - x1 * x3) * q3,
        (1, 2): (x0 * x3 - ga * x1 * x2) * q,
        (1, 6): (x0 * x3 - x1 * x2) * q1,
        (2, 5): (x0 * x3 + x1 * x2) * q2,
        (5, 6): (x0 * x3 + ga * x1 * x2) * q3,
        (3, 4): ((al * be * s3 - s0) * (s1 + s2) + (al * s2 - be * s1) * (s0 + s3),
                 (al * be * s3 - s0) * q + (s0 + s3) * q3),
        (2, 6): ((al * ga * s2 - s0) * (s1 + s3) + (ga * s1 - al * s3) * (s0 + s2),
                 (al * ga * s2 - s0) * q + (s0 + s2) * q2),
        (1, 5): ((be * ga * s1 - s0) * (s2 + s3) + (be * s3 - ga * s2) * (s0 + s1),
                 (be * ga * s1 - s0) * q + (s0 + s1) * q1),
    }


def minor_factorization_report(alpha=None, beta=None, gamma=None):
    """Verify all fifteen stated minor factorizations up to nonzero scalars.

    With no parameters the check runs over Q(i)[alpha,beta,gamma,x0..x3],
    so it holds for every parameter value; with all three given it runs
    over Q(i)[x0..x3] at that point.  The report lists the computed
    proportionality scalar for each pair, the agreement of the two stated
    forms for the three square-type minors, and the mirror identity
    g_ij(x) ~ h_ij(-x0,x1,x2,x3).
    """
    if alpha is None and beta is None and gamma is None:
        ring = symbolic_ring()
        al, be, ga = (ring.gen(v) for v in PARAM_VARS)
    else:
        ring = x_ring()
        al, be, ga = alpha, beta, gamma
    hs = maximal_minors(matrix_m(al, be, ga, ring))
    gs = maximal_minors(_transpose(matrix_m_prime(al, be, ga, ring)))
    forms = stated_minor_forms(al, be, ga, ring)
    report = {}
    for pair in MINOR_PAIRS:
        h, g = hs[pair], gs[pair]
        stated, q_form = forms[pair], None
        if isinstance(stated, tuple):
            stated, q_form = stated
        scalar = proportionality_scalar(h, stated, X_VARS)
        if scalar is None or not scalar.num:
            raise AssertionError(f"minor {pair}: stated factorization fails")
        entry = {"scalar": scalar}
        if q_form is not None:
            if q_form != stated:
                raise AssertionError(f"minor {pair}: the two stated forms differ")
            entry["q_form_matches"] = True
        mirror_scalar = proportionality_scalar(g, mirror_x0(h), X_VARS)
        if mirror_scalar is None or not mirror_scalar.num:
            raise AssertionError(f"minor {pair}: g vs h(-x0) mirror fails")
        entry["mirror_scalar"] = mirror_scalar
        report[pair] = entry
    return report


def minors_vanish_on_common_quadric_locus(alpha, beta, gamma) -> None:
    """When the parameter sum vanishes, every minor lies in (q, q1).

    Checked by slice membership of each 4x4 minor in the degree-4 part of
    the ideal generated by q and q1, whose certificates re-expand.  Raises
    AssertionError for a minor outside the ideal.
    """
    al, be, ga = (QQi.coerce(v) for v in (alpha, beta, gamma))
    if al + be + ga + al * be * ga:
        raise PreconditionViolated("alpha+beta+gamma+alpha*beta*gamma != 0")
    ring = x_ring()
    q, q1, _, _ = quadrics(al, be, ga, ring)
    for pair, h in maximal_minors(matrix_m(al, be, ga, ring)).items():
        if ideal_slice_membership(h, [q, q1]) is None:
            raise AssertionError(f"minor {pair} is not in (q, q1)")


# ---------------------------------------------------------------------------
# projective points, the twenty-point table, and the bijection
# ---------------------------------------------------------------------------


class ProjectivePoint:
    """Homogeneous coordinate 4-tuple, normalized to leading coefficient 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = [QQi.coerce(c) for c in coords]
        if len(coords) != 4:
            raise ValueError("projective points here live in P^3")
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("(0,0,0,0) is not a projective point")
        inv = lead.inverse()
        object.__setattr__(self, "coords", tuple(c * inv for c in coords))

    def __setattr__(self, *_):
        raise AttributeError("ProjectivePoint is immutable")

    def __getitem__(self, k):
        return self.coords[k]

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        """Hash of the normalized coordinates' (x, y, d) triples.

        ``==`` compares the normalized coordinates, whose triples are in
        normal form, so equal points hash equally; no Fraction is built.
        """
        return hash(tuple((c.x, c.y, c.d) for c in self.coords))

    def sign_flip(self, pattern) -> "ProjectivePoint":
        """Negate the coordinates listed in pattern."""
        return ProjectivePoint(
            tuple(-c if k in pattern else c for k, c in enumerate(self.coords))
        )

    def evaluate(self, poly: MultiPoly):
        values = {name: self.coords[k] for k, name in enumerate(X_VARS)}
        return poly.evaluate(values)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


#: coordinate sign patterns of the three involutions (indices negated)
GAMMA_PATTERNS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


class PointTable:
    """The twenty points attached to square roots (a, b, c) of the parameters.

    Stratum "inf" holds the four coordinate points; stratum 0 the orbit of
    (abc, a, b, c) under coordinate sign flips; stratum i the four points
    whose first coordinate is the i-th square root.  Points within each
    nonzero stratum are the images of its top point under the three sign
    involutions, in order.
    """

    def __init__(self, a, b, c):
        a, b, c = (QQi.coerce(v) for v in (a, b, c))
        if not (a and b and c):
            raise DegenerateParameters("square roots a, b, c must be nonzero")
        self.a, self.b, self.c = a, b, c
        i = QI_I
        one = QI_ONE
        e = [ProjectivePoint([one if k == j else 0 for k in range(4)]) for j in range(4)]
        tops = {
            0: ProjectivePoint((a * b * c, a, b, c)),
            1: ProjectivePoint((a, -i * a, -i, -one)),
            2: ProjectivePoint((b, -one, -i * b, -i)),
            3: ProjectivePoint((c, -i, -one, -i * c)),
        }
        self.strata = {"inf": e}
        for s, top in tops.items():
            self.strata[str(s)] = [
                top,
                top.sign_flip(GAMMA_PATTERNS[1]),
                top.sign_flip(GAMMA_PATTERNS[2]),
                top.sign_flip(GAMMA_PATTERNS[3]),
            ]
        self._stratum_of = {}
        for label, pts in self.strata.items():
            for p in pts:
                self._stratum_of[p] = label

    def points(self):
        out = []
        for label in ("inf", "0", "1", "2", "3"):
            out.extend(self.strata[label])
        return out

    def stratum_of(self, p: ProjectivePoint) -> str:
        try:
            return self._stratum_of[p]
        except KeyError:
            raise KeyError(f"{p!r} is not one of the twenty points") from None

    def all_distinct(self) -> bool:
        # _stratum_of is keyed by point, so a repeated point shrinks it
        return len(self._stratum_of) == 20

    def theta(self, p: ProjectivePoint) -> ProjectivePoint:
        """The bijection: identity on stratum inf, negate-first on stratum 0,
        negate-first composed with the matching sign involution on stratum i."""
        label = self.stratum_of(p)
        if label == "inf":
            return p
        if label == "0":
            return p.sign_flip((0,))
        return p.sign_flip((0,) + GAMMA_PATTERNS[int(label)])

    def graph(self):
        """The twenty pairs (p, theta(p))."""
        return [(p, self.theta(p)) for p in self.points()]


def verify_gamma(alpha, beta, gamma, a, b, c) -> dict:
    """The four-assertion verification of the twenty-point picture.

    (i) the twenty points are pairwise distinct; (ii) all six relation
    forms vanish at every graph pair; (iii) the forms vanishing on the
    graph are exactly the 6-dimensional relation space; (iv) the fifteen
    minors of M vanish at first-projection points and those of M' at
    second-projection points.  Returns a dict with one entry per
    assertion and a ``failures`` list; each false assertion adds at least
    one failure and each failure comes from a false assertion, so the
    picture holds exactly when ``failures`` is empty.

    Each graph pair (p, p') gives one evaluation row, whose coordinate
    4k + l is p[k] p'[l]: a relation row's form value at the pair is its
    dot product with that row, and the twenty rows give the 20x16 rank.
    The row holds unsettled (x, y, d) triples with one d, so a form value
    is zero exactly when its integer numerator is.

    (iv) is decided exactly, and independently of (ii), from M's and M''s
    own entries.  Row i of M(p) p'^T is the dot product of row i of M x^T,
    as a relation row, with the pair's evaluation row, and likewise
    M'(p')^T p^T with the columns of x M'.  When M(p) p'^T = 0, the nonzero
    p' is in the kernel of M(p), whose rank is then at most 3, so all
    fifteen maximal minors vanish at p (evaluation is a ring map: a minor
    of M takes at p the value of the same minor of M(p)); the same holds
    for M' at p'.  Only at a point whose product is nonzero is the rank of
    the numeric matrix computed, and the minor values where it is 4, to
    name the failing minors (``_nonzero_minors``).
    """
    al, be, ga = (QQi.coerce(v) for v in (alpha, beta, gamma))
    a_, b_, c_ = (QQi.coerce(v) for v in (a, b, c))
    if not al * be * ga:
        raise PreconditionViolated("alpha*beta*gamma = 0")
    if not al + be + ga + al * be * ga:
        raise PreconditionViolated("alpha+beta+gamma+alpha*beta*gamma = 0")
    for root, value, name in ((a_, al, "a"), (b_, be, "b"), (c_, ga, "c")):
        if root * root != value:
            raise PreconditionViolated(f"{name}^2 does not equal the parameter")

    failures = []
    table = PointTable(a_, b_, c_)
    graph = table.graph()
    distinct = table.all_distinct()
    if not distinct:
        failures.append("points are not pairwise distinct")

    space = sklyanin_relations(al, be, ga)
    forms = [_integral(rel) for rel in space.rows]
    (m, m_rows), (mpt, mp_rows) = _matrix_rows(al, be, ga)
    m_rows = [_integral(row) for row in m_rows]
    mp_rows = [_integral(row) for row in mp_rows]
    forms_vanish = True
    ech = SparseEchelon(QQi)
    nonzero = []
    for p, pp in graph:
        row = _evaluation_row(p, pp)
        for name, rel in zip(space.row_names, forms):
            if _nonzero_on(rel, row):
                forms_vanish = False
                failures.append(f"form {name} is nonzero at ({p!r}, {pp!r})")
        ech.insert(row)
        nonzero.append((
            _nonzero_minors(m, p) if any(_nonzero_on(r, row) for r in m_rows) else {},
            _nonzero_minors(mpt, pp) if any(_nonzero_on(r, row) for r in mp_rows) else {},
        ))
    kernel_dimension = 16 - ech.rank
    if kernel_dimension != 6:
        failures.append(f"evaluation kernel has dimension {kernel_dimension}, not 6")

    for pair in MINOR_PAIRS:
        for (p, pp), (h, g) in zip(graph, nonzero):
            if pair in h:
                failures.append(f"minor h{pair} nonzero at {p!r}")
            if pair in g:
                failures.append(f"minor g{pair} nonzero at {pp!r}")
    return {
        "points_distinct": distinct,
        "relation_forms_vanish_on_graph": forms_vanish,
        "evaluation_kernel_dimension": kernel_dimension,
        # the relation rows vanish on the graph, and a 6-dimensional kernel
        # containing the 6-dimensional relation space is it
        "kernel_equals_relation_space": kernel_dimension == 6 and forms_vanish,
        "minors_vanish_at_projections": not any(h or g for h, g in nonzero),
        "failures": failures,
    }


def _over_one_denominator(values):
    """Gaussian rationals as Gaussian integers (x, y) over their lcm denominator d.

    Returns ([(x, y), ...], d), with value k equal to (x_k + y_k*i)/d.
    """
    d = lcm(*(z.d for z in values))
    return [(z.x * (d // z.d), z.y * (d // z.d)) for z in values], d


def _integral(row):
    """A relation row times the lcm of its denominators, as (x, y) int pairs.

    A nonzero scale keeps which dot products vanish.
    """
    return dict(zip(row, _over_one_denominator(row.values())[0]))


def _evaluation_row(p: ProjectivePoint, pp: ProjectivePoint) -> dict:
    """The pair's evaluation row, coordinate 4k + l = p[k] pp[l], as (x, y, d) triples.

    Each point's coordinates go over one denominator, so each value is a
    product of two Gaussian integers over the same d, and none is settled.
    """
    (u, du), (w, dw) = _over_one_denominator(p), _over_one_denominator(pp)
    d = du * dw
    return {4 * k + l: (x * s - y * t, x * t + y * s, d)
            for k, (x, y) in enumerate(u) if x or y
            for l, (s, t) in enumerate(w) if s or t}


def _nonzero_on(row, values) -> bool:
    """Whether an integral row's dot product with an evaluation row is nonzero.

    The evaluation row's values share one denominator, so the dot product
    is zero exactly when its numerator, summed on ints, is.
    """
    re = im = 0
    for idx, (a, b) in row.items():
        t = values.get(idx)
        if t is not None:
            x, y, _ = t
            re += a * x - b * y
            im += a * y + b * x
    return bool(re or im)


def _nonzero_minors(coefficients, p: ProjectivePoint) -> dict:
    """The maximal minors of a 6x4 matrix of linear forms that are nonzero at p.

    The rank of the numeric matrix decides whether there are any; only at
    rank 4 are the minors' values computed.
    """
    rows = [[sum((c * p[k] for k, c in entry), QI_ZERO) for entry in row]
            for row in coefficients]
    ech = SparseEchelon(QQi)
    for row in rows:
        ech.insert({j: v for j, v in enumerate(row) if v})
    if ech.rank < 4:
        return {}
    return {pair: v for pair, v in maximal_minors(rows).items() if v}


# ---------------------------------------------------------------------------
# the eight-point lemma and the elliptic curve with its order-4 map
# ---------------------------------------------------------------------------


def eight_points(lam, mu, nu):
    """Common zero locus of x0x1 - lam^2 x2x3, x0x2 - mu^2 x1x3, x0x3 - nu^2 x1x2."""
    lam, mu, nu = (QQi.coerce(v) for v in (lam, mu, nu))
    if not (lam and mu and nu):
        raise DegenerateParameters("lambda, mu, nu must all be nonzero")
    one = QI_ONE
    pts = [
        ProjectivePoint((0, one, 0, 0)),
        ProjectivePoint((0, 0, one, 0)),
        ProjectivePoint((lam * mu * nu, lam, mu, nu)),
        ProjectivePoint((lam * mu * nu, -lam, -mu, nu)),
        ProjectivePoint((one, 0, 0, 0)),
        ProjectivePoint((0, 0, 0, one)),
        ProjectivePoint((lam * mu * nu, -lam, mu, -nu)),
        ProjectivePoint((lam * mu * nu, lam, -mu, -nu)),
    ]
    ring = x_ring()
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    qs = [
        x0 * x1 - x2 * x3 * (lam * lam),
        x0 * x2 - x1 * x3 * (mu * mu),
        x0 * x3 - x1 * x2 * (nu * nu),
    ]
    for p in pts:
        for q in qs:
            if p.evaluate(q):
                raise AssertionError(f"{p!r} misses a defining quadric")
    if len(set(pts)) != 8:
        raise AssertionError("the eight points are not distinct")
    return pts


#: the order-4 coordinate map (x0,x1,x2,x3) -> (x1,x0,x3,-x2)
SIGMA_IMAGES = ((1, 1), (0, 1), (3, 1), (2, -1))


def sigma_point(p: ProjectivePoint) -> ProjectivePoint:
    c = p.coords
    return ProjectivePoint(tuple(c[src] * sgn for src, sgn in SIGMA_IMAGES))


def curve_quadrics(alpha, ring):
    """The two quadrics cutting out the quartic curve of A(alpha, 1, -1)."""
    al = ring.coerce(alpha)
    x0, x1, x2, x3 = (ring.gen(v) for v in X_VARS)
    return (x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3,
            x0 * x0 - x1 * x1 + al * (x2 * x2) - al * (x3 * x3))


def curve_relations_certificate():
    """Each entry of M . sigma(x)^T lies in the ideal of the two curve quadrics.

    M is that of A(alpha, 1, -1) with alpha a variable of the coordinate
    ring, so the certificates hold for every alpha.  The product is
    computed in the commutative coordinate ring; membership of each
    (degree-2) entry in x0..x3 is certified by slice membership, whose
    certificates re-expand.  Returns the list of certificates, one per
    matrix row.
    """
    ring = PolyRing(("alpha",) + X_VARS)
    alpha = ring.gen("alpha")
    gens = curve_quadrics(alpha, ring)
    x = [ring.gen(v) for v in X_VARS]
    sigma_x = [x[src] if sgn > 0 else -x[src] for src, sgn in SIGMA_IMAGES]
    certificates = []
    for row in matrix_m(alpha, 1, -1, ring):
        entry = ring.zero()
        for e, s in zip(row, sigma_x):
            entry = entry + e * s
        cert = ideal_slice_membership(entry, gens, main_names=X_VARS)
        if cert is None:
            raise AssertionError("matrix-times-sigma entry is outside the curve ideal")
        certificates.append(cert)
    return certificates
